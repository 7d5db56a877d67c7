"""Finite-difference verification suite for every differentiable path.

Each row checks one operation or composite loss: reverse-mode gradients
against central differences on seeded random inputs, reported as the
worst relative error. Inputs are kept away from kinks (the rectifier
corner) where central differences are meaningless.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Parameter, Tape, Tensor, finite_diff_check
from . import autodiff as ad
from .heads import LEAKY_SLOPE, _dense_layer, init_head, log_conditional
from .moments import MomentSpec, mom_loss
from .pipeline import _nll

TOLERANCE = 1e-4
SEED = 2024


@dataclass
class CheckRow:
    name: str
    max_rel_err: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < TOLERANCE


def _away_from_zero(rng, shape):
    return rng.uniform(0.2, 2.0, shape) * rng.choice([-1.0, 1.0], shape)


def _op_rows(rng) -> list[CheckRow]:
    a = Parameter(_away_from_zero(rng, (3, 4)))
    b = Parameter(_away_from_zero(rng, (3, 4)))
    row = Parameter(_away_from_zero(rng, (4,)))
    # This draw and the last one fed rows of ops since removed (log, max);
    # they stay so that every later row sees the same random inputs.
    rng.uniform(0.5, 2.0, (3, 4))
    m1 = Parameter(rng.uniform(-2, 2, (3, 4)))
    m2 = Parameter(rng.uniform(-2, 2, (4, 2)))
    rng.uniform(-0.05, 0.05, (3, 4))

    def check(name, fn, params):
        return CheckRow(name, finite_diff_check(fn, params))

    def on_tape(build):
        def fn():
            tape = Tape()
            return build(tape)
        return fn

    return [
        check("add", on_tape(lambda t: (a.use(t) + row.use(t)).sum()), [a, row]),
        check("sub", on_tape(lambda t: (a.use(t) - b.use(t)).sum()), [a, b]),
        check("mul", on_tape(lambda t: (a.use(t) * b.use(t)).sum()), [a, b]),
        check("div", on_tape(lambda t: (a.use(t) / b.use(t)).sum()), [a, b]),
        check("matmul", on_tape(lambda t: ((m1.use(t) @ m2.use(t)) ** 2).sum()), [m1, m2]),
        check("exp", on_tape(lambda t: ad.exp(a.use(t)).sum()), [a]),
        check("powi", on_tape(lambda t: (a.use(t) ** 3).sum()), [a]),
        check("neg", on_tape(lambda t: (-a.use(t) * b.use(t)).sum()), [a, b]),
        check("leaky_relu", on_tape(lambda t: (ad.leaky_relu(a.use(t)) ** 2).sum()), [a]),
        check("sum", on_tape(lambda t: (a.use(t).sum(axis=0) ** 2).sum()), [a]),
        check("mean", on_tape(lambda t: (a.use(t).mean(axis=1) ** 2).sum()), [a]),
        check("logsumexp", on_tape(lambda t: ad.logsumexp(a.use(t), axis=1).sum()), [a]),
        check("reshape", on_tape(lambda t: (a.use(t).reshape((4, 3)) ** 2).sum()), [a]),
    ]


def _backbone_row(rng) -> CheckRow:
    w1 = Parameter(rng.uniform(-1, 1, (8, 16)))
    b1 = Parameter(rng.uniform(-0.5, 0.5, 16))
    w2 = Parameter(rng.uniform(-1, 1, (16, 16)))
    b2 = Parameter(rng.uniform(-0.5, 0.5, 16))
    w3 = Parameter(rng.uniform(-1, 1, (16, 4)))
    x = rng.uniform(-2, 2, (5, 8))

    def fn():
        tape = Tape()
        h = _dense_layer(Tensor(x), w1.use(tape), b1.use(tape), LEAKY_SLOPE)
        h = _dense_layer(h, w2.use(tape), b2.use(tape), LEAKY_SLOPE)
        return ((h @ w3.use(tape)) ** 2).mean()

    return CheckRow("perceptron", finite_diff_check(fn, [w1, b1, w2, b2, w3]))


def _head_rows(rng, kinds) -> list[CheckRow]:
    rows = []
    for kind in kinds:
        head = init_head(kind, 3, 4, seed=11)
        z = Parameter(rng.uniform(-2, 2, (6, 4)))
        labels = rng.integers(0, 3, 6)

        def fn(head=head, z=z, labels=labels):
            # The negative log-likelihood record the training step takes.
            tape = Tape()
            return _nll(log_conditional(head, z.use(tape)), labels).mean()

        for param, tag in [(z, "z")] + [
            (p, p.name.split(".")[-1]) for p in head.parameters()
        ]:
            rows.append(
                CheckRow(f"{kind}-ce d/d{tag}", finite_diff_check(fn, [param]))
            )
    return rows


def _moment_rows(rng) -> list[CheckRow]:
    rows = []
    for dim in (2, 4, 6):
        head = init_head("aagmm", 3, dim, seed=7)
        z = Parameter(rng.uniform(-2, 2, (8, dim)))
        for order in (1, 2, 3, 4):
            for mode in ("global", "per-cluster-soft"):
                spec = MomentSpec(max_order=order, mode=mode)
                params = [z] if mode == "global" else [z, head.centers, head.log_var]

                def fn(z=z, spec=spec, head=head):
                    tape = Tape()
                    return mom_loss(z.use(tape), spec, head=head)[0]

                rows.append(
                    CheckRow(
                        f"mom-{mode}-p{order}-D{dim}", finite_diff_check(fn, params)
                    )
                )
    return rows


def run_suite() -> list[CheckRow]:
    """All gradient checks."""
    rng = np.random.default_rng(SEED)
    rows = _op_rows(rng)
    rows.append(_backbone_row(rng))
    rows.extend(_head_rows(rng, ("aagmm", "kmeans")))
    rows.extend(_moment_rows(rng))
    # Drawn after the moment rows, so the earlier rows' inputs stay as they were.
    rows.extend(_head_rows(rng, ("linear",)))
    return rows


def format_table(rows: list[CheckRow]) -> str:
    width = max(len(r.name) for r in rows)
    lines = [f"{'check':<{width}}  {'max rel err':>12}  result"]
    for r in rows:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{r.name:<{width}}  {r.max_rel_err:>12.3e}  {status}")
    return "\n".join(lines)
