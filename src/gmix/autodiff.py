"""Dense float64 tensors with tape-based reverse-mode differentiation.

Values are numpy float64 arrays. Every operation checks that its result
is finite and builds it through one helper, :func:`_result`: when an
operand is attached to a :class:`Tape`, the helper records one closure
routing the output gradient back to the operand slots, each through the
op's vector-Jacobian product. A reverse pass replays the records in exact
reverse execution order, so a slot's gradient is fully accumulated before
the record that produced it runs.

The finiteness check sums the result first: a finite sum proves every
element finite, since any NaN or infinity makes the sum non-finite. Only
a non-finite sum is checked element by element, so a finite array whose
sum overflows still passes (numpy warns about that overflow) and the
check stays exact.

A parameter has one leaf tensor per tape: :meth:`Parameter.use` records
the leaf at its first use and returns that same tensor on every later use,
so all consumers deposit into one slot, in reverse record order, and the
leaf's record adds the slot into the parameter's gradient. The loss
primitives of the training step (the mixture log joint, a dense layer,
the log conditional, the negative log-likelihood and the whole moment
loss) are each one record with a hand-derived reverse pass that repeats
the arithmetic of the op-by-op chain it replaces, so they give the same
bits as that chain. Where a primitive repeats an op's forward, it calls
that op's helper (``_leaky``, ``_logsumexp_kept``) rather than a copy.

A tape and the tensors it records form reference cycles, so their memory
is returned only when the records are dropped: ``pipeline.train_step``
calls :meth:`Tape.clear` once the reverse pass is done.

Tensors without a tape behave as constants: nothing is recorded and no
gradient bookkeeping happens, which makes evaluation-only forward passes
cheap.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "NonFiniteError",
    "Tape",
    "Tensor",
    "Parameter",
    "add",
    "sub",
    "mul",
    "div",
    "matmul",
    "exp",
    "powi",
    "neg",
    "leaky_relu",
    "tsum",
    "tmean",
    "logsumexp",
    "reshape",
    "backward",
    "clip_global_norm",
    "finite_diff_check",
]


# Entries per row block of the large elementwise kernels (256 KiB of
# float64): a block's temporaries are reused from cache instead of being
# page-faulted in fresh for every full-size array.
BLOCK_ENTRIES = 1 << 15


def row_blocks(n: int, row_entries: int) -> list[tuple[int, int]]:
    """Consecutive ``(lo, hi)`` row ranges of about ``BLOCK_ENTRIES`` entries."""
    rows = max(1, BLOCK_ENTRIES // max(1, row_entries))
    return [(lo, min(lo + rows, n)) for lo in range(0, n, rows)]


class NonFiniteError(FloatingPointError):
    """A forward operation produced NaN or Inf."""


class Tape:
    """Ordered record of the operations executed in one forward pass.

    It also maps each :class:`Parameter` used on it to its one leaf tensor.
    """

    __slots__ = ("_records", "_leaves")

    def __init__(self) -> None:
        self._records: list[Callable[[], None]] = []
        self._leaves: dict[Parameter, Tensor] = {}

    def __len__(self) -> int:
        return len(self._records)

    def record(self, fn: Callable[[], None]) -> None:
        self._records.append(fn)

    def replay_reverse(self) -> None:
        """Run recorded closures in reverse execution order."""
        for fn in reversed(self._records):
            fn()

    def clear(self) -> None:
        """Drop every record and leaf, releasing the intermediates they hold."""
        self._records.clear()
        self._leaves.clear()


class Tensor:
    """A dense float64 array, optionally attached to a tape."""

    __slots__ = ("data", "grad", "tape")

    def __init__(self, data, tape: Tape | None = None) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.tape = tape

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __pow__(self, n):
        return powi(self, n)

    def sum(self, axis=None, keepdims: bool = False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, shape):
        return reshape(self, shape)

    def __repr__(self) -> str:
        tag = ", taped" if self.tape is not None else ""
        return f"Tensor(shape={self.data.shape}{tag})"


class Parameter:
    """Trainable value with a persistent gradient accumulator.

    Gradients accumulate across backward passes until :meth:`zero_grad`
    is called; zeroing is always explicit, never implicit.
    """

    __slots__ = ("value", "grad", "name")

    def __init__(self, value, name: str = "") -> None:
        self.value = np.array(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def use(self, tape: Tape | None) -> Tensor:
        """This parameter's leaf tensor on a tape, one per tape.

        The first use records the leaf; later uses return the same tensor.
        The leaf record runs last in the reverse pass (it was recorded
        before any consumer), at which point every consumer has deposited
        its gradient contribution into the leaf slot, and it adds their sum
        into :attr:`grad`.
        """
        if tape is None:
            return Tensor(self.value)
        t = tape._leaves.get(self)
        if t is None:
            t = tape._leaves[self] = Tensor(self.value, tape)

            def backward_leaf() -> None:
                if t.grad is not None:
                    self.grad += t.grad

            tape.record(backward_leaf)
        return t

    def __repr__(self) -> str:
        return f"Parameter(name={self.name!r}, shape={self.value.shape})"


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def _join_tape(*tensors: Tensor) -> Tape | None:
    tape = None
    for t in tensors:
        if t.tape is None:
            continue
        if tape is None:
            tape = t.tape
        elif tape is not t.tape:
            raise ValueError("operands are recorded on different tapes")
    return tape


def _check_finite(data: np.ndarray, op: str) -> None:
    # Exact, and one reduction on the common path: see the module docstring.
    if not math.isfinite(data.sum()) and not np.all(np.isfinite(data)):
        raise NonFiniteError(f"{op} produced a non-finite value")


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    t.grad = g if t.grad is None else t.grad + g


def _result(data: np.ndarray, tape: Tape | None, *routes) -> Tensor:
    """Wrap an op's forward result; on a tape, record its gradient route.

    Each route is an ``(operand, vjp)`` pair: the recorded closure passes
    the output gradient through ``vjp`` into ``operand``, pair by pair in
    the order given. Routes into constants, operands without a tape, are
    dropped: nothing reads their gradient.
    """
    out = Tensor(data, tape)
    if tape is not None:
        routes = [route for route in routes if route[0].tape is not None]

        def backward_fn() -> None:
            g = out.grad
            if g is None:
                return
            for operand, vjp in routes:
                _accumulate(operand, vjp(g))

        tape.record(backward_fn)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient over the axes that broadcasting expanded."""
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    squeezed = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if squeezed:
        g = g.sum(axis=squeezed, keepdims=True)
    return g


def _binary(op: str, a, b, fwd, da, db) -> Tensor:
    a = _as_tensor(a)
    b = _as_tensor(b)
    tape = _join_tape(a, b)
    try:
        with np.errstate(all="ignore"):
            data = fwd(a.data, b.data)
    except ValueError:
        raise ValueError(
            f"{op}: shapes {a.data.shape} and {b.data.shape} are not broadcast-compatible"
        ) from None
    _check_finite(data, op)
    return _result(
        data, tape,
        (a, lambda g: _unbroadcast(da(g, a.data, b.data, data), a.data.shape)),
        (b, lambda g: _unbroadcast(db(g, a.data, b.data, data), b.data.shape)),
    )


def add(a, b) -> Tensor:
    return _binary(
        "add", a, b, np.add,
        lambda g, x, y, o: g,
        lambda g, x, y, o: g,
    )


def sub(a, b) -> Tensor:
    return _binary(
        "sub", a, b, np.subtract,
        lambda g, x, y, o: g,
        lambda g, x, y, o: -g,
    )


def mul(a, b) -> Tensor:
    return _binary(
        "mul", a, b, np.multiply,
        lambda g, x, y, o: g * y,
        lambda g, x, y, o: g * x,
    )


def div(a, b) -> Tensor:
    return _binary(
        "div", a, b, np.divide,
        lambda g, x, y, o: g / y,
        lambda g, x, y, o: -g * o / y,
    )


def _matmul_data(a: Tensor, b: Tensor, check: bool = True) -> np.ndarray:
    """``a.data @ b.data`` for 2-D operands, checked finite if ``check``."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError("matmul expects 2-D operands")
    if a.data.shape[1] != b.data.shape[0]:
        raise ValueError(
            f"matmul: inner dimensions differ ({a.data.shape} @ {b.data.shape})"
        )
    data = a.data @ b.data
    if check:
        _check_finite(data, "matmul")
    return data


def matmul(a, b) -> Tensor:
    a = _as_tensor(a)
    b = _as_tensor(b)
    data = _matmul_data(a, b)
    return _result(
        data, _join_tape(a, b), (a, lambda g: g @ b.data.T), (b, lambda g: a.data.T @ g)
    )


def _unary(op: str, a, fwd, dx) -> Tensor:
    a = _as_tensor(a)
    with np.errstate(all="ignore"):
        data = fwd(a.data)
    _check_finite(data, op)
    return _result(data, a.tape, (a, lambda g: dx(g, a.data, data)))


def exp(a) -> Tensor:
    return _unary("exp", a, np.exp, lambda g, x, o: g * o)


def powi(a, n: int) -> Tensor:
    if not isinstance(n, int):
        raise TypeError("powi exponent must be an integer")
    return _unary(
        f"powi({n})", a,
        lambda x: x ** n,
        lambda g, x, o: g * (n * x ** (n - 1)),
    )


def neg(a) -> Tensor:
    return _unary("neg", a, np.negative, lambda g, x, o: -g)


def _leaky(x: np.ndarray, slope: float) -> np.ndarray:
    # For a slope in [0, 1], max(x, slope*x) picks x when x > 0 and slope*x
    # otherwise, the same values and signed zeros as np.where(x > 0, x,
    # slope*x) without the boolean mask and its second full-size temporary.
    out = np.multiply(x, slope)
    return np.maximum(x, out, out=out)


def leaky_relu(a, slope: float = 0.01) -> Tensor:
    if not 0.0 <= slope <= 1.0:
        raise ValueError(f"leaky_relu slope must be in [0, 1], got {slope}")
    return _unary(
        "leaky_relu", a,
        lambda x: _leaky(x, slope),
        lambda g, x, o: g * np.where(x > 0.0, 1.0, slope),
    )


def _normalize_axes(axis, ndim: int) -> tuple[int, ...] | None:
    if axis is None:
        return None
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


def _expand_reduced(g: np.ndarray, shape: tuple[int, ...], axes, keepdims: bool) -> np.ndarray:
    if not keepdims and axes is not None:
        for a in sorted(axes):
            g = np.expand_dims(g, a)
    return np.broadcast_to(g, shape)


def _reduced_count(shape: tuple[int, ...], axes) -> int:
    if axes is None:
        return int(np.prod(shape)) if shape else 1
    n = 1
    for a in axes:
        n *= shape[a]
    return n


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    axes = _normalize_axes(axis, a.data.ndim)
    data = a.data.sum(axis=axes, keepdims=keepdims)
    _check_finite(data, "sum")
    return _result(data, a.tape, (a, lambda g: _expand_reduced(g, a.data.shape, axes, keepdims)))


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    axes = _normalize_axes(axis, a.data.ndim)
    count = _reduced_count(a.data.shape, axes)
    if count == 0:
        raise ValueError("mean over an empty reduction")
    data = a.data.mean(axis=axes, keepdims=keepdims)
    _check_finite(data, "mean")
    inv = 1.0 / count
    return _result(
        data, a.tape, (a, lambda g: _expand_reduced(g * inv, a.data.shape, axes, keepdims))
    )


def _logsumexp_kept(x: np.ndarray, axis) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Max-shifted log of summed exponentials over ``axis``, with kept dims.

    Returns ``(lse, shifted, total)``: ``shifted`` is ``exp(x - max)`` and
    ``total`` its sum, so ``shifted / total`` is the softmax a reverse pass
    needs. :func:`logsumexp` and ``heads.log_conditional`` both run it.
    """
    m = np.max(x, axis=axis, keepdims=True)
    shifted = np.exp(x - m)
    total = shifted.sum(axis=axis, keepdims=True)
    return np.log(total) + m, shifted, total


def logsumexp(a, axis=None, keepdims: bool = False) -> Tensor:
    """Max-shifted log of summed exponentials, exact for extreme magnitudes."""
    a = _as_tensor(a)
    if axis is not None and not isinstance(axis, int):
        raise ValueError("logsumexp supports a single axis or None")
    x = a.data
    data_kept, shifted, total = _logsumexp_kept(x, axis)
    if keepdims:
        data = data_kept
    elif axis is None:
        data = data_kept.reshape(())
    else:
        data = np.squeeze(data_kept, axis=axis)
    _check_finite(data, "logsumexp")
    softmax = shifted / total if a.tape is not None else None
    axes = _normalize_axes(axis, x.ndim)
    return _result(
        data, a.tape, (a, lambda g: _expand_reduced(g, x.shape, axes, keepdims) * softmax)
    )


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    data = a.data.reshape(shape)
    return _result(data, a.tape, (a, lambda g: np.asarray(g).reshape(a.data.shape)))


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(slot) into every slot on the loss's tape."""
    if loss.data.shape != ():
        raise ValueError("backward requires a scalar loss")
    if loss.tape is None:
        raise ValueError("loss is not attached to a tape")
    loss.grad = np.ones(())
    loss.tape.replay_reverse()


def clip_global_norm(params: Iterable[Parameter], max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most ``max_norm``.

    Returns the scaling factor applied (1.0 when no clipping happened).
    """
    params = list(params)
    total = 0.0
    for p in params:
        total += float(np.sum(p.grad * p.grad))
    norm = math.sqrt(total)
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for p in params:
            p.grad *= scale
        return scale
    return 1.0


def finite_diff_check(
    fn: Callable[[], Tensor],
    params: Sequence[Parameter],
    h: float = 1e-6,
) -> float:
    """Compare reverse-mode gradients of ``fn()`` against central differences.

    ``fn`` must build a fresh tape and return a scalar loss computed from
    the current parameter values. Returns the worst relative error, with
    denominator max(|analytic|, |numeric|, 1e-8).
    """
    for p in params:
        p.zero_grad()
    loss = fn()
    backward(loss)
    analytic = [p.grad.copy() for p in params]
    for p in params:
        p.zero_grad()
    worst = 0.0
    for p, grad in zip(params, analytic):
        flat = p.value.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            kept = flat[i]
            flat[i] = kept + h
            up = float(fn().data)
            flat[i] = kept - h
            down = float(fn().data)
            flat[i] = kept
            numeric = (up - down) / (2.0 * h)
            denom = max(abs(gflat[i]), abs(numeric), 1e-8)
            worst = max(worst, abs(gflat[i] - numeric) / denom)
    return worst
