"""Command-line entry point.

Subcommands: train, eval, gradcheck, moments-selftest, export-embeddings,
sweep. Outputs land under a per-run directory named by config hash and
seed, rooted at --out-root, the GMIX_OUT_ROOT environment variable, or
./runs. Ctrl-C and SIGTERM end a command with one ``error:`` line and
exit 130 or 143, as a shell reports those signals.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import os
import signal
import sys
from multiprocessing import Pool
from pathlib import Path

import numpy as np

from .autodiff import Tensor
from .checkpoint import load_model
from .config import ConfigError, config_hash, parse_config, parse_config_text
from .datasets import generate
from .fileio import atomic_write
from .gradcheck import format_table, run_suite
from .heads import conditional
from .moments import MAX_ORDER, MomentSpec, class_size, mom_loss, target_moment
from .outlier import scores as outlier_scores
from .pipeline import RunConfig, evaluate, init_state, run


def _out_root(arg: str | None) -> Path:
    if arg:
        return Path(arg)
    return Path(os.environ.get("GMIX_OUT_ROOT", "runs"))


def _run_dir(root: Path, flat: dict[str, str]) -> Path:
    return root / f"{config_hash(flat)}-s{flat['run.seed']}"


def _load_state_for(config: RunConfig, data_spec, checkpoint_path):
    dataset = generate(data_spec)
    state = init_state(config, dataset)
    load_model(checkpoint_path, state.backbone, state.head)
    state.ema = None  # the checkpoint holds the weights to use; a fresh shadow would mask them
    return dataset, state


def _cmd_train(args) -> int:
    config, data_spec, flat = parse_config(args.config)
    out_dir = _run_dir(_out_root(args.out_root), flat)
    report, _, manifest = run(config, data_spec, out_dir=out_dir)
    final = report.final
    print(f"run {manifest['config_hash']} seed {config.seed}: "
          f"test_acc={final['test_acc']:.4f} compactness={final['compactness']:.4f} "
          f"({manifest['wall_clock_sec']:.1f}s) -> {out_dir}")
    return 0


def _cmd_eval(args) -> int:
    config, data_spec, _ = parse_config(args.config)
    dataset, state = _load_state_for(config, data_spec, args.checkpoint)
    ev = evaluate(state, dataset.test_x, dataset.test_y)
    print(f"test_acc={ev.accuracy:.4f}")
    print(f"compactness={ev.compactness:.4f}")
    per = " ".join(f"{a:.3f}" for a in ev.per_class)
    print(f"per_class_acc={per}")
    return 0


def _cmd_gradcheck(args) -> int:
    rows = run_suite(quick=args.quick)
    print(format_table(rows))
    failed = [r for r in rows if not r.passed]
    print(f"\n{len(rows) - len(failed)}/{len(rows)} checks passed")
    return 1 if failed else 0


def _cmd_moments_selftest(args) -> int:
    if not 1 <= args.max_order <= MAX_ORDER:
        raise ValueError(f"--max-order must be in 1..{MAX_ORDER}, got {args.max_order}")
    if args.dim < 1:
        raise ValueError(f"--dim must be at least 1, got {args.dim}")
    if args.repeats < 2:  # the noise floor's standard deviation needs two
        raise ValueError(f"--repeats must be at least 2, got {args.repeats}")
    dim = args.dim
    ok = True
    lines = []
    lines.append("order,hyperdiags,class_size,weight")
    for p in range(1, args.max_order + 1):
        sizes = [class_size(p, dim, h) for h in range(p)]
        for h, size in enumerate(sizes):
            weight = 1.0 / size if size else 0.0
            lines.append(f"{p},{h},{size},{weight:.10g}")
        # The classes partition all dim**p index tuples of order p.
        if sum(sizes) != dim ** p:
            ok = False
    lines.append("")
    lines.append("pattern,target")
    patterns = {
        1: [(0,)],
        2: [(0, 0), (0, 1)],
        3: [(0, 0, 0), (0, 0, 1), (0, 1, 2)],
        4: [(0, 0, 0, 0), (0, 0, 1, 1), (0, 0, 0, 1), (0, 0, 1, 2), (0, 1, 2, 3)],
    }
    for p in range(1, args.max_order + 1):
        for idx in patterns[p]:
            if max(idx) < dim:
                name = "".join("ijkl"[v] for v in idx)
                lines.append(f"{name},{target_moment(idx):.10g}")
    lines.append("")
    lines.append("n,order,loss_mean,loss_sd,loss_max")
    for n in args.samples:
        for p in range(1, min(args.max_order, 2) + 1):
            spec = MomentSpec(max_order=p, mode="global")
            losses = []
            for r in range(args.repeats):
                rng = np.random.default_rng(1000 + r)
                total, _ = mom_loss(Tensor(rng.standard_normal((n, dim))), spec)
                losses.append(total.item())
            losses = np.array(losses)
            lines.append(
                f"{n},{p},{losses.mean():.6e},{losses.std(ddof=1):.6e},{losses.max():.6e}"
            )
    if args.csv:
        print("\n".join(lines))
    else:
        for line in lines:
            print(line.replace(",", "\t"))
    print(f"\nself-test {'passed' if ok else 'FAILED'} (dim={dim})")
    return 0 if ok else 1


def _cmd_export_embeddings(args) -> int:
    config, data_spec, _ = parse_config(args.config)
    dataset, state = _load_state_for(config, data_spec, args.checkpoint)
    backbone, head = state.backbone, state.head
    x = getattr(dataset, f"{args.split}_x")
    y = getattr(dataset, f"{args.split}_y")
    z = backbone.embed(Tensor(x)).data
    pred = np.argmax(head.class_log_scores(Tensor(z)).data, axis=1)
    if head.generative:
        score = outlier_scores(head, z, config.gate.mode)
    else:
        score = conditional(head, z).data.max(axis=1)
    dim = z.shape[1]
    with atomic_write(args.out) as f:
        f.write("\t".join([f"z{i}" for i in range(dim)] + ["label", "predicted", "score"]) + "\n")
        for row, label, p, s in zip(z, y, pred, score):
            f.write("\t".join([f"{v:.10g}" for v in row] + [str(int(label)), str(int(p)), f"{s:.10g}"]) + "\n")
    print(f"wrote {x.shape[0]} rows to {args.out}")
    return 0


def _sweep_worker(task):
    config, data_spec, flat, out_root = task
    out_dir = _run_dir(Path(out_root), flat)
    try:
        report, _, manifest = run(config, data_spec, out_dir=out_dir)
    except Exception as e:  # surface the failing combo, keep the sweep going
        return {"dir": str(out_dir), "error": str(e)}
    return {
        "dir": str(out_dir),
        "test_acc": report.final["test_acc"],
        "compactness": report.final["compactness"],
        "hash": manifest["config_hash"],
    }


def _worker_signals() -> None:
    # Workers ignore Ctrl-C: the parent alone reports it, and its pool exit
    # stops them. They would inherit the parent's SIGTERM handler, so they
    # take the default back: the pool's terminate() ends them silently.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


def _cmd_sweep(args) -> int:
    if args.jobs is not None and args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    with open(args.config) as f:
        base_text = f.read()
    grids = {}
    for spec in args.grid:
        key, _, values = spec.partition("=")
        key = key.strip()
        if not values:
            raise ValueError(f"bad --grid {spec!r}: expected key=v1,v2,...")
        if key in grids:
            raise ValueError(f"bad --grid {spec!r}: {key} is already on the grid")
        grids[key] = [(key, v.strip()) for v in values.split(",")]
    combos = list(itertools.product(*grids.values()))
    # Every combo is parsed before any run starts: a bad grid value ends
    # the sweep with one error line and no run directory.
    out_root = str(_out_root(args.out_root))
    tasks = [(*parse_config_text(base_text, str(args.config), combo), out_root)
             for combo in combos]
    # Two combos with one effective config would train into one run directory.
    labels = [" ".join(f"{k}={v}" for k, v in combo) or "(base)" for combo in combos]
    first = {}
    for label, (_, _, flat, _) in zip(labels, tasks):
        run_dir = _run_dir(Path(out_root), flat)
        if run_dir in first:
            raise ValueError(f"--grid combos {first[run_dir]!r} and {label!r} give one config")
        first[run_dir] = label
    # The CPUs this process may run on, not every CPU of the machine.
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    jobs = args.jobs or usable or 1
    if jobs > 1 and len(tasks) > 1:
        with Pool(min(jobs, len(tasks)), initializer=_worker_signals) as pool:
            results = pool.map(_sweep_worker, tasks)
    else:
        results = [_sweep_worker(t) for t in tasks]
    failed = 0
    for label, res in zip(labels, results):
        if "error" in res:
            failed += 1
            print(f"{label}: FAILED {res['error']}")
        else:
            print(f"{label}: test_acc={res['test_acc']:.4f} -> {res['dir']}")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gmix",
        description="Generative mixture heads with moment-constrained embeddings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run a training configuration")
    p.add_argument("config")
    p.add_argument("--out-root", default=None)
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on the test split")
    p.add_argument("config")
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--quick", action="store_true", help="reduced moment grid")
    p.set_defaults(fn=_cmd_gradcheck)

    p = sub.add_parser("moments-selftest", help="moment combinatorics and noise floors")
    p.add_argument("--dim", type=int, default=8)
    p.add_argument("--max-order", type=int, default=4)
    p.add_argument("--repeats", type=int, default=10)
    p.add_argument("--samples", type=int, nargs="+", default=[1000, 10000])
    p.add_argument("--csv", action="store_true", help="emit comma-separated rows")
    p.set_defaults(fn=_cmd_moments_selftest)

    p = sub.add_parser("export-embeddings", help="write embeddings as TSV")
    p.add_argument("config")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--split", default="test", choices=["labeled", "unlabeled", "test"])
    p.set_defaults(fn=_cmd_export_embeddings)

    p = sub.add_parser("sweep", help="expand comma grids into parallel runs")
    p.add_argument("config")
    p.add_argument("--grid", action="append", default=[], metavar="KEY=V1,V2")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes (default: the CPUs this process may run on)")
    p.add_argument("--out-root", default=None)
    p.set_defaults(fn=_cmd_sweep)
    return parser


class Terminated(BaseException):
    """SIGTERM arrived. Like KeyboardInterrupt, no ``except Exception`` catches it."""


def _raise_terminated(pid: int, signum, frame):
    if os.getpid() != pid:
        # A pool worker forked before its initializer reset this handler:
        # end it by the default action, as the pool's terminate() expects.
        signal.signal(signum, signal.SIG_DFL)
        os.kill(os.getpid(), signum)
    raise Terminated


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    previous = signal.signal(signal.SIGTERM, functools.partial(_raise_terminated, os.getpid()))
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except (ValueError, FloatingPointError, OSError, MemoryError, OverflowError) as e:
        # MemoryError and OverflowError: sizes numpy cannot allocate or index.
        print(f"error: {e}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130  # 128 + SIGINT, as a shell reports it
    except Terminated:
        print("error: terminated", file=sys.stderr)
        return 143  # 128 + SIGTERM
    finally:
        signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
