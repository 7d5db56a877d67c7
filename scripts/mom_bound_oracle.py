"""Monte-Carlo oracle for the moment-loss noise floor.

Computes the global-mode moment loss of i.i.d. standard-normal samples
with plain numpy formulas, independently of the library code, and prints
the distribution over repeats. The acceptance suite freezes the bound
printed here (mean + 4*sd) and asserts that the library's loss on a
fresh sample stays below it.

Usage: python3 scripts/mom_bound_oracle.py [--n 50000] [--dim 8] [--repeats 20]
"""

import argparse
import itertools

import numpy as np


def direct_loss(z: np.ndarray, order_weights=(1.0, 0.5)) -> float:
    """First- and second-order moment loss via direct formulas.

    Order 1 measures the batch mean against zero; order 2 measures the
    central covariance against the identity. Entry weights are the
    reciprocal of each hyper-diagonal class size, found by enumeration.
    """
    n, dim = z.shape
    m1 = z.mean(axis=0)
    sizes1 = {}
    for t in itertools.product(range(dim), repeat=1):
        h = len(t) - len(set(t))
        sizes1[h] = sizes1.get(h, 0) + 1
    term1 = sum((1.0 / sizes1[0]) * v * v for v in m1)

    zc = z - m1
    cov = zc.T @ zc / n
    sizes2 = {}
    for t in itertools.product(range(dim), repeat=2):
        h = len(t) - len(set(t))
        sizes2[h] = sizes2.get(h, 0) + 1
    term2 = 0.0
    for i in range(dim):
        for j in range(dim):
            target = 1.0 if i == j else 0.0
            w = 1.0 / sizes2[1 if i == j else 0]
            term2 += w * (cov[i, j] - target) ** 2
    return order_weights[0] * term1 + order_weights[1] * term2


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=50_000)
    ap.add_argument("--dim", type=int, default=8)
    ap.add_argument("--repeats", type=int, default=20)
    ap.add_argument("--seed0", type=int, default=1000)
    args = ap.parse_args(argv)

    losses = []
    for r in range(args.repeats):
        rng = np.random.default_rng(args.seed0 + r)
        z = rng.standard_normal((args.n, args.dim))
        losses.append(direct_loss(z))
    losses = np.array(losses)
    mean, sd = losses.mean(), losses.std(ddof=1)
    print(f"n={args.n} dim={args.dim} repeats={args.repeats}")
    print(f"losses: min={losses.min():.6e} median={np.median(losses):.6e} max={losses.max():.6e}")
    print(f"mean={mean:.6e} sd={sd:.6e}")
    print(f"bound(mean+4sd)={mean + 4 * sd:.6e}")

    shift_rng = np.random.default_rng(args.seed0 + args.repeats + 1)
    z = shift_rng.standard_normal((args.n, args.dim))
    z_shift = z.copy()
    z_shift[:, 0] += 1.0
    print(f"shifted/unshifted ratio: {direct_loss(z_shift) / direct_loss(z):.1f}")


if __name__ == "__main__":
    main()
