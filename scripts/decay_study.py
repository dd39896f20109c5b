#!/usr/bin/env python3
"""Residual decay of Riemann-sum operator approximants.

For random hermitian matrices, prints how the approximation error of the
dyadic right-endpoint sums falls with the refinement parameter, alongside
the product-rule residual of the measure-extension route on a sampled
tensor-model family.
"""

import argparse

import numpy as np

from specmeas import algebra, linalg, nnsm
from specmeas.harness import gen_scenario


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dim", type=int, default=4)
    parser.add_argument("--ell-max", type=int, default=256)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    a = linalg.random_hermitian(rng, args.dim)
    seq = algebra.limiting_sequence(a, ell_max=args.ell_max)
    mid = algebra.limiting_sequence(a, ell_max=args.ell_max, zeta_rule="mid")

    print(f"operator approximants, dim {args.dim}, seed {args.seed}")
    print(f"{'ell':>6} {'1/ell':>12} {'right error':>14} {'mid error':>14}")
    ells = 2 ** np.arange(int(np.log2(args.ell_max)) + 1)
    for ell, right_err, mid_err in zip(ells, seq.error(ells), mid.error(ells)):
        print(f"{ell:>6} {1.0 / ell:>12.3e} {right_err:>14.3e} "
              f"{mid_err:>14.3e}")

    sc = gen_scenario("B", args.seed)
    oracle = sc.payload["oracle"]
    fam = algebra.sample_projections(oracle.w1, n=10, seed=args.seed)
    fm = nnsm.FamilyMeasures(fam, oracle.measure_for(fam.stack))
    p, q = fam.members[1], fam.members[-1]
    # sets are point masks: the first two points, and the whole space
    n_points = len(oracle.space.points())
    d1 = np.arange(n_points) < 2
    d2 = np.ones(n_points, dtype=bool)
    residuals, _ = nnsm.condition3_check(fm, p, q, d1, d2)
    print(f"\nproduct-rule residual via measure extension "
          f"(fitted rate {nnsm.decay_rate(residuals):.2f})")
    print(f"{'ell':>6} {'residual':>14}")
    for ell, r in zip(nnsm.CONDITION3_ELLS, residuals):
        print(f"{ell:>6} {r:>14.3e}")


if __name__ == "__main__":
    main()
