#!/usr/bin/env python3
"""Stress the witness construction across factor dimensions and ranks.

For every factor-dimension pair in range, draw seeded random projector pairs
(both tensor-embedded and merely commuting), build the witness, and tabulate
the worst identity residual and the separability verdicts.  Everything below
1e-10 and zero separable verdicts is the expected outcome at any dimension.
"""

import argparse

import numpy as np

from seplab.hilbert import haar_projector, identity, tensor_op
from seplab.separation import construct_witness, separation_verdict, witness_joint


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=20, help="pairs per dimension cell")
    parser.add_argument("--max-dim", type=int, default=4, help="largest factor dimension")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    print(f"{'dims':>7} {'trials':>7} {'worst residual':>16} {'separable':>10}")
    for d_a in range(2, args.max_dim + 1):
        for d_b in range(2, args.max_dim + 1):
            worst = 0.0
            separable = 0
            for _ in range(args.trials):
                r_a = int(rng.integers(1, d_a))
                r_b = int(rng.integers(1, d_b))
                p_a = tensor_op(haar_projector(d_a, r_a, rng), identity(d_b))
                p_b = tensor_op(identity(d_a), haar_projector(d_b, r_b, rng))
                witness = construct_witness(p_a, p_b, rng)
                worst = max(worst, max(witness.residuals.values()))
                verdict = separation_verdict(witness_joint(p_a, p_b), witness.psi)
                separable += int(verdict.separate)
            print(f"{d_a}x{d_b:>5} {args.trials:>7} {worst:>16.3e} {separable:>10}")


if __name__ == "__main__":
    main()
