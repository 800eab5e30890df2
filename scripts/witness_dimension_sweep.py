#!/usr/bin/env python3
"""Stress the witness construction across factor dimensions and ranks.

For every factor-dimension pair in range, each trial draws two seeded random
binary joint measurements: a tensor-form joint of Haar projectors of random
ranks at the factor dimensions, and a same-space joint of two projectors
diagonal in one Haar basis of dimension d_a * d_b (through ``witness_joint``).
It builds the witness of each and tabulates the worst identity residual per
form and the separable verdicts of both.  Everything below 1e-10 and zero
separable verdicts is the expected outcome at any dimension; otherwise the
script prints what failed and exits with status 1.
"""

import argparse
import sys

import numpy as np

from seplab.bipartite import joint_measurement, witness_joint
from seplab.hilbert import Operator, haar_projector
from seplab.measurement import binary_pvm
from seplab.separation import construct_witness, separation_verdict

RESIDUAL_BOUND = 1e-10


def common_eigenbasis_joint(dim: int, rng: np.random.Generator):
    """Binary joint of two projectors diagonal in one Haar basis; basis
    vector 0 lies in P_A only and vector 1 in P_B only, so both cross
    couples are nonzero."""
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    mask_a = rng.integers(0, 2, size=dim).astype(bool)
    mask_b = rng.integers(0, 2, size=dim).astype(bool)
    mask_a[:2], mask_b[:2] = (True, False), (False, True)
    p_a, p_b = (Operator(q[:, m] @ q[:, m].conj().T) for m in (mask_a, mask_b))
    return witness_joint(p_a, p_b)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=20, help="pairs per dimension cell and form")
    parser.add_argument("--max-dim", type=int, default=4, help="largest factor dimension")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    worst_residual, separable_total = 0.0, 0
    print(f"{'dims':>7} {'trials':>7} {'tensor residual':>16} {'commuting residual':>19} "
          f"{'separable':>10}")
    for d_a in range(2, args.max_dim + 1):
        for d_b in range(2, args.max_dim + 1):
            worst = {"tensor": 0.0, "commuting": 0.0}
            separable = 0
            for _ in range(args.trials):
                r_a = int(rng.integers(1, d_a))
                r_b = int(rng.integers(1, d_b))
                joints = {
                    "tensor": joint_measurement(
                        binary_pvm(haar_projector(d_a, r_a, rng)),
                        binary_pvm(haar_projector(d_b, r_b, rng)),
                    ),
                    "commuting": common_eigenbasis_joint(d_a * d_b, rng),
                }
                for form, joint in joints.items():
                    witness = construct_witness(joint, rng)
                    worst[form] = max(worst[form], max(witness.residuals.values()))
                    separable += int(separation_verdict(joint, witness.psi).separate)
            print(f"{d_a}x{d_b:>5} {args.trials:>7} {worst['tensor']:>16.3e} "
                  f"{worst['commuting']:>19.3e} {separable:>10}")
            worst_residual = max(worst_residual, *worst.values())
            separable_total += separable
    if not worst_residual < RESIDUAL_BOUND or separable_total:
        print(f"FAIL: worst residual {worst_residual:.3e} (bound {RESIDUAL_BOUND:g}), "
              f"{separable_total} separable verdicts (expected 0)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
