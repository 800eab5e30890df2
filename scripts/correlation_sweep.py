#!/usr/bin/env python3
"""Sweep the analyzer offset and compare singlet vs exploding-rock correlations.

The singlet traces -cos(delta) while the rock traces the saw-tooth
2*delta/pi - 1; the CHSH row shows the quantum curve crossing the classical
bound while the rock saturates it.  Exact evaluation only, no sampling.
"""

import argparse
import math

import numpy as np

from seplab import bell
from seplab.classical_models import rock_expectation, rock_model
from seplab.hilbert import StateVector


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=13, help="offsets between 0 and pi")
    args = parser.parse_args()

    singlet = StateVector(np.array([0, 1, -1, 0]) / math.sqrt(2))

    print(f"{'offset/pi':>10} {'singlet E':>12} {'rock E':>12}")
    for k in range(args.steps):
        delta = math.pi * k / (args.steps - 1)
        model = bell.quantum_coincidence_model(singlet, (0.0,), (delta,))
        e_q = bell.correlation(model.tables[0, 0])
        e_r = rock_expectation(0.0, delta)
        print(f"{delta / math.pi:>10.3f} {e_q:>12.6f} {e_r:>12.6f}")

    print()
    print(f"{'rotation/pi':>12} {'singlet |S|':>14} {'rock |S|':>12}")
    for k in range(args.steps):
        rot = math.pi * k / (args.steps - 1)
        a = tuple(t + rot for t in bell.DEFAULT_ANGLES_A)
        b = bell.DEFAULT_ANGLES_B
        s_q = bell.chsh_exact(bell.quantum_coincidence_model(singlet, a, b)).s
        s_r = bell.chsh_exact(rock_model(a, b)).s
        print(f"{rot / math.pi:>12.3f} {abs(s_q):>14.6f} {abs(s_r):>12.6f}")
    print(f"\nbounds: classical {bell.CLASSICAL_BOUND}, "
          f"Tsirelson {bell.TSIRELSON_BOUND:.4f}, algebraic {bell.ALGEBRAIC_BOUND}")


if __name__ == "__main__":
    main()
