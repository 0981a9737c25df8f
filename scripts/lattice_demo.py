"""Discrete lattice walkthrough: exactness check plus a short trajectory.

Builds a particle on a 2^n point ring with a harmonic potential, checks
the phase-corrected stepped propagator against the split-operator
reference, then prints position and momentum means for a Gaussian packet
stepped through the circuit.
"""

from __future__ import annotations

import argparse
import itertools

import numpy as np

from pathint import lattice as lat
from pathint.linalg import spectral_norm


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=6, help="qubits, so 2^n lattice sites")
    ap.add_argument("--xmax", type=float, default=12.0)
    ap.add_argument("--omega", type=float, default=0.5)
    ap.add_argument("--r", type=int, default=12, help="number of time steps")
    args = ap.parse_args()

    cfg = lat.LatticeConfig(n=args.n, x_max=args.xmax, mass=1.0, r=args.r)
    pot = lat.harmonic_potential(1.0, args.omega, args.xmax / 2.0, args.xmax)
    stepped = lat.lagrangian_propagator(cfg, pot) * lat.propagator_global_phase(cfg, pot)
    reference = np.linalg.matrix_power(lat.split_step_reference(cfg, pot), cfg.r)
    print(f"# tau={cfg.tau:.6f} total_time={cfg.total_time:.6f}")
    print(f"# propagator defect {spectral_norm(stepped - reference):.3e}")

    positions = cfg.positions()
    state = lat.gaussian_packet(cfg, args.xmax / 2.0 + 1.5, 1.0, 0.0)
    walk = lat.lagrangian_steps(cfg, pot.grid_values(cfg), state, cfg.r)
    print("step,position_mean,norm")
    for step, state in enumerate(itertools.chain([state], walk)):
        weights = np.abs(state) ** 2
        mean = float(weights @ positions)
        print(f"{step},{mean:.6f},{float(np.linalg.norm(state)):.12f}")


if __name__ == "__main__":
    main()
