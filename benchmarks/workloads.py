"""Seeded operation lists for the four benchmark workloads.

Every workload is a fixed list of operations built from ``--seed``.  The
seed moves only physical parameters (coefficients, times, packet shapes),
never a grid size, qubit count, step count or bit count, so the work one
operation does is the same for every seed and the medians of two sets of
seeds are comparable.  Within a workload the operations are sized to
within about 2x of each other so the median operation time does not jump
between clusters.

Each operation carries its own independent check (see ``references``): it
is run once on the warm-up pass, and every later pass must reproduce the
warm-up output byte for byte.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import references

@dataclass
class Op:
    """One closed-loop operation.

    ``call`` does the work that is timed; ``output`` turns its return value
    into the bytes every pass must reproduce; ``check`` compares the
    warm-up result against computations made apart from pathint and
    returns a list of problems.
    """

    name: str
    call: Callable[[], Any]
    output: Callable[[Any], bytes]
    check: Callable[[Any], list[str]]


def _pauli_doc(labels: list[str], coeffs: list[float]) -> dict[str, Any]:
    return {
        "n": len(labels[0]),
        "terms": [{"pauli": p, "coeff": c} for p, c in zip(labels, coeffs)],
    }


class _Builder:
    def __init__(self, seed: int, out_dir: Path):
        self.rng = random.Random(seed)
        self.seed = seed
        self.out_dir = out_dir
        self.ops: list[Op] = []

    def uniform(self, lo: float, hi: float) -> float:
        return round(self.rng.uniform(lo, hi), 6)

    def near(self, value: float) -> float:
        """value moved by at most 1e-4 relative: distinct inputs per seed,
        yet too little to change how many refinements a reference
        propagator needs to converge."""
        return round(value * (1.0 + self.rng.uniform(-1e-4, 1e-4)), 9)

    def cli_op(self, kind: str, params: dict[str, Any], check: Callable[[bytes], list[str]]) -> None:
        from pathint import cli

        index = len(self.ops)
        out = self.out_dir / f"op{index:02d}-{kind}.csv"
        spec = cli.spec_from_dict(
            {"kind": kind, "params": params, "seed": self.seed, "output": str(out)}
        )
        label = f"{index:02d}:{kind}:" + json.dumps(params, sort_keys=True)[:80]
        self.ops.append(
            Op(
                name=label,
                call=lambda: cli.run(spec),
                output=lambda _value: out.read_bytes(),
                check=lambda _value: check(out.read_bytes()),
            )
        )


# ---------------------------------------------------------------------------
# short-time workloads: short-sim through pathint.cli.run

# (labels, k, bits): every register here is at most 2^17 amplitudes, so
# AmplifiedStep.amplified("auto") runs the applied reflections.
_SHORT_SMALL = (
    (["Z", "X"], 2, 9),
    (["Z", "X"], 1, 10),
    (["ZZ", "ZX"], 0, 9),
    (["ZZ", "ZX"], 1, 8),
    (["ZZ", "ZX"], 2, 7),
    (["ZZ", "XX", "YZ"], 0, 3),
    (["ZZ", "XX", "YZ"], 1, 3),
)

# 4-6 qubits, 3-4 terms, d = 4, B = 8: registers above 2^17 amplitudes,
# so the closed-form SVD amplification runs instead.
_SHORT_WIDE = (
    (["ZZZZ", "XIXI", "IYIY", "XXXX"], 2, 8),
    (["ZZII", "XXII", "IYZI", "IIXX"], 2, 8),
    (["ZZIII", "XXIII", "IIYZI"], 2, 8),
    (["ZIZII", "XXIII", "IIYYI"], 2, 8),
    (["ZZIII", "XXIII", "IIYZI", "IIIXX"], 1, 8),
    (["ZZIIII", "XXIIII", "IIYZII"], 1, 8),
    (["ZIZIII", "XXIIII", "IIYYII"], 1, 8),
    (["ZZIIII", "XXIIII", "IIYZII", "IIIIXX"], 0, 8),
    (["ZZIIII", "XXIIII", "IIYZII", "IIIIXX"], 1, 8),
)


def _short(b: _Builder, table) -> None:
    for labels, k, bits in table:
        coeffs = [b.uniform(0.5, 1.0)] + [b.uniform(0.3, 0.7) for _ in labels[1:]]
        params = {
            "decomp": _pauli_doc(labels, coeffs),
            "k": k,
            "r": 2 + b.rng.randrange(3),
            "t": b.uniform(0.4, 0.8),
            "bits": bits,
        }
        b.cli_op("short-sim", params, references.short_sim_checker(labels, coeffs, params))


# ---------------------------------------------------------------------------
# slow-sweep: long-sim T sweeps plus PropagatorEncoding block checks


def _slow_sweep(b: _Builder) -> None:
    from pathint import long_time

    # The converged reference propagators of long-sim refine until two
    # estimates agree, so their work jumps with the coefficients; the seed
    # therefore moves coefficients only slightly around fixed values.
    sine_a, sine_b = b.near(1.0), b.near(0.3)
    lin_a, lin_b = b.near(1.0), b.near(0.2)
    gen1 = _pauli_doc(["Z"], [b.near(0.02)])
    coup1 = _pauli_doc(["Z", "X"], [1.0, b.near(0.45)])
    gen2 = _pauli_doc(["ZI"], [b.near(0.02)])
    coup2 = _pauli_doc(["ZI", "IZ", "XX"], [1.0, 0.5, b.near(0.3)])

    def long_sim(system: Any, sweep: list[float], r: int | None) -> None:
        params: dict[str, Any] = {"system": system, "T_sweep": sweep}
        if r is not None:
            params["r"] = r
        b.cli_op("long-sim", params, references.long_sim_checker(system, r))

    def frame(gen: dict, coup: dict) -> dict[str, Any]:
        return {"family": "interaction-frame", "generator": gen, "coupling": coup, "grid": 64}

    def encoding(label: str, ham: Any, bits: range) -> None:
        # one operation checks the encoding at every precision in `bits`
        index = len(b.ops)

        def call():
            encs = [long_time.PropagatorEncoding(ham, 40.0, 8, B) for B in bits]
            return [(enc, enc.block()) for enc in encs]

        b.ops.append(
            Op(
                name=f"{index:02d}:encoding:{label}:bits={bits.start}-{bits.stop - 1}",
                call=call,
                output=lambda value: b"".join(block.tobytes() for _, block in value),
                check=lambda value: [p for pair in value for p in references.encoding_check(pair)],
            )
        )

    sweep = [20.0, 30.0, 40.0, 60.0, 80.0]
    long_sim(f"sweep:sine:{sine_a},{sine_b}", sweep, None)
    long_sim(f"sweep:linear:{lin_a},{lin_b}", sweep, 512)
    long_sim(frame(gen1, coup1), [30.0], 64)
    encoding("sine", long_time.two_level_sweep(sine_a, sine_b, shape="sine"), range(8, 13))
    encoding("linear", long_time.two_level_sweep(lin_a, lin_b, shape="linear"), range(8, 13))
    encoding("frame1q", frame_ham(gen1, coup1, 40.0), range(8, 13))
    encoding("frame2q", frame_ham(gen2, coup2, 40.0), range(8, 11))


def frame_ham(gen: dict, coup: dict, total_time: float):
    """The interaction-frame Hamiltonian that long-sim builds for this system."""
    from pathint import decomp, long_time

    a = decomp.decomposition_from_json(gen).total()
    c = decomp.decomposition_from_json(coup).total()
    return long_time.interaction_frame(a, c, total_time, grid=64)


# ---------------------------------------------------------------------------
# lattice-ring: lagrangian-sim trajectories

# (n, r, potential kind): long trajectories on mid-sized grids, where the
# per-step work dominates, and one large grid, where the dense split-step
# reference dominates.  Step counts put the long trajectories at about
# 1 s each, within 3x of the n = 10 grid.
_LATTICE = (
    (10, 24, "harmonic"),
    (9, 1100, "well"),
    (8, 3000, "harmonic"),
    (7, 6500, "well"),
)


def _lattice(b: _Builder) -> None:
    x_max, mass = 12.0, 1.0
    for n, r, kind in _LATTICE:
        if kind == "harmonic":
            potential = f"harmonic:{b.uniform(0.4, 0.6)},{b.uniform(5.5, 6.5)}"
        else:
            left = b.uniform(3.0, 4.0)
            potential = f"well:{b.uniform(1.5, 2.5)},{left},{left + b.uniform(3.0, 4.0)}"
        initial = f"gaussian:{b.uniform(4.5, 7.5)},{b.uniform(0.8, 1.2)},{b.uniform(-1.0, 1.0)}"
        params = {
            "n": n, "xmax": x_max, "mass": mass, "r": r,
            "potential": potential, "initial": initial,
        }
        b.cli_op("lagrangian-sim", params, references.lattice_checker(params))


BUILDERS = {
    "short-small": lambda b: _short(b, _SHORT_SMALL),
    "short-wide": lambda b: _short(b, _SHORT_WIDE),
    "slow-sweep": _slow_sweep,
    "lattice-ring": _lattice,
}


def build(workload: str, seed: int, out_dir: Path) -> list[Op]:
    """The workload's operation list for this seed, outputs under out_dir."""
    builder = _Builder(seed, out_dir)
    BUILDERS[workload](builder)
    return builder.ops
