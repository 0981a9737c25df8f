"""Output checks against computations made apart from pathint.

Each ``*_checker`` captures an operation's inputs and returns a function
that takes the operation's output and returns a list of problems (empty
when the output is correct).  The references are built only when that
function runs, which the benchmark does once, on the warm-up pass, outside
both the set-up time and the timed loop.  scipy is imported here and
nowhere else, so it never counts towards set-up time.
"""

from __future__ import annotations

import csv
import io
import math
from typing import Any, Callable

import numpy as np

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# schedule length per step, in units of the term count L, for k = 0, 1, 2
_FACTORS_PER_TERM = {0: 1, 1: 2, 2: 10}


def _rows(data: bytes) -> tuple[list[str], list[list[float]]]:
    reader = csv.reader(io.StringIO(data.decode()))
    header = next(reader)
    return header, [[float(v) for v in row] for row in reader]


def _pauli(label: str, coeff: float) -> np.ndarray:
    mat = np.array([[coeff]], dtype=complex)
    for letter in label:
        mat = np.kron(mat, _PAULI[letter])
    return mat


def _norm2(a: np.ndarray) -> float:
    return float(np.linalg.norm(a, 2))


# ---------------------------------------------------------------------------
# short-sim


def _suzuki_step(L: int, k: int) -> list[tuple[int, float]]:
    """(term, weight) factors of one product-formula step, first applied first."""
    if k == 0:
        return [(j, 1.0) for j in range(L)]
    if k == 1:
        return [(j, 0.5) for j in reversed(range(L))] + [(j, 0.5) for j in range(L)]
    s = 1.0 / (4.0 - 4.0 ** (1.0 / (k + 1)))
    inner = _suzuki_step(L, k - 1)
    return [
        (j, w * scale) for scale in (s, s, 1.0 - 4.0 * s, s, s) for j, w in inner
    ]


def short_sim_checker(
    labels: list[str], coeffs: list[float], params: dict[str, Any]
) -> Callable[[bytes], list[str]]:
    """Measured error against a scipy expm product formula.

    Requires |measured_error - Trotter error| <= M d^2 / 2^B, with M the
    schedule length L r, 2 L r or 10 L r, and measured_error <= bound.
    """

    def check(data: bytes) -> list[str]:
        from scipy.linalg import expm

        k, r, t, bits = params["k"], params["r"], params["t"], params["bits"]
        header, rows = _rows(data)
        if header[:7] != ["k", "r", "B", "d", "M", "measured_error", "bound"] or len(rows) != 1:
            return [f"unexpected short-sim table {header} with {len(rows)} rows"]
        row = dict(zip(header, rows[0]))
        terms = [_pauli(p, c) for p, c in zip(labels, coeffs)]
        L = len(terms)
        M = L * r * _FACTORS_PER_TERM[k]
        problems = []
        if (row["k"], row["r"], row["B"], row["M"]) != (k, r, bits, M):
            problems.append(f"row k,r,B,M {row} does not match k={k} r={r} B={bits} M={M}")
        dt = t / r
        factors = {(j, w): expm(-1j * w * dt * terms[j]) for j, w in set(_suzuki_step(L, k))}
        product = np.eye(terms[0].shape[0], dtype=complex)
        for key in _suzuki_step(L, k) * r:
            product = factors[key] @ product
        trotter = _norm2(expm(-1j * t * sum(terms)) - product)
        d = row["d"]
        slack = M * d * d / 2.0**bits
        gap = abs(row["measured_error"] - trotter)
        if not 1 <= d <= terms[0].shape[0]:
            problems.append(f"sparsity d={d} outside [1, dim]")
        if gap > slack:
            problems.append(f"|measured - trotter| = {gap:.3e} > M d^2/2^B = {slack:.3e}")
        if row["measured_error"] > row["bound"]:
            problems.append(f"measured {row['measured_error']:.3e} > bound {row['bound']:.3e}")
        return problems

    return check


# ---------------------------------------------------------------------------
# long-sim and the propagator encoding


def _sweep_h(shape: str, a: float, b: float) -> Callable[[float], np.ndarray]:
    drive = {"linear": lambda s: s, "sine": lambda s: math.sin(math.pi * s)}[shape]
    z, x = _PAULI["Z"], _PAULI["X"]
    return lambda s: a * z + b * drive(s) * x


def _frame_h(system: dict, total_time: float) -> Callable[[float], np.ndarray]:
    """e^{i A s T} B e^{-i A s T} for a diagonal Pauli generator A."""
    gen = sum(_pauli(t["pauli"], t["coeff"]) for t in system["generator"]["terms"])
    coup = sum(_pauli(t["pauli"], t["coeff"]) for t in system["coupling"]["terms"])
    if np.count_nonzero(gen - np.diag(np.diag(gen))):
        raise ValueError("frame references need a diagonal generator")
    diag = np.real(np.diag(gen))

    def h(s: float) -> np.ndarray:
        rot = np.exp(1j * diag * s * total_time)
        return rot[:, None] * coup * rot.conj()[None, :]

    return h


def _ode_propagator(h: Callable[[float], np.ndarray], total_time: float) -> np.ndarray:
    """U(1) for dU/ds = -i T h(s) U, U(0) = 1, by DOP853."""
    from scipy.integrate import solve_ivp

    dim = h(0.0).shape[0]

    def rhs(s: float, y: np.ndarray) -> np.ndarray:
        return (-1j * total_time * (h(s) @ y.reshape(dim, dim))).reshape(-1)

    sol = solve_ivp(
        rhs, (0.0, 1.0), np.eye(dim, dtype=complex).reshape(-1),
        method="DOP853", rtol=1e-13, atol=1e-13,
    )
    if not sol.success:
        raise RuntimeError(f"reference ODE solve failed: {sol.message}")
    return sol.y[:, -1].reshape(dim, dim)


def long_sim_checker(system: Any, r: int | None) -> Callable[[bytes], list[str]]:
    """Each row's measured_error against a DOP853 reference, to 1e-8.

    The reference propagator replaces pathint's converged midpoint rule;
    the truncated propagator it is compared with is pathint's own.
    """

    def check(data: bytes) -> list[str]:
        from pathint import long_time
        from workloads import frame_ham

        header, rows = _rows(data)
        if header != ["T", "r", "measured_error", "truncation_bound"]:
            return [f"unexpected long-sim header {header}"]
        problems = []
        for total_time, _, measured, _ in rows:
            if isinstance(system, str):
                _, shape, coeffs = system.split(":")
                a, b = (float(v) for v in coeffs.split(","))
                ham = long_time.two_level_sweep(a, b, shape=shape)
                h = _sweep_h(shape, a, b)
            else:
                ham = frame_ham(system["generator"], system["coupling"], total_time)
                h = _frame_h(system, total_time)
            exact = _ode_propagator(h, total_time)
            truncated = long_time.truncated_propagator(ham, total_time, r)
            gap = abs(_norm2(exact - truncated) - measured)
            if gap > 1e-8:
                problems.append(f"T={total_time}: measured_error off the ODE reference by {gap:.3e}")
        return problems

    return check


def encoding_check(value: tuple[Any, np.ndarray]) -> list[str]:
    """block * subnormalization equals rounded_target to 1e-9 and lies
    within 6 (r+3) d^2 2^-B of exact_target."""
    enc, block = value
    scaled = block * enc.subnormalization
    problems = []
    off = _norm2(scaled - enc.rounded_target())
    if off > 1e-9:
        problems.append(f"encoded block off rounded_target by {off:.3e}")
    slack = 6.0 * (enc.r + 3) * enc.d**2 / 2.0**enc.bits
    off = _norm2(scaled - enc.exact_target())
    if off > slack:
        problems.append(f"encoded block off exact_target by {off:.3e} > {slack:.3e}")
    return problems


# ---------------------------------------------------------------------------
# lagrangian-sim


def _potential(spec: str, mass: float) -> Callable[[np.ndarray], np.ndarray]:
    name, _, rest = spec.partition(":")
    args = [float(v) for v in rest.split(",")]
    if name == "harmonic":
        omega, center = args
        return lambda x: 0.5 * mass * omega**2 * (x - center) ** 2
    if name == "well":
        depth, left, right = args
        return lambda x: np.where((x >= left) & (x < right), -depth, 0.0)
    raise ValueError(f"no reference for potential {spec!r}")


def lattice_checker(params: dict[str, Any]) -> Callable[[bytes], list[str]]:
    """Trajectory against an FFT split-step with a diagonal kinetic phase.

    Position and momentum means must match to 1e-8 at every step, norms
    must be within 1e-9 of one and the fidelity column at least 1 - 1e-9.
    """

    def check(data: bytes) -> list[str]:
        n, x_max, mass, r = params["n"], params["xmax"], params["mass"], params["r"]
        dim = 2**n
        dx = x_max / dim
        tau = mass * x_max * dx / (2.0 * np.pi)
        x = np.arange(dim) * dx
        p = 2.0 * np.pi * np.arange(dim) / x_max
        x0, sigma, k0 = (float(v) for v in params["initial"].split(":")[1].split(","))
        psi = np.exp(-((x - x0) ** 2) / (4.0 * sigma**2) + 1j * k0 * x)
        psi /= np.linalg.norm(psi)
        potential_phase = np.exp(-1j * tau * _potential(params["potential"], mass)(x))
        kinetic_phase = np.exp(-1j * tau * p**2 / (2.0 * mass))
        header, rows = _rows(data)
        if header != ["step", "norm", "fidelity", "position_mean", "momentum_mean"]:
            return [f"unexpected lagrangian-sim header {header}"]
        if len(rows) != r + 1:
            return [f"{len(rows)} rows for {r} steps"]
        problems = []
        for step, norm, fidelity, pos, mom in rows:
            if step > 0:
                psi = np.fft.ifft(
                    kinetic_phase * np.fft.fft(potential_phase * psi, norm="ortho"),
                    norm="ortho",
                )
            ref_pos = float(np.abs(psi) ** 2 @ x)
            ref_mom = float(np.abs(np.fft.fft(psi, norm="ortho")) ** 2 @ p)
            if abs(pos - ref_pos) > 1e-8 or abs(mom - ref_mom) > 1e-8:
                problems.append(
                    f"step {int(step)}: means ({pos}, {mom}) vs reference ({ref_pos}, {ref_mom})"
                )
            if abs(norm - 1.0) > 1e-9 or fidelity < 1.0 - 1e-9:
                problems.append(f"step {int(step)}: norm {norm}, fidelity {fidelity}")
            if len(problems) > 5:
                break
        return problems

    return check
