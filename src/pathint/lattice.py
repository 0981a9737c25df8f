"""Lattice propagators driven by action-phase oracles and Fourier transforms.

A particle lives on ``2**n`` grid points spanning ``[0, x_max)``.  Position is
the diagonal operator ``X = diag(q * delta_x)`` and momentum is its Fourier
conjugate ``P = (2*pi/(x_max*delta_x)) * F X F^dag`` where ``F`` is the
positive-sign Fourier matrix.  The timestep is locked to the geometry,

    tau = mass * x_max * delta_x / (2*pi),

which turns the kinetic phase between neighbouring timeslices into the exact
quadratic phase ``pi*(dq)**2 / 2**n``.  One split step
``exp(-i*tau*P^2/2m) exp(-i*tau*V)`` then equals a doubly indexed phase sum
that a stepping circuit realizes with two queries to a diagonal action oracle
around one inverse Fourier transform.  The equality rests on quadratic
Gauss-sum reciprocity, exposed here as :func:`gauss_sum_check`.

Each step of the circuit differs from the split product by the unit phase
``exp(-i*pi/4) * exp(i*tau*V(0))``, tracked analytically rather than absorbed
into the oracle.

:func:`trajectory` is the one loop that applies the circuit step; every
caller, from ``lagrangian-sim`` to the dense propagator, drives it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .decomp import QueryCounter
from .errors import SpecError, require_cap
from .linalg import exp_unitary, fourier_matrix

NORM_TOL = 1e-9
CUTOFF_TOL = 1e-10


@dataclass(frozen=True)
class LatticeConfig:
    """Grid geometry plus the timestep bound to it.

    The timestep is not a free knob.  It is derived as
    ``tau = mass * x_max * delta_x / (2*pi)`` so the kinetic action phase is
    a pure quadratic Gauss phase, and total time is ``r * tau`` with integer
    ``r``.  Keeping the binding exact by construction is what lets the
    stepped circuit match the split product to near machine precision.
    """

    n: int
    x_max: float
    mass: float
    r: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise SpecError("grid exponent n must be at least 1")
        require_cap("dense_qubits", self.n, "grid exponent n")
        if not 0 < self.x_max < np.inf:
            raise SpecError("x_max must be positive and finite")
        if not 0 < self.mass < np.inf:
            raise SpecError("mass must be positive and finite")
        if not np.isfinite(self.tau):
            raise SpecError("timestep tau must be finite")
        # tau p^2 over the grid's momenta is 2 pi mass (2^n - 1)^2 / 2^n, but
        # its float factors can each leave range while it stays finite
        try:
            p_top = (2.0 * np.pi * (self.dim - 1) / self.x_max) ** 2
        except OverflowError:
            p_top = np.inf
        if not 0 < self.tau * p_top < np.inf:
            raise SpecError("grid geometry puts the kinetic phase tau p^2 past float range")
        if self.r < 1:
            raise SpecError("step count r must be a positive integer")

    @property
    def dim(self) -> int:
        return 2**self.n

    @property
    def delta_x(self) -> float:
        return self.x_max / self.dim

    @property
    def tau(self) -> float:
        return self.mass * self.x_max * self.delta_x / (2.0 * np.pi)

    @property
    def total_time(self) -> float:
        return self.r * self.tau

    def positions(self) -> np.ndarray:
        """Grid positions q * delta_x for q = 0 .. 2**n - 1."""
        return np.arange(self.dim) * self.delta_x

    def momenta(self) -> np.ndarray:
        """Momentum eigenvalue 2*pi*q/x_max of Fourier mode q."""
        return 2.0 * np.pi * np.arange(self.dim) / self.x_max


@dataclass(frozen=True)
class Potential:
    """Real potential with a declared magnitude bound.

    ``energy`` maps a position to a real energy; ``v_max`` is the promised
    bound on its magnitude over any grid this potential will be used with.
    """

    energy: Callable[[float], float]
    v_max: float

    def grid_values(self, cfg: LatticeConfig) -> np.ndarray:
        vals = np.array([float(self.energy(x)) for x in cfg.positions()])
        if not np.all(np.isfinite(vals)):
            raise SpecError("potential is not finite on the grid")
        slack = 1e-12 * max(1.0, self.v_max)
        if np.any(np.abs(vals) > self.v_max + slack):
            raise SpecError("potential exceeds its declared bound on the grid")
        return vals


def zero_potential() -> Potential:
    return Potential(energy=lambda x: 0.0, v_max=0.0)


def constant_potential(level: float) -> Potential:
    return Potential(energy=lambda x: float(level), v_max=abs(float(level)))


def harmonic_potential(mass: float, omega: float, center: float, x_max: float) -> Potential:
    """Harmonic well 0.5*mass*omega^2*(x - center)^2 on a grid inside [0, x_max)."""
    if mass <= 0 or omega <= 0:
        raise SpecError("harmonic potential needs positive mass and frequency")
    reach = max(abs(center), abs(x_max - center))
    try:
        bound = 0.5 * mass * omega**2 * reach**2
    except OverflowError:  # a float power past range
        bound = np.inf
    if bound == np.inf:
        raise SpecError("harmonic potential's bound is past float range")
    return Potential(energy=lambda x: 0.5 * mass * omega**2 * (x - center) ** 2, v_max=bound)


def square_well_potential(depth: float, left: float, right: float) -> Potential:
    """Finite square well of the given depth on [left, right)."""
    if not right > left:
        raise SpecError("square well needs right > left")

    def energy(x: float) -> float:
        return -float(depth) if left <= x < right else 0.0

    return Potential(energy=energy, v_max=abs(float(depth)))


def momentum_op(cfg: LatticeConfig) -> np.ndarray:
    """Momentum as the Fourier conjugate of position, F diag(momenta()) F^H.

    Eigenvectors are the Fourier columns, with eigenvalue ``momenta()[q]``
    on column q, so the grid is read from ``momenta()`` alone; shifting by
    delta_x is the cyclic permutation of the grid.
    """
    f = fourier_matrix(cfg.dim)
    return (f * cfg.momenta()) @ f.conj().T


def kinetic_op(cfg: LatticeConfig) -> np.ndarray:
    p = momentum_op(cfg)
    return p @ p / (2.0 * cfg.mass)


def split_step_reference(cfg: LatticeConfig, potential: Potential) -> np.ndarray:
    """One split step exp(-i*tau*P^2/2m) @ exp(-i*tau*V), dense.

    The test oracle for both halves of :func:`trajectory`: its kinetic factor
    is the dense exponential of ``kinetic_op``.
    """
    v = potential.grid_values(cfg)
    kin = exp_unitary(kinetic_op(cfg), cfg.tau)
    return kin @ np.diag(np.exp(-1j * cfg.tau * v))


def action_phase(
    cfg: LatticeConfig, values: np.ndarray, q_from: np.ndarray | int, q_to: np.ndarray | int
) -> np.ndarray:
    """Action phase exp(i*pi*(q_to - q_from)**2/2**n - i*tau*V(x_from)).

    ``values`` is ``Potential.grid_values(cfg)``; the grid indices broadcast
    against each other.  Under the timestep binding the kinetic coefficient
    mass/(2*tau) * delta_x**2 is exactly pi/2**n, so the phase is formed in
    that integer form.
    """
    dq = q_to - q_from
    return np.exp(1j * (np.pi * dq * dq / cfg.dim) - 1j * cfg.tau * values[q_from])


def step_global_phase(cfg: LatticeConfig, potential: Potential) -> complex:
    """Unit phase g with circuit_step * g == split step, per step."""
    v0 = float(potential.energy(0.0))
    return complex(np.exp(-1j * np.pi / 4) * np.exp(1j * cfg.tau * v0))


def require_normalized(cfg: LatticeConfig, state: np.ndarray, caller: str) -> np.ndarray:
    """The state as a complex grid vector; refuses a wrong length or norm."""
    state = np.asarray(state, dtype=complex)
    if state.shape != (cfg.dim,):
        raise SpecError("state has the wrong length for this grid")
    require_unit_norms(np.linalg.norm(state), caller)
    return state


def require_unit_norms(norms: np.ndarray | float, caller: str) -> None:
    """Refuse unless every norm is within NORM_TOL of one; a NaN never is."""
    if not np.all(np.abs(norms - 1.0) <= NORM_TOL):
        raise SpecError(f"{caller} expects a normalized state")


def trajectory(
    cfg: LatticeConfig,
    values: np.ndarray,
    state: np.ndarray,
    rows: int,
    counter: QueryCounter | None = None,
) -> Iterator[np.ndarray]:
    """Yield the circuit walk and its split-step reference from ``state``, in blocks.

    ``values`` is ``Potential.grid_values(cfg)``, and ``state`` is one grid
    vector or a stack of them along the last axis.  Each block is a fresh
    (k, 2) + state.shape array with k <= ``rows``: row j holds the pair
    (circuit state, reference state) after step start + j, for steps 0 .. r.

    A circuit step applies the action oracle against a zeroed second
    register, an inverse Fourier transform, and the oracle again with the
    zeroed register first.  Each step ticks two oracle queries and one
    transform on ``counter``, however many states are stacked: the oracle
    acts on superpositions.  The second query's potential is at x = 0, a
    global phase per step.  The reference is ``split_step_reference``
    without a dense matrix: its kinetic factor is diagonal in the Fourier
    basis (Feit, Fleck and Steiger, J. Comput. Phys. 47, 412 (1982)).  Both
    halves open with a phase vector and a forward transform, so a step is
    one stacked product and one stacked transform, then the circuit's
    second oracle phase and the reference's kinetic phase and inverse
    transform, each written into its row.  The phases are built once.
    """
    q = np.arange(cfg.dim)
    opening = np.stack([action_phase(cfg, values, q, 0), np.exp(-1j * cfg.tau * values)])
    opening = opening.reshape((2,) + (1,) * (state.ndim - 1) + (cfg.dim,))
    second = action_phase(cfg, values, 0, q)
    kinetic = np.exp(-1j * cfg.tau * cfg.momenta() ** 2 / (2.0 * cfg.mass))
    for start in range(0, cfg.r + 1, rows):
        block = np.empty((min(rows, cfg.r + 1 - start), 2) + state.shape, dtype=complex)
        for step, row in enumerate(block, start):
            if step == 0:
                row[...] = state
            else:
                np.multiply(opening, pair, out=row)
                np.fft.fft(row, axis=-1, norm="ortho", out=row)
                np.multiply(second, row[0], out=row[0])
                np.multiply(kinetic, row[1], out=row[1])
                np.fft.ifft(row[1], axis=-1, norm="ortho", out=row[1])
                if counter is not None:
                    counter.tick("action", 2)
                    counter.tick("qft")
            pair = row
        yield block


def _last(blocks: Iterator[np.ndarray]) -> np.ndarray:
    """The final block of a walk."""
    for block in blocks:
        pass
    return block


def lagrangian_step(
    cfg: LatticeConfig,
    potential: Potential,
    state: np.ndarray,
    counter: QueryCounter | None = None,
) -> np.ndarray:
    """Advance a normalized grid state by one circuit step."""
    state = require_normalized(cfg, state, "lagrangian_step")
    # the first block of two rows holds steps 0 and 1; no later step is taken
    return next(trajectory(cfg, potential.grid_values(cfg), state, 2, counter))[1, 0]


def lagrangian_propagator(
    cfg: LatticeConfig,
    potential: Potential,
    counter: QueryCounter | None = None,
) -> np.ndarray:
    """Dense matrix of r composed circuit steps: the walk of every basis state.

    Multiplying by ``step_global_phase(cfg, potential) ** r`` recovers the
    split product ``(exp(-i*tau*P^2/2m) exp(-i*tau*V))**r`` exactly.  Query
    accounting is per step, not per basis state.
    """
    require_cap("step_work", cfg.r * cfg.dim, "propagator work r * 2^n")
    basis = np.eye(cfg.dim, dtype=complex)  # row c is basis state c
    walk = trajectory(cfg, potential.grid_values(cfg), basis, 1, counter)
    return _last(walk)[0, 0].T


def brute_force_propagator(cfg: LatticeConfig, potential: Potential) -> np.ndarray:
    """Propagator by literal summation over all interior lattice paths.

    Enumerates every path (q_0, q_1, ..., q_r) with fixed endpoints,
    multiplies the per-transition phases of :func:`action_phase` along it, and
    accumulates with the prefactor (exp(-i*pi/4)/sqrt(2^n))**r.  The result
    equals the split product with no extra phase.  Only feasible while the interior
    path count 2^(n(r-1)) stays within the ``brute_force_paths`` cap.
    """
    # the count is formed only up to 2^64, far past the cap, so a refusal
    # costs the same at any r (require_cap shows it as 2^64+)
    require_cap("brute_force_paths", 1 << min(cfg.n * (cfg.r - 1), 64), "interior path count")
    dim = cfg.dim
    q = np.arange(dim)
    trans = action_phase(cfg, potential.grid_values(cfg), q[:, None], q[None, :])
    prefactor = (np.exp(-1j * np.pi / 4) / math.sqrt(dim)) ** cfg.r
    out = np.zeros((dim, dim), dtype=complex)
    for q_start in range(dim):
        for q_end in range(dim):
            total = 0.0 + 0.0j
            for interior in itertools.product(range(dim), repeat=cfg.r - 1):
                chain = (q_start, *interior, q_end)
                amp = 1.0 + 0.0j
                for k in range(cfg.r):
                    amp *= trans[chain[k], chain[k + 1]]
                total += amp
            out[q_end, q_start] = total
    return prefactor * out


def gauss_sum_check(a: int, b: int, c: int) -> tuple[complex, complex]:
    """Both sides of quadratic Gauss-sum reciprocity.

    lhs = sum_{j=0}^{|c|-1} exp(i*pi*(a*j^2 + b*j)/c)
    rhs = |c/a|^(1/2) * exp(i*pi/4*(sgn(a*c) - b^2/(a*c)))
          * sum_{j=0}^{|a|-1} exp(-i*pi*(c*j^2 + b*j)/a)

    Requires a*c nonzero and a*c + b even, and |a|, |c| within the
    ``gauss_terms`` cap.
    """
    a, b, c = int(a), int(b), int(c)
    require_cap("gauss_terms", max(abs(a), abs(c)), "Gauss sum terms")
    if a * c == 0:
        raise SpecError("gauss_sum_check needs a*c nonzero")
    if (a * c + b) % 2 != 0:
        raise SpecError("gauss_sum_check needs a*c + b even")
    j = np.arange(abs(c), dtype=float)
    lhs = np.sum(np.exp(1j * np.pi * (a * j * j + b * j) / c))
    k = np.arange(abs(a), dtype=float)
    tail = np.sum(np.exp(-1j * np.pi * (c * k * k + b * k) / a))
    front = math.sqrt(abs(c / a)) * np.exp(
        1j * (np.pi / 4) * (np.sign(a * c) - b * b / (a * c))
    )
    return complex(lhs), complex(front * tail)


def gaussian_packet(
    cfg: LatticeConfig, center: float, width: float, momentum: float
) -> np.ndarray:
    """Normalized Gaussian on the grid with a momentum boost."""
    if width <= 0:
        raise SpecError("gaussian packet needs positive width")
    try:
        spread = 4.0 * width**2
    except OverflowError:
        raise SpecError("gaussian packet width is past float range") from None
    x = cfg.positions()
    with np.errstate(all="ignore"):  # a centre past float range does not normalize
        psi = np.exp(-((x - center) ** 2) / spread + 1j * momentum * x)
    norm = np.linalg.norm(psi)
    if not 0.0 < norm < np.inf:
        raise SpecError("gaussian packet does not normalize on the grid")
    return psi / norm


def momentum_mode_mask(cfg: LatticeConfig, p_max: float) -> np.ndarray:
    """Boolean mask over Fourier modes with eigenvalue at most p_max."""
    return cfg.momenta() <= p_max


def feasible_error_bound(
    total_time: float, r: int, mass: float, v_max: float, p_max: float, x_max: float
) -> float:
    """Measurement-error bound for split stepping under a momentum cutoff.

    Equals r * (2*tau^2*v_max*p_max^2/mass) * sqrt(p_max*x_max/(2*pi) + 1)
    with tau = total_time / r; written in terms of total_time to make the
    1/r scaling at fixed time explicit.
    """
    return (
        2.0
        * total_time**2
        * v_max
        * p_max**2
        / (mass * r)
        * math.sqrt(p_max * x_max / (2.0 * np.pi) + 1.0)
    )


def feasible_error_check(
    cfg: LatticeConfig,
    potential: Potential,
    p_max: float,
    psi: np.ndarray,
    counter: QueryCounter | None = None,
) -> tuple[float, float]:
    """Measured POVM discrepancy of stepped vs exact evolution, with its bound.

    The POVM family is fixed: every rank-1 position projector and every
    rank-1 Fourier-mode projector, 2*2^n outcomes in total.  The input must
    be normalized and supported on Fourier modes with momentum at most
    p_max; support is projector-enforced with tolerance 1e-10.
    """
    psi = require_normalized(cfg, psi, "feasible_error_check")
    if p_max <= 0:
        raise SpecError("momentum cutoff must be positive")
    keep = momentum_mode_mask(cfg, p_max)
    modes = np.fft.fft(psi, norm="ortho")
    leak = float(np.linalg.norm(modes[~keep]))
    if leak > CUTOFF_TOL:
        raise SpecError("state leaks past the declared momentum cutoff")

    v = potential.grid_values(cfg)
    ham = kinetic_op(cfg) + np.diag(v)
    exact = exp_unitary(ham, cfg.total_time) @ psi

    stepped = _last(trajectory(cfg, v, psi, 1, counter))[0, 0]

    pos_gap = np.max(np.abs(np.abs(exact) ** 2 - np.abs(stepped) ** 2))
    exact_modes = np.fft.fft(exact, norm="ortho")
    stepped_modes = np.fft.fft(stepped, norm="ortho")
    mom_gap = np.max(np.abs(np.abs(exact_modes) ** 2 - np.abs(stepped_modes) ** 2))
    measured = float(max(pos_gap, mom_gap))
    bound = feasible_error_bound(
        cfg.total_time, cfg.r, cfg.mass, potential.v_max, p_max, cfg.x_max
    )
    return measured, bound
