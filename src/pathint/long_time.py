"""Long-horizon propagators for slowly driven Hamiltonians.

A Hamiltonian h(s) swept over s in [0, 1] and run for a total time T keeps
states pinned near the instantaneous eigenvectors once T is large.  Tracking
the eigenpairs smoothly in s and fixing their phases by discrete parallel
transport reduces the evolution to level-to-level transitions governed by

    rate[j, k](s) = <chi_j(s)| dh(s) |chi_k(s)> / (lambda_j(s) - lambda_k(s)),

and each completed transition costs a factor of 1/T after the rapidly
winding relative phase is integrated by parts.  Truncating at two
transitions leaves three pieces, all discretized with the trapezoid rule on
a uniform grid:

* stay on the level: a pure phase exp(-i theta_j) from the accumulated
  eigenvalue integral;
* switch once: boundary terms of the winding-phase integral, supported at
  s = 0 and s = 1 only;
* switch and return: a diagonal correction from the non-oscillatory part of
  the nested double integral.

The boundary term that originates at s = 1 carries the accumulated phase of
the departed level, and the s = 0 term carries that of the arrival level;
the two-transition correction inherits the 1/(i T gamma) factor from the
inner integration by parts.  Both choices are forced by matching the exact
propagator to second order in 1/T, and the error experiments downstream
confirm the resulting quadratic decay.

The same three pieces admit a signed-permutation linear-combination
encoding in the style of the short-time module: one prepared branch per
transition count, uniform superpositions over the time-step and color
registers, and the alternating-sign replica trick carrying the rounded
transition magnitudes.  Interior one-transition branches carry magnitude
zero, so they cancel in the replica sum and only the boundary terms
survive, mirroring the analytic structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Callable

import numpy as np

from . import lcu
from .decomp import QueryCounter, round_to_bits
from .errors import InvariantViolation, SpecError
from .linalg import (
    check_hermitian,
    converged_propagator,
    hermitian_eig,
    spectral_norm,
)

# Ten times the eigensolver degeneracy tolerance; spectra must clear this.
GAP_FLOOR = 1e-8
# Relative threshold below which a transition rate counts as structurally zero.
RATE_PRUNE = 1e-9
DERIV_CHECK_STEP = 1e-4
DERIV_CHECK_TOL = 1e-4
_VALIDATION_SEED = 1719

# Oracle applications charged per select stage: three color lookups, three
# index lookups, magnitude and comparator queries for both transition
# branches, and one phase query per phase kind.
LONGTIME_SELECT_BUDGET = {
    "color": 3,
    "index": 3,
    "eta_magnitude": 2,
    "zeta_magnitude": 2,
    "compare": 2,
    "eigenphase": 1,
    "eta_phase": 1,
    "zeta_phase": 1,
    "gap_phase": 1,
}


@dataclass
class TimeDependentHamiltonian:
    """A smooth drive h(s) on s in [0, 1] with its analytic derivative.

    The derivative is required, not estimated: every transition rate divides
    derivative matrix elements by spectral gaps, and finite-difference noise
    would pollute the 1/T^2 fits this module exists to measure.  A
    finite-difference pass is still run at construction as a cross-check on
    the caller's algebra, and the sampled spectrum must stay non-degenerate.
    """

    dim: int
    h: Callable[[float], np.ndarray]
    dh: Callable[[float], np.ndarray]
    grid: int = 64

    def __post_init__(self) -> None:
        if self.dim < 2:
            raise SpecError("a driven system needs at least two levels")
        if self.grid < 1:
            raise SpecError("grid must be a positive sample count")
        pts = np.linspace(0.0, 1.0, self.grid + 1)
        hams = np.empty((self.grid + 1, self.dim, self.dim), dtype=complex)
        for i, s in enumerate(pts):
            mat = check_hermitian(self.h(float(s)))
            if mat.shape != (self.dim, self.dim):
                raise SpecError(
                    f"h(s) returned shape {mat.shape}, expected {(self.dim, self.dim)}"
                )
            hams[i] = mat
        values = np.linalg.eigvalsh(hams)
        scale = max(1.0, float(np.max(np.abs(values))))
        gap_min = float(np.min(np.diff(values, axis=1)))
        if gap_min <= GAP_FLOOR * scale:
            raise SpecError(
                f"spectral gap {gap_min:.3e} is below the tolerance floor; "
                "the transition-rate picture needs a non-degenerate sweep"
            )
        rng = np.random.default_rng(_VALIDATION_SEED)
        step = DERIV_CHECK_STEP
        for s in rng.uniform(step, 1.0 - step, size=5):
            claimed = np.asarray(self.dh(s))
            # Richardson-extrapolated central difference, so fast drives with
            # large higher derivatives are not rejected spuriously
            coarse = (np.asarray(self.h(s + step)) - np.asarray(self.h(s - step))) / (
                2.0 * step
            )
            half = step / 2.0
            fine = (np.asarray(self.h(s + half)) - np.asarray(self.h(s - half))) / (
                2.0 * half
            )
            fd = (4.0 * fine - coarse) / 3.0
            defect = float(np.max(np.abs(fd - claimed)))
            scale = max(1.0, float(np.max(np.abs(claimed))))
            if defect > DERIV_CHECK_TOL * scale:
                raise SpecError(
                    f"analytic derivative disagrees with finite differences "
                    f"(defect {defect:.3e} at s={s:.4f})"
                )

    @cached_property
    def bounds(self) -> AdiabaticBounds:
        """The sweep's derivative-norm bounds, computed on first use."""
        return adiabatic_bounds(self)


_SWEEP_SHAPES: dict[str, tuple[Callable[[float], float], Callable[[float], float]]] = {
    "linear": (lambda s: s, lambda s: 1.0),
    "sine": (lambda s: math.sin(math.pi * s), lambda s: math.pi * math.cos(math.pi * s)),
}


def two_level_sweep(
    a: float, b: float, shape: str = "sine", grid: int = 256
) -> TimeDependentHamiltonian:
    """The workhorse 2-level family: a fixed splitting with a swept drive.

    h(s) = a * diag(1, -1) + b * f(s) * offdiag, with f either the identity
    ramp or a half-period sine.  The gap never closes as long as a != 0.
    """
    if shape not in _SWEEP_SHAPES:
        raise SpecError(f"unknown sweep shape {shape!r}; use one of {sorted(_SWEEP_SHAPES)}")
    f, fdot = _SWEEP_SHAPES[shape]
    sz = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

    def h(s: float) -> np.ndarray:
        return a * sz + b * f(s) * sx

    def dh(s: float) -> np.ndarray:
        return b * fdot(s) * sx

    return TimeDependentHamiltonian(dim=2, h=h, dh=dh, grid=grid)


def interaction_frame(
    a: np.ndarray, bop: np.ndarray, total_time: float, grid: int = 64
) -> TimeDependentHamiltonian:
    """Rotate a static coupling into the frame generated by another term.

    h(s) = e^{i a s T} bop e^{-i a s T}; the instantaneous spectrum is the
    spectrum of bop at every s, so the sweep is gapped iff bop is.  The
    derivative is the conjugated commutator i T [a, bop], supplied
    analytically.
    """
    a = check_hermitian(a)
    bop = check_hermitian(bop)
    if a.shape != bop.shape:
        raise SpecError("frame generator and coupling must share a dimension")
    bvals = np.linalg.eigvalsh(bop)
    scale = max(1.0, float(np.max(np.abs(bvals))))
    if float(np.min(np.diff(bvals))) <= GAP_FLOOR * scale:
        raise SpecError("coupling operator is degenerate; the rotated sweep has no gap")
    comm = a @ bop - bop @ a
    frame = hermitian_eig(a)

    def rot(s: float) -> np.ndarray:  # exp_unitary(a, -s T), one eigensystem for every s
        phases = np.exp(-1j * frame.values * (-s * total_time))
        return (frame.vectors * phases) @ frame.vectors.conj().T

    def h(s: float) -> np.ndarray:
        u = rot(s)
        return u @ bop @ u.conj().T

    def dh(s: float) -> np.ndarray:
        u = rot(s)
        return 1j * total_time * (u @ comm @ u.conj().T)

    return TimeDependentHamiltonian(dim=a.shape[0], h=h, dh=dh, grid=grid)


# ---------------------------------------------------------------------------
# smooth eigensystems and transition rates


@dataclass(frozen=True)
class SmoothEigensystem:
    """Eigenvalue curves and transported eigenvector frames on a grid.

    Column j of vectors[i] is curve j at s_grid[i].  Curves are matched
    between neighboring grid points by overlap, never re-sorted, and each
    step's phase is fixed so the same-curve overlap is real positive.
    """

    s_grid: np.ndarray
    values: np.ndarray
    vectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @property
    def gap_min(self) -> float:
        """Smallest distance between two curves at any grid point."""
        pair_gaps = np.abs(self.values[:, :, None] - self.values[:, None, :])
        big = 10.0 * max(1.0, float(np.max(np.abs(self.values))))
        return float(np.min(pair_gaps + np.eye(self.dim)[None] * big))

    def step_overlaps(self) -> np.ndarray:
        """Same-curve overlaps <chi_j(s_i)|chi_j(s_{i+1})>, shape (steps, dim)."""
        return np.einsum(
            "iaj,iaj->ij", self.vectors[:-1].conj(), self.vectors[1:]
        )

    def diagonal_rate_defect(self) -> float:
        """Largest discrete diagonal transition rate left by the gauge.

        The transport gauge zeroes Im<chi_j|chi_j'> identically, so this is
        rounding noise; an unaligned gauge would show O(1) values here.
        """
        steps = np.diff(self.s_grid)
        imag = np.abs(np.imag(self.step_overlaps()))
        return float(np.max(imag / steps[:, None]))


def smooth_eigensystem(
    ham: TimeDependentHamiltonian, s_grid: np.ndarray | None = None
) -> SmoothEigensystem:
    """Track eigenpairs across the sweep with a parallel-transport gauge."""
    if s_grid is None:
        s_grid = np.linspace(0.0, 1.0, ham.grid + 1)
    s_grid = np.asarray(s_grid, dtype=float)
    if s_grid.ndim != 1 or len(s_grid) < 2:
        raise SpecError("need at least two grid points to transport a gauge")
    count, dim = len(s_grid), ham.dim
    hams = _sample(ham.h, s_grid)
    raw_vals, raw_vecs = np.linalg.eigh(hams)

    values = np.empty((count, dim))
    vectors = np.empty((count, dim, dim), dtype=complex)
    anchor = hermitian_eig(hams[0])
    values[0] = anchor.values
    vectors[0] = anchor.vectors
    for i in range(1, count):
        overlap = vectors[i - 1].conj().T @ raw_vecs[i]
        weight = np.abs(overlap) ** 2
        # Greedy global matching: largest overlaps claim their pairs first.
        order = np.argsort(-weight, axis=None)
        curve_of = np.full(dim, -1, dtype=int)
        used = np.zeros(dim, dtype=bool)
        matched = 0
        for flat in order:
            cj, nq = divmod(int(flat), dim)
            if curve_of[cj] >= 0 or used[nq]:
                continue
            curve_of[cj] = nq
            used[nq] = True
            matched += 1
            if matched == dim:
                break
        for cj in range(dim):
            nq = curve_of[cj]
            if weight[cj, nq] < 0.5:
                raise InvariantViolation(
                    "eigenvector tracking became ambiguous between grid points; "
                    "the gap may be collapsing, or the grid is too coarse"
                )
            o = overlap[cj, nq]
            vectors[i][:, cj] = raw_vecs[i][:, nq] * (np.conj(o) / abs(o))
            values[i, cj] = raw_vals[i, nq]

    eigsys = SmoothEigensystem(s_grid=s_grid, values=values, vectors=vectors)
    if eigsys.gap_min <= GAP_FLOOR * max(1.0, float(np.max(np.abs(values)))):
        raise InvariantViolation("spectral gap collapsed below tolerance mid-grid")
    return eigsys


def transition_rate(ham: TimeDependentHamiltonian, s: float, j: int, k: int) -> complex:
    """Single-point rate <chi_j|dh|chi_k>/(lambda_j - lambda_k).

    Levels are labeled ascending at the queried s, in the deterministic
    single-point gauge.  The diagonal is excluded: the transport gauge pins
    it to zero, so asking for it is a caller error rather than a value.
    """
    if j == k:
        raise SpecError(
            "the transport gauge pins the diagonal rate to zero; "
            "request off-diagonal indices"
        )
    eig = hermitian_eig(ham.h(float(s)))
    if not (0 <= j < ham.dim and 0 <= k < ham.dim):
        raise SpecError(f"level indices ({j}, {k}) out of range for dim {ham.dim}")
    gap = float(eig.values[j] - eig.values[k])
    scale = max(1.0, float(np.max(np.abs(eig.values))))
    if abs(gap) < GAP_FLOOR * scale:
        raise InvariantViolation(f"levels {j} and {k} are degenerate at s={s}")
    deriv = check_hermitian(ham.dh(float(s)))
    return complex(eig.vectors[:, j].conj() @ deriv @ eig.vectors[:, k] / gap)


def _sample(fn: Callable[[float], np.ndarray], s_grid: np.ndarray) -> np.ndarray:
    """fn(s) at every grid point, each checked Hermitian."""
    return np.stack([check_hermitian(fn(float(s))) for s in s_grid])


def _rate_matrices(eigsys: SmoothEigensystem, derivs: np.ndarray) -> np.ndarray:
    """Off-diagonal transition rates at every grid point, zero diagonal."""
    numer = np.einsum(
        "saj,sab,sbk->sjk", eigsys.vectors.conj(), derivs, eigsys.vectors, optimize=True
    )
    gaps = eigsys.values[:, :, None] - eigsys.values[:, None, :]
    diag = np.eye(eigsys.dim, dtype=bool)[None]
    gaps = np.where(diag, 1.0, gaps)
    return np.where(diag, 0.0, numer / gaps)


# ---------------------------------------------------------------------------
# derivative-norm bounds and transition-count bounds


@dataclass(frozen=True)
class AdiabaticBounds:
    """Sampled-maximum bounds that control the transition expansion.

    drive_ratio is the largest of the first three derivative norms over the
    minimum gap; max_curvature bounds the bending of any eigenvalue curve;
    jump_constant multiplies the p-transition path-sum bounds; max_drive is
    the bare first-derivative norm needed by the odd-order bounds.
    """

    gap_min: float
    drive_ratio: float
    max_curvature: float
    jump_constant: float
    max_drive: float

    def __post_init__(self) -> None:
        for name in ("gap_min", "drive_ratio", "max_curvature", "jump_constant", "max_drive"):
            if getattr(self, name) < 0:
                raise InvariantViolation(f"{name} must be nonnegative")


def adiabatic_bounds(ham: TimeDependentHamiltonian) -> AdiabaticBounds:
    """Estimate the derivative-norm bounds on a fixed 129-point grid.

    Higher derivatives of h come from central differences of the analytic
    dh, which keeps the noise floor at the level of the second difference
    of an exact quantity rather than of a doubly-differenced h.  Callers
    read ``ham.bounds``, which computes this once per Hamiltonian.
    """
    pts = np.linspace(0.0, 1.0, 129)
    eigsys = smooth_eigensystem(ham, pts)
    gap_min = eigsys.gap_min

    delta = 1e-3
    inner = np.clip(pts, delta, 1.0 - delta)
    m1 = 0.0
    m2 = 0.0
    m3 = 0.0
    for s_raw, s in zip(pts, inner):
        d_mid = np.asarray(ham.dh(float(s)))
        d_plus = np.asarray(ham.dh(float(s + delta)))
        d_minus = np.asarray(ham.dh(float(s - delta)))
        m1 = max(m1, spectral_norm(np.asarray(ham.dh(float(s_raw)))))
        m2 = max(m2, spectral_norm((d_plus - d_minus) / (2.0 * delta)))
        m3 = max(m3, spectral_norm((d_plus - 2.0 * d_mid + d_minus) / delta**2))
    steps = np.diff(pts)
    curv = (eigsys.values[2:] - 2.0 * eigsys.values[1:-1] + eigsys.values[:-2]) / (
        steps[0] ** 2
    )
    max_curvature = float(np.max(np.abs(curv))) if len(curv) else 0.0
    jump_constant = 6.0 * m1**3 / gap_min**3 + (m1 * m2 + 2.0 * m1**2) / gap_min**2
    return AdiabaticBounds(
        gap_min=gap_min,
        drive_ratio=max(m1, m2, m3) / gap_min,
        max_curvature=max_curvature,
        jump_constant=jump_constant,
        max_drive=m1,
    )


def jump_bounds(
    bounds: AdiabaticBounds, total_time: float, m: int
) -> tuple[float, float]:
    """Norm bounds for the 2m- and (2m+1)-transition path sums."""
    if m < 1:
        raise SpecError("transition order m must be at least 1")
    if total_time <= 0:
        raise SpecError("total time must be positive")
    if bounds.jump_constant == 0.0:
        return (0.0, 0.0)
    even = bounds.jump_constant**m / (
        math.factorial(m) * (bounds.gap_min * total_time) ** m
    )
    odd = even * bounds.jump_constant / (bounds.max_drive * total_time)
    return (float(even), float(odd))


# ---------------------------------------------------------------------------
# the truncated propagator


def _trapezoid_weights(r: int) -> np.ndarray:
    w = np.full(r + 1, 1.0 / r)
    w[0] = w[-1] = 0.5 / r
    return w


@dataclass(frozen=True)
class Truncation:
    """The two-transition truncation of one sweep on an r-panel grid.

    phase[j] = exp(-i theta_j) carries curve j's accumulated eigenvalue
    integral.  The one-transition boundary amplitudes eta_start and eta_end
    are indexed [to, from]; the s=0 term enters with +i, the s=1 term with
    -i.  The returning-path amplitudes zeta are indexed [step, stay, via],
    and correction is their unrounded sum over steps and via levels.
    """

    eigsys: SmoothEigensystem
    rates: np.ndarray
    phase: np.ndarray
    eta_start: np.ndarray
    eta_end: np.ndarray
    zeta: np.ndarray
    correction: np.ndarray

    def label(self, mag: Callable[[float], float] | None = None) -> np.ndarray:
        """Eigenframe matrix; entry [j1, j0] maps curve j0 at s=0 to j1 at s=1.

        The s=1 boundary term keeps the departed level's accumulated phase,
        the s=0 term the arrival level's; the returning paths correct the
        diagonal.  With ``mag`` every transition amplitude a enters as
        mag(|a|) a/|a|, the magnitudes an encoding realizes after rounding.
        """
        eta_start, eta_end, correction = self.eta_start, self.eta_end, self.correction
        if mag is not None:
            rescale = np.vectorize(lambda a: mag(abs(a)) * lcu.unit_phase(a), otypes=[complex])
            eta_start, eta_end = rescale(eta_start), rescale(eta_end)
            correction = rescale(self.zeta).sum(axis=(0, 2))
        out = np.diag(self.phase * (1.0 + correction)).astype(complex)
        out += eta_end * self.phase[None, :] + eta_start * self.phase[:, None]
        return out


def truncation(
    ham: TimeDependentHamiltonian, total_time: float, r: int | None = None
) -> Truncation:
    """Frames, rates and transition amplitudes on the trapezoid grid."""
    if r is None:
        r = ham.grid
    if r < 4:
        raise SpecError("the trapezoid grid needs at least 4 panels")
    s_grid = np.linspace(0.0, 1.0, r + 1)
    eigsys = smooth_eigensystem(ham, s_grid)
    rates = _rate_matrices(eigsys, _sample(ham.dh, s_grid))
    weights = _trapezoid_weights(r)
    diag = np.eye(ham.dim, dtype=bool)
    gaps = eigsys.values[:, :, None] - eigsys.values[:, None, :]
    gaps = np.where(diag[None], 1.0, gaps)
    loops = np.where(
        diag[None], 0.0, rates * np.swapaxes(rates, 1, 2) / np.swapaxes(gaps, 1, 2)
    )
    return Truncation(
        eigsys=eigsys,
        rates=rates,
        phase=np.exp(-1j * (total_time * (weights @ eigsys.values))),
        eta_start=np.where(diag, 0.0, 1j * rates[0] / (total_time * gaps[0])),
        eta_end=np.where(diag, 0.0, -1j * rates[-1] / (total_time * gaps[-1])),
        zeta=weights[:, None, None] * loops / (1j * total_time),
        correction=np.einsum("s,sjk->j", weights, loops) / (1j * total_time),
    )


def eigenframe_propagator(
    ham: TimeDependentHamiltonian, total_time: float, r: int | None = None
) -> tuple[np.ndarray, SmoothEigensystem]:
    """Label-space truncated propagator plus the frames that define it."""
    trunc = truncation(ham, total_time, r)
    return trunc.label(), trunc.eigsys


def truncated_propagator(
    ham: TimeDependentHamiltonian, total_time: float, r: int | None = None
) -> np.ndarray:
    """Two-transition truncated propagator in the computational basis."""
    label, eigsys = eigenframe_propagator(ham, total_time, r)
    return eigsys.vectors[-1] @ label @ eigsys.vectors[0].conj().T


def longtime_error(
    ham: TimeDependentHamiltonian, total_time: float, r: int | None = None
) -> float:
    """Spectral-norm distance from the converged reference propagator.

    Refuses to run where the truncation has no business converging: the
    expansion is controlled only once drive_ratio^4 / (gap^2 T^2) < 1/2.
    """
    bounds = ham.bounds
    control = bounds.drive_ratio**4 / (bounds.gap_min**2 * total_time**2)
    if control >= 0.5:
        raise SpecError(
            f"total time too short for the truncated expansion (control {control:.3g})"
        )
    reference = converged_propagator(ham.h, total_time, tol=1e-9)
    return spectral_norm(reference - truncated_propagator(ham, total_time, r))


def jump_term(
    ham: TimeDependentHamiltonian,
    total_time: float,
    jumps: int,
    panels: int = 2048,
) -> np.ndarray:
    """p-transition path sum by direct nested quadrature, in the eigenframe.

    Builds the winding kernel K[j,k](s) = rate[j,k](s) exp(i (theta_j -
    theta_k)(s)) and iterates cumulative trapezoid integrals, so the result
    is an independent evaluation of the terms the truncated propagator
    keeps (p <= 2) and drops (p >= 3).  The full propagator in this frame
    is diag(e^{-i theta(1)}) (1 + sum over p of these terms).
    """
    if jumps < 1:
        raise SpecError("transition count must be at least 1")
    if panels < 8:
        raise SpecError("nested quadrature needs a meaningful panel count")
    s_grid = np.linspace(0.0, 1.0, panels + 1)
    eigsys = smooth_eigensystem(ham, s_grid)
    rates = _rate_matrices(eigsys, _sample(ham.dh, s_grid))
    ds = 1.0 / panels
    theta = np.zeros_like(eigsys.values)
    theta[1:] = np.cumsum(
        (eigsys.values[1:] + eigsys.values[:-1]) * (0.5 * ds), axis=0
    ) * total_time
    wind = np.exp(1j * (theta[:, :, None] - theta[:, None, :]))
    kernel = rates * wind

    def cumulative(seq: np.ndarray) -> np.ndarray:
        out = np.zeros_like(seq)
        out[1:] = np.cumsum((seq[1:] + seq[:-1]) * (0.5 * ds), axis=0)
        return out

    inner = None
    for depth in range(1, jumps):
        inner = cumulative(kernel if inner is None else kernel @ inner)
    integrand = kernel if inner is None else kernel @ inner
    total = (integrand[0] + integrand[-1]) * 0.5 + integrand[1:-1].sum(axis=0)
    return total * ds


# ---------------------------------------------------------------------------
# signed-permutation encoding of the whole-evolution operator


def _dft(n: int) -> np.ndarray:
    grid = np.outer(np.arange(n), np.arange(n))
    return np.exp(-2j * np.pi * grid / n) / np.sqrt(n)


def _branch_unitary(first_column: np.ndarray) -> np.ndarray:
    """Any unitary whose first column is the given unit vector."""
    n = len(first_column)
    cols = [first_column.astype(complex)]
    for i in range(n):
        cand = np.zeros(n, dtype=complex)
        cand[i] = 1.0
        for prev in cols:
            cand = cand - prev * (prev.conj() @ cand)
        norm = np.linalg.norm(cand)
        if norm > 1e-10:
            cols.append(cand / norm)
        if len(cols) == n:
            break
    if len(cols) < n:
        raise InvariantViolation("failed to complete the branch unitary")
    return np.column_stack(cols)


def _apply_axis(arr: np.ndarray, mat: np.ndarray, axis: int) -> np.ndarray:
    moved = np.moveaxis(arr, axis, 0)
    out = np.tensordot(mat, moved, axes=(1, 0))
    return np.moveaxis(out, 0, axis)


class PropagatorEncoding:
    """Block encoding of the whole truncated evolution in one select pass.

    Register layout: (step, branch, replica, color1, color2, side, state).
    The branch register superposes the zero-, one- and two-transition
    pieces with amplitude weights 1/((r+1) d^2) : 1 : 1; steps, replicas
    and colors are uniform.  Each select cell is a signed permutation on
    the folded (side, state) register: the zero-transition branch applies
    the accumulated eigenphases outright, the one-transition branch routes
    color-class edges with boundary amplitudes (interior steps carry
    magnitude zero and cancel in the replica sum), and the two-transition
    branch applies returning-path corrections diagonally.  The projected
    block times the subnormalization 1 + 2 (r+1) d^2 reproduces the
    truncated eigenframe propagator with replica-rounded magnitudes.

    That block is the replica-averaged cell sum with weight |step[l,0]|^2
    |branch[beta,0]|^2 |color[c1,0]|^2 |color[c2,0]|^2 = |branch[beta,0]|^2
    / ((r+1) d^2) on cell (l, beta, c1, c2), the probability PREP|0> puts
    on that ancilla index.
    """

    def __init__(
        self,
        ham: TimeDependentHamiltonian,
        total_time: float,
        r: int,
        bits: int,
        counter: QueryCounter | None = None,
    ):
        if bits < 1:
            raise SpecError("magnitude precision must be at least one bit")
        if total_time <= 0:
            raise SpecError("total time must be positive")
        self.ham = ham
        self.total_time = float(total_time)
        self.r = int(r)
        self.bits = int(bits)
        self.counter = counter if counter is not None else QueryCounter()
        self.dim = ham.dim

        self.truncation = trunc = truncation(ham, self.total_time, self.r)
        scale = max(1.0, float(np.max(np.abs(trunc.rates))))
        present = np.abs(trunc.rates) > RATE_PRUNE * scale
        self.d = max(1, int(np.max(np.sum(present, axis=2))))
        top = max(
            float(np.max(np.abs(trunc.eta_start))),
            float(np.max(np.abs(trunc.eta_end))),
            float(np.max(np.abs(trunc.zeta))),
        )
        if top > 1.0:
            raise InvariantViolation(
                "transition magnitudes exceed one; the replica encoding assumes "
                "subunit amplitudes (increase the total time)"
            )

        self.width = 1 << bits
        self.shape = (r + 1, 4, self.width, self.d, self.d, 2, self.dim)
        self.size = int(np.prod(self.shape))
        self.subnormalization = float(1 + 2 * (r + 1) * self.d * self.d)

        w0 = 1.0 / (math.sqrt(r + 1.0) * self.d)
        first = np.array([w0, 1.0, 1.0, 0.0])
        self._branch = _branch_unitary(first / np.linalg.norm(first))
        self._step_prep = _dft(r + 1)
        self._color_prep = _dft(self.d)
        self.cells = self._build_cells(present)

    # -- construction helpers -----------------------------------------------

    def _build_cells(self, present: np.ndarray) -> lcu.SignedPermutationCells:
        """Select cells in (step, branch, color1, color2) order.

        The zero-transition branch applies the accumulated eigenphases with
        threshold 2^B, so every replica keeps it; branch 3 keeps the folded
        side flip and cancels.  At each step the edge j -> f, present both
        ways, takes color (slot of f in j's list, slot of j in f's list).
        The one-transition branch routes it to f with its boundary amplitude
        (interior steps carry zero and cancel); the two-transition branch
        returns it to j with the returning-path amplitude.
        """
        dim, trunc = self.dim, self.truncation
        cell = np.arange((self.r + 1) * 4 * self.d * self.d).reshape(
            self.r + 1, 4, self.d, self.d
        )
        perm, phase, thr = lcu.blank_cells(cell.size, dim)
        stay = cell[:, 0].ravel()
        perm[stay] = np.arange(2 * dim)
        phase[stay, :dim] = trunc.phase
        thr[stay, :dim] = self.width
        slot = np.cumsum(present, axis=2) - 1
        ell, j, f = np.nonzero(present & np.swapaxes(present, 1, 2))
        hop, back = cell[ell, 1:3, slot[ell, j, f], slot[ell, f, j]].T
        end = np.where(ell == self.r, trunc.eta_end[f, j], 0.0)
        eta = np.where(ell == 0, trunc.eta_start[f, j], end)
        carried = np.where(ell == 0, trunc.phase[f], trunc.phase[j])
        lcu.route(perm, phase, thr, self.bits, zip(hop, j, f, eta, carried))
        returning = zip(back, j, j, trunc.zeta[ell, j, f], trunc.phase[j])
        lcu.route(perm, phase, thr, self.bits, returning)
        return lcu.SignedPermutationCells(perm, phase, thr, self.bits, self.d * self.d)

    # -- structured applications --------------------------------------------

    def prep(self, vec: np.ndarray, adjoint: bool = False) -> np.ndarray:
        v = vec.reshape(self.shape)
        mats = [self._step_prep, self._branch, self._color_prep, self._color_prep]
        axes = [0, 1, 3, 4]
        for mat, axis in zip(mats, axes):
            use = mat.conj().T if adjoint else mat
            v = _apply_axis(v, use, axis)
        v = lcu.hadamard_axes(v, (2,))
        return v.reshape(vec.shape)

    def apply_select(self, vec: np.ndarray, adjoint: bool = False) -> np.ndarray:
        for name, cost in LONGTIME_SELECT_BUDGET.items():
            self.counter.tick(name, cost)
        return self.cells.apply(vec, adjoint)

    def apply_w(self, vec: np.ndarray, adjoint: bool = False) -> np.ndarray:
        v = self.prep(vec)
        v = self.apply_select(v, adjoint=adjoint)
        return self.prep(v, adjoint=True)

    def block(self) -> np.ndarray:
        """System block of Pi W Pi, with the cell weights the class docstring gives."""
        preps = (self._step_prep, self._branch, self._color_prep, self._color_prep)
        weights = reduce(np.multiply.outer, [np.abs(mat[:, 0]) ** 2 for mat in preps])
        return self.cells.average(weights.ravel())[: self.dim, : self.dim]

    # -- reference targets ---------------------------------------------------

    def rounded_target(self) -> np.ndarray:
        """The eigenframe matrix the encoding realizes exactly.

        Same truncation as the propagator, but with every transition
        magnitude pushed through the replica rounding rule.
        """
        return self.truncation.label(
            lambda mag: lcu.replica_average(round_to_bits(mag, self.bits), self.bits)
        )

    def exact_target(self) -> np.ndarray:
        """The unrounded eigenframe truncation, for precision-scaling tests."""
        return self.truncation.label()
