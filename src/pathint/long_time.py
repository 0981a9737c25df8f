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
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable

import numpy as np

from . import lcu
from .decomp import QueryCounter, require_bits, round_to_bits
from .errors import CAPS, InvariantViolation, SpecError, require_cap
from .linalg import (
    MidpointChunk,
    check_hermitian,
    converged_propagator,
    exp_unitary,
    fourier_matrix,
    hermitian_eig,
    midpoint_eigensystem,
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

    ``h`` and ``dh`` are array-valued: an array of s of shape S gives the
    stack of shape S + (dim, dim), a float s one matrix; ``sample`` reads them.
    ``exact_propagator``, where the system has one, maps a total time T to
    the exact U(1) of i dU/ds = T h(s) U, U(0) = 1; ``longtime_error``
    measures against it instead of the converged midpoint rule.
    """

    dim: int
    h: Callable[[float | np.ndarray], np.ndarray]
    dh: Callable[[float | np.ndarray], np.ndarray]
    grid: int = 64
    exact_propagator: Callable[[float], np.ndarray] | None = None
    _frames: dict[int, tuple[SmoothEigensystem, np.ndarray]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _midpoints: dict[tuple[int, int], MidpointChunk] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.dim < 2:
            raise SpecError("a driven system needs at least two levels")
        if self.grid < 1:
            raise SpecError("grid must be a positive sample count")
        require_cap("panel_entries", (self.grid + 1) * self.dim**2, "sampled grid entries")
        hams = self.sample("h", np.linspace(0.0, 1.0, self.grid + 1))
        gap_min, floor = spectral_gap(np.linalg.eigvalsh(hams))
        if gap_min <= floor:
            raise SpecError(
                f"spectral gap {gap_min:.3e} is below the tolerance floor; "
                "the transition-rate picture needs a non-degenerate sweep"
            )
        rng = np.random.default_rng(_VALIDATION_SEED)
        step = DERIV_CHECK_STEP
        probe = rng.uniform(step, 1.0 - step, size=5)
        claimed = self.sample("dh", probe)
        # Richardson-extrapolated central difference, so fast drives with
        # large higher derivatives are not rejected spuriously
        shifts = np.add.outer((step, -step, step / 2.0, -step / 2.0), probe)
        up, down, up_half, down_half = self.sample("h", shifts)
        coarse = (up - down) / (2.0 * step)
        fine = (up_half - down_half) / step
        fd = (4.0 * fine - coarse) / 3.0
        defect = np.max(np.abs(fd - claimed), axis=(1, 2))
        scale = np.maximum(1.0, np.max(np.abs(claimed), axis=(1, 2)))
        i = int(np.argmax(defect > DERIV_CHECK_TOL * scale))  # the first failing point
        if defect[i] > DERIV_CHECK_TOL * scale[i]:
            raise SpecError(
                f"analytic derivative disagrees with finite differences "
                f"(defect {defect[i]:.3e} at s={probe[i]:.4f})"
            )

    def sample(self, name: str, s: float | np.ndarray) -> np.ndarray:
        """h or dh at s, symmetrized, refused unless shaped np.shape(s) + (dim, dim),
        finite and Hermitian; the drive runs with float warnings off, as NaN or inf is refused."""
        with np.errstate(all="ignore"):
            out = np.asarray(getattr(self, name)(s))
        want = np.shape(s) + (self.dim, self.dim)
        if out.shape != want:
            raise SpecError(f"{name}(s) returned shape {out.shape}, expected {want}")
        if not np.all(np.isfinite(out)):
            raise SpecError(f"{name}(s) is not finite")
        return check_hermitian(out)

    @cached_property
    def bounds(self) -> AdiabaticBounds:
        """The sweep's derivative-norm bounds, computed on first use."""
        return adiabatic_bounds(self)

    def frames(self, r: int) -> tuple[SmoothEigensystem, np.ndarray]:
        """Tracked frames and transition rates on the r-panel grid; these
        are the only transition rates the module computes.

        Both depend on the sweep alone, not on the total time, so they are
        computed once per r and shared by every truncation and jump_term of
        this Hamiltonian; the arrays are read-only.
        """
        if r not in self._frames:
            require_cap("panel_entries", (r + 1) * self.dim**2, "sampled grid entries")
            s_grid = np.linspace(0.0, 1.0, r + 1)
            eigsys = smooth_eigensystem(self, s_grid)
            rates = _rate_matrices(eigsys, self.sample("dh", s_grid))
            for arr in (s_grid, eigsys.values, eigsys.vectors, rates):
                arr.flags.writeable = False
            self._frames[r] = (eigsys, rates)
        return self._frames[r]

    def midpoint_eigensystem(self, steps: int, lo: int) -> MidpointChunk:
        """``linalg.midpoint_eigensystem`` of the ``sample`` of h, kept per
        (steps, lo) chunk.

        A chunk's eigenvalues, frame overlaps and last frame depend on the
        sweep alone, so every total time's ``longtime_error`` reads the same
        ones.  A chunk is kept, read-only, only while the table's entries
        stay within the ``panel_entries`` cap; one past it is sampled and
        diagonalized again on every call.
        """
        key = (steps, lo)
        if key in self._midpoints:
            return self._midpoints[key]
        chunk = midpoint_eigensystem(partial(self.sample, "h"), steps, lo)
        held = sum(arr.size for kept in self._midpoints.values() for arr in kept)
        if held + sum(arr.size for arr in chunk) <= CAPS["panel_entries"].limit:
            for arr in chunk:
                arr.flags.writeable = False
            self._midpoints[key] = chunk
        return chunk


_SWEEP_SHAPES: dict[str, tuple[Callable[[np.ndarray], np.ndarray], ...]] = {
    "linear": (lambda s: s, np.ones_like),
    "sine": (lambda s: np.sin(np.pi * s), lambda s: np.pi * np.cos(np.pi * s)),
}


def two_level_sweep(
    a: float, b: float, shape: str = "sine", grid: int = 256
) -> TimeDependentHamiltonian:
    """The workhorse 2-level family: a fixed splitting with a swept drive.

    h(s) = a * diag(1, -1) + b * f(s) * offdiag, with f either the identity
    ramp or a half-period sine.  The gap never closes as long as a != 0.
    """
    if not isinstance(shape, str) or shape not in _SWEEP_SHAPES:
        raise SpecError(f"unknown sweep shape {shape!r}; use one of {sorted(_SWEEP_SHAPES)}")
    f, fdot = _SWEEP_SHAPES[shape]
    sz = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

    def h(s: float | np.ndarray) -> np.ndarray:
        return a * sz + np.multiply.outer(b * f(s), sx)

    def dh(s: float | np.ndarray) -> np.ndarray:
        return np.multiply.outer(b * fdot(s), sx)

    return TimeDependentHamiltonian(dim=2, h=h, dh=dh, grid=grid)


def interaction_frame(
    a: np.ndarray, bop: np.ndarray, total_time: float, grid: int = 64
) -> TimeDependentHamiltonian:
    """Rotate a static coupling into the frame generated by another term.

    h(s) = e^{i a s T} bop e^{-i a s T}; the instantaneous spectrum is the
    spectrum of bop at every s, so the sweep is gapped iff bop is.  The
    derivative is the conjugated commutator i T [a, bop], supplied
    analytically.  The propagator has a closed form: run for a total time
    t, U = e^{i a s T} W obeys i dW/ds = (T a + t bop) W, a constant
    drive, so U(1) = e^{i a T} e^{-i (T a + t bop)}.
    """
    a = check_hermitian(a)
    bop = check_hermitian(bop)
    if a.shape != bop.shape:
        raise SpecError("frame generator and coupling must share a dimension")
    with np.errstate(all="ignore"):  # a commutator past float range fails dh's sample
        comm = a @ bop - bop @ a
    frame = hermitian_eig(a)

    def rotation(s: float | np.ndarray) -> np.ndarray:
        # exp_unitary(a, -s T) at every s from one eigensystem
        phases = np.exp(np.multiply.outer(-s * total_time, -1j * frame.values))
        return (frame.vectors * phases[..., None, :]) @ frame.vectors.conj().T

    def conjugate(op: np.ndarray, s: float | np.ndarray) -> np.ndarray:
        u = rotation(s)
        return u @ op @ np.swapaxes(u, -1, -2).conj()

    def h(s: float | np.ndarray) -> np.ndarray:
        return conjugate(bop, s)

    def dh(s: float | np.ndarray) -> np.ndarray:
        return 1j * total_time * conjugate(comm, s)

    def exact_propagator(t: float) -> np.ndarray:
        return rotation(1.0) @ exp_unitary(total_time * a + t * bop, 1.0)

    return TimeDependentHamiltonian(
        dim=a.shape[0], h=h, dh=dh, grid=grid, exact_propagator=exact_propagator
    )


# ---------------------------------------------------------------------------
# smooth eigensystems and transition rates


def spectral_gap(values: np.ndarray) -> tuple[float, float]:
    """(gap, floor) of spectra on the last axis: gap, the least step between sorted
    levels, is the least distance of any two, as rounding is monotone; it must pass floor."""
    gap = float(np.min(np.diff(np.sort(values, axis=-1), axis=-1)))
    return gap, GAP_FLOOR * max(1.0, float(np.max(np.abs(values))))


@dataclass(frozen=True)
class SmoothEigensystem:
    """Eigenvalue curves and transported eigenvector frames on a grid.

    Column j of vectors[i] is curve j at s_grid[i].  Curves are matched
    between neighboring grid points by overlap, never re-sorted, and each
    step's phase is fixed so the same-curve overlap is real positive.
    ``TimeDependentHamiltonian.frames`` keeps one per panel count, with its
    arrays read-only.
    """

    s_grid: np.ndarray
    values: np.ndarray
    vectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def diagonal_rate_defect(self) -> float:
        """Largest discrete diagonal transition rate left by the gauge.

        The transport gauge zeroes Im<chi_j|chi_j'> identically, so this is
        rounding noise, and ``_rate_matrices`` sets the diagonal to zero; an
        unaligned gauge would show O(1) values here.  It reads the same-curve
        overlaps <chi_j(s_i)|chi_j(s_{i+1})>.
        """
        overlaps = np.einsum("iaj,iaj->ij", self.vectors[:-1].conj(), self.vectors[1:])
        return float(np.max(np.abs(np.imag(overlaps)) / np.diff(self.s_grid)[:, None]))


def smooth_eigensystem(ham: TimeDependentHamiltonian, s_grid: np.ndarray) -> SmoothEigensystem:
    """Track eigenpairs across the sweep with a parallel-transport gauge.

    Frame 0 is the ``hermitian_eig`` gauge; every later frame is a column
    permutation of ``eigh``'s, re-phased.  The matching weights
    |<raw_{i-1}|raw_i>|^2 do not depend on the phases, so one batched
    product gives every step's.  Rows and columns of a squared unitary sum
    to 1, so an entry above 1/2 is the only one of its row and column: it
    is the step's match, and a row without one makes tracking ambiguous.
    (An exact 1/2 tie counts as ambiguous.)  A curve's column is the
    composition of the step matches, and its phase the renormalized running
    product of the conjugated unit overlaps along it.
    """
    s_grid = np.asarray(s_grid, dtype=float)
    if s_grid.ndim != 1 or len(s_grid) < 2:
        raise SpecError("need at least two grid points to transport a gauge")
    hams = ham.sample("h", s_grid)
    raw_vals, raw_vecs = np.linalg.eigh(hams)
    anchor = hermitian_eig(hams[0])
    raw_vals[0], raw_vecs[0] = anchor.values, anchor.vectors
    overlap = np.swapaxes(raw_vecs[:-1].conj(), 1, 2) @ raw_vecs[1:]
    hit = np.abs(overlap) ** 2 > 0.5
    if not (np.all(np.sum(hit, axis=2) == 1) and np.all(np.sum(hit, axis=1) == 1)):
        raise InvariantViolation(
            "eigenvector tracking became ambiguous between grid points; "
            "the gap may be collapsing, or the grid is too coarse"
        )
    match = np.argmax(hit, axis=2)  # raw column at s_i of raw column a at s_{i-1}
    labels = np.arange(ham.dim)
    column = np.tile(labels, (len(s_grid), 1))  # curve j's raw column at each s
    for i in np.flatnonzero(np.any(match != labels, axis=1)):
        column[i + 1:] = match[i][column[i]]
    steps = np.arange(len(match))[:, None]
    unit = lcu.unit_phase(overlap[steps, column[:-1], column[1:]]).conj()
    phase = np.cumprod(unit, axis=0)
    phase /= np.abs(phase)

    values = np.take_along_axis(raw_vals, column, axis=1)
    vectors = np.take_along_axis(raw_vecs, column[:, None, :], axis=2)
    vectors[1:] *= phase[:, None, :]
    gap, floor = spectral_gap(values)
    if gap <= floor:
        raise InvariantViolation("spectral gap collapsed below tolerance mid-grid")
    return SmoothEigensystem(s_grid=s_grid, values=values, vectors=vectors)


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
    minimum gap; jump_constant multiplies the p-transition path-sum bounds;
    max_drive is the bare first-derivative norm needed by the odd-order bounds.
    """

    gap_min: float
    drive_ratio: float
    jump_constant: float
    max_drive: float

    def __post_init__(self) -> None:
        for name in ("gap_min", "drive_ratio", "jump_constant", "max_drive"):
            if getattr(self, name) < 0:
                raise InvariantViolation(f"{name} must be nonnegative")
            if getattr(self, name) == math.inf:
                raise SpecError(f"the sweep's {name} is past float range")


def adiabatic_bounds(ham: TimeDependentHamiltonian) -> AdiabaticBounds:
    """Estimate the derivative-norm bounds on a fixed 129-point grid.

    The minimum gap is ``spectral_gap`` of the plain ``eigh`` spectra there,
    with no frame tracked: sorted spectra have the same least level distance
    as tracked curves, and ``eigh`` (unlike ``eigvalsh``) gives the values
    ``smooth_eigensystem`` tracks, bit for bit.  Higher derivatives of h
    come from central differences of the analytic dh, which keeps the noise
    floor at the level of the second difference of an exact quantity rather
    than of a doubly-differenced h.  Callers read ``ham.bounds``, which
    computes this once per Hamiltonian.
    """
    pts = np.linspace(0.0, 1.0, 129)
    gap_min, floor = spectral_gap(np.linalg.eigh(ham.sample("h", pts))[0])
    if gap_min <= floor:
        raise InvariantViolation("spectral gap collapsed below tolerance mid-grid")

    delta = 1e-3
    inner = np.clip(pts, delta, 1.0 - delta)
    grids = np.stack([pts, inner, inner + delta, inner - delta])
    d_pts, d_mid, d_plus, d_minus = ham.sample("dh", grids)

    def max_norm(stack: np.ndarray) -> float:
        return float(np.max(np.linalg.norm(stack, 2, axis=(-2, -1))))

    m1 = max_norm(d_pts)
    m2 = max_norm((d_plus - d_minus) / (2.0 * delta))
    m3 = max_norm((d_plus - 2.0 * d_mid + d_minus) / delta**2)
    try:
        jump_constant = 6.0 * m1**3 / gap_min**3 + (m1 * m2 + 2.0 * m1**2) / gap_min**2
    except OverflowError:  # a float power past range
        jump_constant = math.inf
    return AdiabaticBounds(
        gap_min=gap_min,
        drive_ratio=max(m1, m2, m3) / gap_min,
        jump_constant=jump_constant,
        max_drive=m1,
    )


def jump_estimate(bounds: AdiabaticBounds, total_time: float) -> float:
    """long-sim's ``truncation_bound``: the path-sum bounds of the odd
    three-transition term and the next even/odd pair.  An estimate, not yet a
    bound: it omits the integration-by-parts remainder between the nested
    sums and ``Truncation.label``, and can sit below the measured error."""
    _, odd1 = jump_bounds(bounds, total_time, 1)
    even2, odd2 = jump_bounds(bounds, total_time, 2)
    return odd1 + even2 + odd2


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

    def label(self, mag: Callable[[np.ndarray], np.ndarray] | None = None) -> np.ndarray:
        """Eigenframe matrix; entry [j1, j0] maps curve j0 at s=0 to j1 at s=1.

        The s=1 boundary term keeps the departed level's accumulated phase,
        the s=0 term the arrival level's; the returning paths correct the
        diagonal.  With ``mag`` every transition amplitude a enters as
        mag(|a|) a/|a|, the magnitudes an encoding realizes after rounding.
        """
        eta_start, eta_end, correction = self.eta_start, self.eta_end, self.correction
        if mag is not None:
            eta_start, eta_end, zeta = (
                mag(np.hypot(a.real, a.imag)) * lcu.unit_phase(a)
                for a in (eta_start, eta_end, self.zeta)
            )
            correction = zeta.sum(axis=(0, 2))
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
    eigsys, rates = ham.frames(r)
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


def truncated_propagator(
    ham: TimeDependentHamiltonian, total_time: float, r: int | None = None
) -> np.ndarray:
    """Two-transition truncated propagator in the computational basis."""
    trunc = truncation(ham, total_time, r)
    return trunc.eigsys.vectors[-1] @ trunc.label() @ trunc.eigsys.vectors[0].conj().T


def longtime_error(
    ham: TimeDependentHamiltonian, total_time: float, r: int | None = None
) -> float:
    """Spectral-norm distance from the reference propagator: ``ham``'s
    exact propagator where it has one (an interaction frame), else the
    converged midpoint rule, whose chunks ``ham`` keeps across total times.

    Refuses to run where the truncation has no business converging: the
    expansion is controlled only once drive_ratio^4 / (gap^2 T^2) < 1/2.
    A grid past the ``panel_entries`` cap, or a ratio past float range, is
    refused before any work.
    """
    panels = ham.grid if r is None else r
    require_cap("panel_entries", (panels + 1) * ham.dim**2, "sampled grid entries")
    bounds = ham.bounds
    try:
        control = bounds.drive_ratio**4 / (bounds.gap_min**2 * total_time**2)
    except ZeroDivisionError:  # T^2 underflowed
        control = math.inf
    except OverflowError:
        raise SpecError(f"the control ratio at T = {total_time:.3g} is past float range") from None
    if control >= 0.5:
        raise SpecError(
            f"total time too short for the truncated expansion (control {control:.3g})"
        )
    if ham.exact_propagator is not None:
        reference = ham.exact_propagator(total_time)
    else:
        reference = converged_propagator(ham.midpoint_eigensystem, total_time)
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
    eigsys, rates = ham.frames(panels)
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


def _branch_unitary(first_column: np.ndarray) -> np.ndarray:
    """A unitary whose first column is the given real unit vector x != e_0:
    the Householder reflection I - 2 u u^T / |u|^2 with u = x - e_0, which
    swaps e_0 and x."""
    u = np.array(first_column, dtype=float)
    u[0] -= 1.0
    return (np.eye(len(u)) - (2.0 / (u @ u)) * np.outer(u, u)).astype(complex)


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
    on that ancilla index.  So the (r+1) d^2 stay cells together, and each
    routed edge alone, carry exactly 1 / subnormalization.
    """

    def __init__(
        self,
        ham: TimeDependentHamiltonian,
        total_time: float,
        r: int,
        bits: int,
        counter: QueryCounter | None = None,
    ):
        require_bits(bits, "magnitude precision")
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
        top = max(float(np.max(np.abs(a))) for a in (trunc.eta_start, trunc.eta_end, trunc.zeta))
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
        # the preparations of the step, branch and two color axes (0, 1, 3, 4)
        step, color = fourier_matrix(r + 1).conj(), fourier_matrix(self.d).conj()
        self._preps = (step, _branch_unitary(first / np.linalg.norm(first)), color, color)
        self.edges = self._edges(present)

    # -- construction helpers -----------------------------------------------

    def _edges(self, present: np.ndarray) -> tuple[np.ndarray, ...]:
        """Both transition branches' edges as ``lcu.route`` columns, cells
        in (step, branch, color1, color2) order.

        At each step the edge j -> f, present both ways, takes color (slot
        of f in j's list, slot of j in f's list).  The one-transition branch
        routes it to f with its boundary amplitude (interior steps carry
        zero and cancel); the two-transition branch returns it to j with the
        returning-path amplitude.
        """
        trunc = self.truncation
        cell = np.arange((self.r + 1) * 4 * self.d**2).reshape(self.r + 1, 4, self.d, self.d)
        slot = np.cumsum(present, axis=2) - 1
        ell, j, f = np.nonzero(present & np.swapaxes(present, 1, 2))
        hop, back = cell[ell, 1:3, slot[ell, j, f], slot[ell, f, j]].T
        end = np.where(ell == self.r, trunc.eta_end[f, j], 0.0)
        eta = np.where(ell == 0, trunc.eta_start[f, j], end)
        carried = np.where(ell == 0, trunc.phase[f], trunc.phase[j])
        one = (hop, j, f, eta, carried)
        two = (back, j, j, trunc.zeta[ell, j, f], trunc.phase[j])
        return tuple(np.concatenate(pair) for pair in zip(one, two))

    @cached_property
    def cells(self) -> lcu.SignedPermutationCells:
        """Select cells of the register walks, built on first use.  The
        zero-transition branch applies the eigenphases with threshold 2^B,
        kept by every replica; branch 3 keeps the folded side flip and
        cancels; the edges are routed into branches 1 and 2."""
        dim, cells = self.dim, (self.r + 1) * 4 * self.d**2
        perm, phase, thr = lcu.blank_cells(cells, dim)
        stay = np.arange(cells).reshape(self.r + 1, 4, -1)[:, 0].ravel()
        perm[stay] = np.arange(2 * dim)
        phase[stay, :dim] = self.truncation.phase
        thr[stay, :dim] = self.width
        lcu.route(perm, phase, thr, self.bits, *self.edges)
        return lcu.SignedPermutationCells(perm, phase, thr, self.bits, self.d * self.d)

    # -- structured applications --------------------------------------------

    def prep(self, vec: np.ndarray, adjoint: bool = False) -> np.ndarray:
        v = vec.reshape(self.shape)
        for mat, axis in zip(self._preps, (0, 1, 3, 4)):
            v = _apply_axis(v, mat.conj().T if adjoint else mat, axis)
        return lcu.hadamard_axes(v, (2,)).reshape(vec.shape)

    def apply_select(self, vec: np.ndarray, adjoint: bool = False) -> np.ndarray:
        for name, cost in LONGTIME_SELECT_BUDGET.items():
            self.counter.tick(name, cost)
        return self.cells.apply(vec, adjoint)

    def apply_w(self, vec: np.ndarray, adjoint: bool = False) -> np.ndarray:
        v = self.prep(vec)
        v = self.apply_select(v, adjoint=adjoint)
        return self.prep(v, adjoint=True)

    def block(self) -> np.ndarray:
        """System block of Pi W Pi with the class docstring's cell weights:
        the stay eigenphases plus ``lcu.edge_sum``, over the subnormalization."""
        _, j, to, amp, carried = self.edges
        out = np.diag(self.truncation.phase)
        return lcu.edge_sum(out, to, j, amp, carried, self.bits) / self.subnormalization

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
