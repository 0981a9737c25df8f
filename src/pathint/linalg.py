"""Dense linear-algebra substrate used by every other module.

Everything downstream leans on two guarantees made here:

* eigendecompositions come back in a deterministic gauge, so repeated runs
  (and independently constructed oracles) agree bit-for-bit on eigenvectors;
* matrix exponentials and time-ordered propagators are accurate enough to
  serve as reference values for the coarser algorithms under test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import InvariantViolation, require_cap

# Relative gap below which eigenvalues are treated as one degenerate cluster.
DEGENERACY_RTOL = 1e-9
# Largest |h - h^H| entry, relative to max(1, max|h|), a Hermitian matrix may show.
HERMITIAN_RTOL = 1e-10


def check_hermitian(h: np.ndarray) -> np.ndarray:
    """Validate Hermiticity of a matrix or a stack, each matrix to
    HERMITIAN_RTOL at its own scale max(1, max|h_i|), and return it symmetrized."""
    h = np.asarray(h, dtype=complex)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2]:
        raise InvariantViolation(f"expected square matrices, got shape {h.shape}")
    adj = np.swapaxes(h, -1, -2).conj()
    flat = (-1, h.shape[-1] ** 2)
    defect = np.abs(h - adj).reshape(flat).max(axis=1)
    bad = defect > HERMITIAN_RTOL * np.maximum(np.abs(h).reshape(flat).max(axis=1), 1.0)
    if bad.any():
        raise InvariantViolation(f"matrix is not Hermitian (defect {defect[bad].max():.3e})")
    return (h + adj) / 2


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues sorted ascending with gauge-fixed eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray


def _fix_phase(column: np.ndarray) -> np.ndarray:
    # Largest-magnitude entry made real positive; first index wins ties so the
    # result does not depend on how the backend ordered a degenerate subspace.
    idx = int(np.argmax(np.round(np.abs(column), 12)))
    pivot = column[idx]
    if abs(pivot) == 0.0:
        return column
    return column * (abs(pivot) / pivot)


def _refix_cluster(vectors: np.ndarray) -> np.ndarray:
    """Deterministic basis for a degenerate cluster.

    Projects computational basis vectors into the cluster subspace in index
    order and Gram-Schmidts the survivors: each has every kept column
    projected out, and is normalized and kept if its remainder's norm
    exceeds 1e-8.  The output spans the same space but no longer depends on
    backend rotation conventions.
    """
    count = vectors.shape[1]
    candidates = vectors @ vectors.conj().T
    out: list[np.ndarray] = []
    for i in range(candidates.shape[1]):
        if len(out) == count:
            break
        cand = candidates[:, i].copy()
        for prev in out:
            cand -= prev * (prev.conj() @ cand)
        norm = np.linalg.norm(cand)
        if norm > 1e-8:
            out.append(cand / norm)
    if len(out) < count:
        raise InvariantViolation("Gram-Schmidt ran out of basis vectors")
    return np.column_stack(out)


def hermitian_eig(h: np.ndarray) -> EigenSystem:
    """eigh with ascending values and a deterministic eigenvector gauge."""
    h = check_hermitian(h)
    values, vectors = np.linalg.eigh(h)
    scale = max(float(np.max(np.abs(values))), 1.0)
    # Split the spectrum into degenerate clusters and re-fix each one.
    start = 0
    cols = vectors.copy()
    for i in range(1, len(values) + 1):
        if i == len(values) or values[i] - values[i - 1] > DEGENERACY_RTOL * scale:
            if i - start > 1:
                cols[:, start:i] = _refix_cluster(cols[:, start:i])
            start = i
    for j in range(cols.shape[1]):
        cols[:, j] = _fix_phase(cols[:, j])
    return EigenSystem(values=values, vectors=cols)


def exp_unitary(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i H t) for Hermitian H as V diag(e^{-i lambda t}) V^H from one ``eigh``.

    The product does not depend on the basis ``eigh`` picks inside a
    degenerate cluster, so no gauge is fixed: ``hermitian_eig`` is for
    callers that read the eigenvectors.
    """
    values, vectors = np.linalg.eigh(check_hermitian(h))
    return (vectors * np.exp(-1j * values * t)) @ vectors.conj().T


def fourier_matrix(dim: int) -> np.ndarray:
    """Unitary Fourier matrix of size dim, entry (k, j) = exp(2*pi*i*j*k/dim)/sqrt(dim);
    at dim = 2^n, the QFT on n qubits."""
    grid = np.outer(np.arange(dim), np.arange(dim))
    return np.exp(2j * np.pi * grid / dim) / np.sqrt(dim)


def spectral_norm(a: np.ndarray) -> float:
    """Largest singular value."""
    a = np.asarray(a, dtype=complex)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def _ordered_product(factors: np.ndarray) -> np.ndarray:
    """Product factors[-1] @ ... @ factors[0] by pairwise tree reduction."""
    mats = factors
    while mats.shape[0] > 1:
        k = mats.shape[0]
        half = k // 2
        # adjacent pairs (2i, 2i+1) merge to mats[2i+1] @ mats[2i]
        merged = np.matmul(mats[1 : 2 * half : 2], mats[0 : 2 * half : 2])
        if k % 2:
            merged = np.concatenate([merged, mats[-1:]], axis=0)
        mats = merged
    return mats[0]


# Midpoint slices sampled, and exponentiated together, per call of the drive.
MIDPOINT_CHUNK = 1 << 14


class MidpointChunk(NamedTuple):
    """The slices j = lo..lo+k-1 of a midpoint grid, in the factored form
    ``time_ordered_propagator`` composes; none of it depends on total time.

    With slice j = V_j diag(lambda_j) V_j^H, ``values[j]`` is lambda_j,
    ``overlaps[j]`` is V_j^H V_{j-1} (V_{-1} = 1, so ``overlaps[0]`` is
    V_0^H) and ``last`` is V_{k-1}.  A 2-level chunk holds 6k + 4 numbers.
    """

    values: np.ndarray
    overlaps: np.ndarray
    last: np.ndarray


# The chunk of a midpoint grid: (steps, lo) -> MidpointChunk.
MidpointEigensystem = Callable[[int, int], MidpointChunk]


def midpoint_eigensystem(
    sample: Callable[[np.ndarray], np.ndarray], steps: int, lo: int
) -> MidpointChunk:
    """``eigh`` of the drive at the midpoints s = (j + 1/2)/steps for the
    up to 2^14 slices j from lo on, with the overlaps of neighbouring
    eigenvector frames.

    ``sample`` maps an array of s of shape (n,) to the stack of shape
    (n, dim, dim), already checked and symmetrized, as
    ``long_time.TimeDependentHamiltonian.sample`` returns it.
    """
    s = (np.arange(lo, min(lo + MIDPOINT_CHUNK, steps)) + 0.5) / steps
    values, vectors = np.linalg.eigh(sample(s))
    adj = np.swapaxes(vectors, -1, -2).conj()
    overlaps = np.concatenate([adj[:1], adj[1:] @ vectors[:-1]])
    return MidpointChunk(values, overlaps, vectors[-1].copy())


def time_ordered_propagator(
    eigensystem: MidpointEigensystem, total_time: float, steps: int
) -> np.ndarray:
    """Midpoint-rule product approximation of the time-ordered evolution.

    The driving Hamiltonian is sampled at s = (j + 1/2)/steps on the unit
    interval and each slice contributes exp(-i H(s) * total_time/steps),
    with later slices composed on the left.  Slices are read a chunk of up
    to 2^14 at a time, from ``eigensystem(steps, lo)``, so reference-grade
    step counts stay affordable.  A chunk is composed as
    V_last · Π_j (diag(p_j) · overlaps[j]) with the phases
    p_j = exp(-i lambda_j dt) scaling rows, so the only work that depends on
    total time is the phases and one ordered product of the chunk's factors.
    """
    if steps < 1:
        raise InvariantViolation("steps must be positive")
    dt = total_time / steps
    out = None
    for lo in range(0, steps, MIDPOINT_CHUNK):
        chunk = eigensystem(steps, lo)
        phases = np.exp(-1j * chunk.values * dt)
        block = chunk.last @ _ordered_product(phases[:, :, None] * chunk.overlaps)
        out = block if out is None else block @ out
    return out


def _nearest_unitary(a: np.ndarray) -> np.ndarray:
    """Polar projection onto the unitary group."""
    u, _, vh = np.linalg.svd(a)
    return u @ vh


def converged_propagator(
    eigensystem: MidpointEigensystem, total_time: float, tol: float = 1e-9
) -> np.ndarray:
    """Step-double the midpoint rule, with two Richardson eliminations, until
    successive refinements agree.

    The midpoint slice rule is time-symmetric, so its error expands in even
    powers of the step alone (Hairer, Lubich and Wanner, Geometric Numerical
    Integration, Thm. II.3.2).  Halving the step therefore cuts the leading
    term by 4 and the next by 16, and both may be eliminated:
    E = (4 M_2N - M_N)/3 removes the h^2 term from two grids, and
    R = (16 E_new - E_old)/15 the h^4 term from two consecutive E.  Doubling
    continues until consecutive R agree to tol; the winner is
    polar-projected back onto the unitary group so downstream defect
    measurements are not polluted by the extrapolation residue.  Refinement
    starts at 64 slices; one past the ``midpoint_slices`` cap is refused.

    Each refinement's chunks of slice eigenvalues and frame overlaps come
    from ``eigensystem``, as in ``time_ordered_propagator``; a
    ``long_time.TimeDependentHamiltonian``'s ``midpoint_eigensystem`` keeps
    them across total times, so a later total time pays only the phases
    and the ordered products.
    """
    steps = 64
    coarse = time_ordered_propagator(eigensystem, total_time, steps)
    fine = time_ordered_propagator(eigensystem, total_time, 2 * steps)
    once = (4.0 * fine - coarse) / 3.0
    prev = None
    while True:
        steps *= 2
        require_cap("midpoint_slices", 2 * steps, f"midpoint slices (tol {tol:g})")
        coarse = fine
        fine = time_ordered_propagator(eigensystem, total_time, 2 * steps)
        once, old_once = (4.0 * fine - coarse) / 3.0, once
        cur = (16.0 * once - old_once) / 15.0
        if prev is not None and spectral_norm(cur - prev) < tol:
            return _nearest_unitary(cur)
        prev = cur
