"""Hamiltonian decompositions, their eigenbasis overlap tables and query counts.

A decomposition is an ordered list of Hermitian terms whose sum is the full
Hamiltonian; term 0 must be diagonal.  For every ordered pair of terms that
appear adjacently in a product-formula schedule we tabulate the unitary of
eigenbasis overlaps and mark its genuine entries, those above ``zero_tol``.
The sparsity d is the largest number of genuine overlaps in any row or
column; the short-time select cells color exactly the genuine edges.
A term is a dense matrix or a ``PauliTerm``, the masks a document's Pauli
entry declares; its matrix and closed-form eigensystem are written from
them, and a dense term goes through ``linalg.hermitian_eig``, whose gauge
the closed form reproduces.  ``QueryCounter`` tallies the oracle queries
the encodings charge.  The document rules ``require_number``,
``require_int`` and ``require_fields`` read every experiment document.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import CapExceeded, InvariantViolation, SpecError, require_cap
from .linalg import DEGENERACY_RTOL, EigenSystem, check_hermitian, hermitian_eig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations only
    from .trotter import TrotterSchedule

# the largest finite float: abs(value) <= _MAX fails for NaN, infinities and larger ints
_MAX = sys.float_info.max


@dataclass(frozen=True)
class Decomposition:
    """Validated term list with gauge-fixed eigensystems.

    ``paulis`` holds each term's (x-mask, z-mask, |coeff|) when every term
    was a ``PauliTerm``, and is None otherwise.  ``alphas`` is where
    ``trotter.error_bound`` keeps each alpha_comm it computes, by k.
    """

    n: int
    terms: tuple[np.ndarray, ...]
    eigensystems: tuple[EigenSystem, ...]
    zero_tol: float
    paulis: tuple[tuple[int, int, float], ...] | None = None
    alphas: dict[int, float | CapExceeded] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def dim(self) -> int:
        return 2**self.n

    @property
    def term_count(self) -> int:
        return len(self.terms)

    def total(self) -> np.ndarray:
        return np.sum(self.terms, axis=0)


def odd_parity(v: np.ndarray) -> np.ndarray:
    """Is the popcount of each non-negative 64-bit integer odd?"""
    for shift in (32, 16, 8, 4, 2, 1):
        v = v ^ (v >> shift)
    return (v & 1).astype(bool)


@dataclass(frozen=True)
class PauliTerm:
    """coeff * P for the n-qubit Pauli string P with masks x and z: letter q
    sets bit n-1-q of x for X or Y and of z for Y or Z, so P maps e_j to
    i^popcount(x&z) (-1)^popcount(z&j) e_(j^x) (Aaronson and Gottesman,
    PRA 70, 052328 (2004))."""

    n: int
    x: int
    z: int
    coeff: float

    def matrix(self) -> np.ndarray:
        j = np.arange(1 << self.n)
        unit = (1 + 0j, 1j, -1 + 0j, -1j)[(self.x & self.z).bit_count() % 4]
        m = np.zeros((len(j), len(j)), dtype=complex)
        m[j ^ self.x, j] = np.where(odd_parity(self.z & j), -1.0, 1.0) * (self.coeff * unit)
        return m


def _pauli_eig(term: np.ndarray | PauliTerm, m: np.ndarray) -> EigenSystem | None:
    """A ``PauliTerm``'s eigensystem in closed form from its matrix m, else None.

    With a_i the entry of column i, in row pi(i) = i^x, a fixed point gives
    e_i with value a_i and a pair i < pi(i) gives (e_i + s (a_i/|c|)
    e_pi(i))/sqrt(2) with value s|c| for each sign s, in the gauge
    ``hermitian_eig`` fixes.  Values closer than its degeneracy tolerance
    would be one cluster there, so such a term takes that path too.
    """
    if not isinstance(term, PauliTerm):
        return None
    mag = abs(term.coeff)
    if 2 * mag <= DEGENERACY_RTOL * max(mag, 1.0):
        return None
    idx = np.arange(len(m))
    pi = idx ^ term.x
    a = m[pi, idx]
    pair = idx < pi
    neg = pair | ((a.real < 0) & (idx == pi))
    pos = pair | ((a.real > 0) & (idx == pi))
    cols = np.concatenate([idx[neg], idx[pos]])
    sign = np.repeat([-1.0, 1.0], [neg.sum(), pos.sum()])
    half = np.sqrt(0.5)
    vectors = np.zeros(m.shape, dtype=complex)
    # a fixed point's partner entry is then overwritten by its own 1
    vectors[pi[cols], idx] = sign * (a[cols] / mag) * half
    vectors[cols, idx] = np.where(pi[cols] == cols, 1.0, half)
    return EigenSystem(values=sign * mag, vectors=vectors)


def _matrix(term: np.ndarray | PauliTerm, pos: int) -> np.ndarray:
    """A term's Hermitian matrix; a dense term that is not Hermitian is refused."""
    if isinstance(term, PauliTerm):
        return term.matrix()
    try:
        return check_hermitian(term)
    except InvariantViolation as exc:
        raise SpecError(f"term {pos}: {exc}") from None


def build(terms: Sequence[np.ndarray | PauliTerm], zero_tol: float = 1e-12) -> Decomposition:
    """Validate terms and precompute each term's deterministic eigensystem.

    A ``PauliTerm`` gets its closed form, a dense matrix ``hermitian_eig``.
    """
    if not terms:
        raise SpecError("decomposition needs at least one term")
    mats = [_matrix(t, i) for i, t in enumerate(terms)]
    dim = mats[0].shape[0]
    for i, m in enumerate(mats):
        if m.shape[0] != dim:
            raise SpecError(f"term {i} has dimension {m.shape[0]}, expected {dim}")
    n = int(round(np.log2(dim)))
    if dim < 2 or 2**n != dim:
        raise SpecError(f"dimension {dim} is not a power of two >= 2")
    off = mats[0] - np.diag(np.diag(mats[0]))
    if np.max(np.abs(off)) > 1e-12 * max(1.0, float(np.max(np.abs(mats[0])))):
        i, j = np.unravel_index(int(np.argmax(np.abs(off))), off.shape)
        raise SpecError(
            f"term 0 must be diagonal; entry ({i}, {j}) = {mats[0][i, j]:.3e}"
        )
    if zero_tol <= 0:
        raise SpecError("zero_tol must be positive")
    eigs = tuple(_pauli_eig(t, m) or hermitian_eig(m) for t, m in zip(terms, mats))
    masks = tuple((t.x, t.z, abs(t.coeff)) for t in terms if isinstance(t, PauliTerm))
    return Decomposition(n=n, terms=tuple(mats), eigensystems=eigs, zero_tol=zero_tol,
                         paulis=masks if len(masks) == len(terms) else None)


# ---------------------------------------------------------------------------
# document rules: every experiment document and sub-document is read with these


def require_number(value: object, what: str) -> float:
    """A document number: a finite int or float, never a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= _MAX:
        raise SpecError(f"{what} must be a finite number")
    return float(value)


def require_int(value: object, what: str, minimum: int) -> int:
    """A document integer of at least ``minimum``, never a bool or a float."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise SpecError(f"{what} must be an integer >= {minimum}")
    return value


def require_fields(doc: object, required: set[str], optional: set[str], what: str) -> dict:
    """A JSON object holding every required field and nothing unknown."""
    if not isinstance(doc, dict):
        raise SpecError(f"{what} must be a JSON object")
    unknown = set(doc) - required - optional
    if unknown:
        raise SpecError(f"{what}: unknown fields {sorted(unknown)}")
    missing = required - set(doc)
    if missing:
        raise SpecError(f"{what}: missing fields {sorted(missing)}")
    return doc


def _term_from_json(entry: object, n: int, pos: int) -> np.ndarray | PauliTerm:
    """A document term: a ``PauliTerm``, or a dense matrix that ``_matrix`` checks."""
    if isinstance(entry, dict):
        require_fields(entry, {"pauli"}, {"coeff"}, f"term {pos}")
        label = entry["pauli"]
        if not isinstance(label, str) or not label:
            raise SpecError(f"term {pos}: 'pauli' must be a non-empty string")
        if not set(label) <= set("IXYZ"):
            raise SpecError(f"term {pos}: bad Pauli letter in {label!r}")
        if len(label) != n:
            raise SpecError(f"term {pos}: Pauli string length {len(label)} does not match n")
        coeff = require_number(entry.get("coeff", 1.0), f"term {pos}: 'coeff'")
        x = z = 0
        for c in label:
            x, z = 2 * x + (c in "XY"), 2 * z + (c in "YZ")
        return PauliTerm(n, x, z, coeff)
    if isinstance(entry, list):
        what = f"term {pos}: entries must be [re, im] pairs of finite numbers"
        try:
            mat = np.array([
                [complex(require_number(re, what), require_number(im, what)) for re, im in row]
                for row in entry
            ], dtype=complex)
        except (TypeError, ValueError) as exc:
            raise SpecError(what) from exc
        if mat.shape != (1 << n, 1 << n):
            raise SpecError(f"term {pos}: shape {mat.shape}, expected ({1 << n}, {1 << n})")
        return mat
    raise SpecError(f"term {pos}: unsupported term encoding {type(entry).__name__}")


def _terms_from_json(doc: object) -> tuple[list[np.ndarray | PauliTerm], float]:
    """The terms and zero_tol of a decomposition document (dense matrices or Pauli shorthand)."""
    require_fields(doc, {"n", "terms"}, {"zero_tol"}, "decomposition")
    what = "decomposition 'n'"
    n = require_cap("dense_qubits", require_int(doc["n"], what, 1), what)
    raw_terms = doc["terms"]
    if not isinstance(raw_terms, list) or not raw_terms:
        raise SpecError("'terms' must be a non-empty list")
    terms = [_term_from_json(t, n, i) for i, t in enumerate(raw_terms)]
    return terms, require_number(doc.get("zero_tol", 1e-12), "zero_tol")


def decomposition_from_json(doc: dict) -> Decomposition:
    """Parse the on-disk decomposition format into a checked ``Decomposition``."""
    return build(*_terms_from_json(doc))


def operator_from_json(doc: dict) -> np.ndarray:
    """A decomposition document read as one operator, the sum of its checked
    terms (``Decomposition.total``'s bits): no term need be diagonal and no
    eigensystem is formed."""
    terms, _ = _terms_from_json(doc)
    return np.sum([_matrix(t, i) for i, t in enumerate(terms)], axis=0)


# ---------------------------------------------------------------------------
# overlap tables


@dataclass(frozen=True)
class PairOverlap:
    """Overlap data for one ordered term pair (current -> next).

    ``overlap[q, j]`` is the amplitude for source eigenstate j of the current
    term against target eigenstate q of the next term; ``genuine`` marks the
    amplitudes above the decomposition's ``zero_tol``, the edges of the
    step's overlap graph.
    """

    overlap: np.ndarray
    genuine: np.ndarray


def _pair_overlap(decomp: Decomposition, cur: int, nxt: int) -> PairOverlap:
    v_cur = decomp.eigensystems[cur].vectors
    v_nxt = decomp.eigensystems[nxt].vectors
    overlap = v_nxt.conj().T @ v_cur
    return PairOverlap(overlap=overlap, genuine=np.abs(overlap) > decomp.zero_tol)


class ScheduleOverlaps:
    """Overlap tables for every transition step of a schedule.

    ``pairs[m]`` is step m's (term, next term) pair.  The final factor has
    no successor; its pair is the identity pair (term, term), which the
    block-encoding machinery uses to realize the trailing diagonal phase
    through the same code path.  ``d`` is the sparsity: the largest number
    of genuine overlaps in any row or column of any table (``tables``, one per distinct pair).
    """

    def __init__(self, decomp: Decomposition, schedule: "TrotterSchedule"):
        self.decomp = decomp
        self.schedule = schedule
        terms = [f.term for f in schedule.factors]
        self.pairs = list(zip(terms, terms[1:] + terms[-1:]))
        self.tables = {pair: _pair_overlap(decomp, *pair) for pair in dict.fromkeys(self.pairs)}
        self.d = max(
            int(max(t.genuine.sum(axis=0).max(), t.genuine.sum(axis=1).max()))
            for t in self.tables.values()
        )

    def pair_for_step(self, m: int) -> PairOverlap:
        if not 0 <= m < len(self.pairs):
            raise SpecError(f"step index {m} outside schedule of {len(self.pairs)} factors")
        return self.tables[self.pairs[m]]


# ---------------------------------------------------------------------------
# query accounting


@dataclass
class QueryCounter:
    counts: dict[str, int] = field(default_factory=dict)

    def tick(self, name: str, k: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + k


# Most magnitude bits B: round_to_bits clamps to 2^B - 1, a float64 integer
# only up to B = 53; at B = 54 a magnitude of 1.0 rounds to 2^B.
MAX_BITS = 53


def require_bits(value: object, what: str) -> int:
    """A magnitude precision B: an integer from 1 to ``MAX_BITS``."""
    if require_int(value, what, 1) > MAX_BITS:
        raise SpecError(f"{what} must be at most {MAX_BITS}")
    return value


def round_to_bits(value: np.ndarray | float, bits: int) -> np.ndarray:
    """Round-to-nearest (ties to even) of 2^bits * value, clamped to B bits, elementwise."""
    scaled = np.rint(np.multiply(value, 1 << bits))
    return np.clip(scaled, 0, (1 << bits) - 1).astype(np.int64)
