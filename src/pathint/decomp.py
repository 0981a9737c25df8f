"""Hamiltonian decompositions, their eigenbasis overlap tables and query counts.

A decomposition is an ordered list of Hermitian terms whose sum is the full
Hamiltonian; term 0 must be diagonal.  For every ordered pair of terms that
appear adjacently in a product-formula schedule we tabulate the unitary of
eigenbasis overlaps and mark its genuine entries, those above ``zero_tol``.
The sparsity d is the largest number of genuine overlaps in any row or
column; the short-time select cells color exactly the genuine edges.
``QueryCounter`` tallies the oracle queries the encodings charge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import SpecError
from .linalg import EigenSystem, check_hermitian, hermitian_eig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations only
    from .trotter import TrotterSchedule

_PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass(frozen=True)
class Decomposition:
    """Validated term list with gauge-fixed eigensystems."""

    n: int
    terms: tuple[np.ndarray, ...]
    eigensystems: tuple[EigenSystem, ...]
    zero_tol: float

    @property
    def dim(self) -> int:
        return 2**self.n

    @property
    def term_count(self) -> int:
        return len(self.terms)

    def total(self) -> np.ndarray:
        return np.sum(self.terms, axis=0)


def build(terms: Sequence[np.ndarray], zero_tol: float = 1e-12) -> Decomposition:
    """Validate terms and precompute each term's deterministic eigensystem."""
    if not terms:
        raise SpecError("decomposition needs at least one term")
    mats = [check_hermitian(t) for t in terms]
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
    eigs = tuple(hermitian_eig(m) for m in mats)
    return Decomposition(n=n, terms=tuple(mats), eigensystems=eigs, zero_tol=zero_tol)


def require_number(value: object, what: str) -> float:
    """A document number: an int or float, never a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecError(f"{what} must be a number")
    return float(value)


def _term_from_json(entry: object, dim: int, pos: int) -> np.ndarray:
    if isinstance(entry, dict):
        unknown = set(entry) - {"pauli", "coeff"}
        if unknown:
            raise SpecError(f"term {pos}: unknown fields {sorted(unknown)}")
        label = entry.get("pauli")
        if not isinstance(label, str) or not label:
            raise SpecError(f"term {pos}: 'pauli' must be a non-empty string")
        if any(c not in _PAULI_1Q for c in label):
            raise SpecError(f"term {pos}: bad Pauli letter in {label!r}")
        if 2 ** len(label) != dim:
            raise SpecError(
                f"term {pos}: Pauli string length {len(label)} does not match n"
            )
        coeff = require_number(entry.get("coeff", 1.0), f"term {pos}: 'coeff'")
        mat = np.array([[coeff + 0j]])
        for c in label:
            mat = np.kron(mat, _PAULI_1Q[c])
        return mat
    if isinstance(entry, list):
        try:
            rows = []
            for row in entry:
                rows.append([complex(re, im) for re, im in row])
            mat = np.array(rows, dtype=complex)
        except (TypeError, ValueError) as exc:
            raise SpecError(f"term {pos}: entries must be [re, im] pairs") from exc
        if mat.shape != (dim, dim):
            raise SpecError(f"term {pos}: shape {mat.shape}, expected ({dim}, {dim})")
        return mat
    raise SpecError(f"term {pos}: unsupported term encoding {type(entry).__name__}")


def decomposition_from_json(doc: dict) -> Decomposition:
    """Parse the on-disk decomposition format (dense matrices or Pauli shorthand)."""
    if not isinstance(doc, dict):
        raise SpecError("decomposition document must be a JSON object")
    unknown = set(doc) - {"n", "terms", "zero_tol"}
    if unknown:
        raise SpecError(f"decomposition: unknown fields {sorted(unknown)}")
    try:
        n = doc["n"]
        raw_terms = doc["terms"]
    except KeyError as exc:
        raise SpecError(f"decomposition: missing field {exc}") from exc
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise SpecError("n must be an integer >= 1")
    if not isinstance(raw_terms, list) or not raw_terms:
        raise SpecError("'terms' must be a non-empty list")
    dim = 2**n
    terms = [_term_from_json(t, dim, i) for i, t in enumerate(raw_terms)]
    zero_tol = require_number(doc.get("zero_tol", 1e-12), "zero_tol")
    return build(terms, zero_tol=zero_tol)


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


def sparsity(decomp: Decomposition, schedule: "TrotterSchedule") -> int:
    """Largest genuine overlap count in any row or column of the schedule's tables."""
    return ScheduleOverlaps(decomp, schedule).d


class ScheduleOverlaps:
    """Overlap tables for every transition step of a schedule.

    The final factor has no successor; its table is the identity pair
    (term, term), which the block-encoding machinery uses to realize the
    trailing diagonal phase through the same code path.  ``d`` is the
    sparsity: the largest number of genuine overlaps in any row or column
    of any table.
    """

    def __init__(self, decomp: Decomposition, schedule: "TrotterSchedule"):
        self.decomp = decomp
        self.schedule = schedule
        terms = [f.term for f in schedule.factors]
        pairs = dict.fromkeys(zip(terms, terms[1:] + terms[-1:]))
        self._tables = {pair: _pair_overlap(decomp, *pair) for pair in pairs}
        self.d = max(
            int(max(t.genuine.sum(axis=0).max(), t.genuine.sum(axis=1).max()))
            for t in self._tables.values()
        )

    def pair_for_step(self, m: int) -> PairOverlap:
        factors = self.schedule.factors
        if not 0 <= m < len(factors):
            raise SpecError(f"step index {m} outside schedule of {len(factors)} factors")
        cur = factors[m].term
        nxt = factors[m + 1].term if m + 1 < len(factors) else cur
        return self._tables[(cur, nxt)]


# ---------------------------------------------------------------------------
# query accounting


@dataclass
class QueryCounter:
    counts: dict[str, int] = field(default_factory=dict)

    def tick(self, name: str, k: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def snapshot(self) -> dict[str, int]:
        return dict(self.counts)

    def reset(self) -> None:
        self.counts.clear()


def round_to_bits(value: float, bits: int) -> int:
    """Round-to-nearest (ties to even) of 2^bits * value, clamped to B bits."""
    scaled = round(value * (1 << bits))
    return int(min((1 << bits) - 1, max(0, scaled)))
