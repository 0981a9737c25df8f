"""Hamiltonian decompositions, their eigenbasis overlap tables and query counts.

A decomposition is an ordered list of Hermitian terms whose sum is the full
Hamiltonian; term 0 must be diagonal.  For every ordered pair of terms that
appear adjacently in a product-formula schedule we tabulate the unitary of
eigenbasis overlaps and mark its genuine entries, those above ``zero_tol``.
The sparsity d is the largest number of genuine overlaps in any row or
column; the short-time select cells color exactly the genuine edges.
A Pauli-string term, told apart by its matrix alone, gets its eigensystem
in closed form (``_pauli_eig``); every other term goes through
``linalg.hermitian_eig``, whose gauge the closed form reproduces.
``QueryCounter`` tallies the oracle queries the encodings charge.  The
document rules ``require_number``, ``require_int`` and ``require_fields``
read every experiment document and sub-document.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import CapExceeded, SpecError
from .linalg import DEGENERACY_RTOL, EigenSystem, check_hermitian, hermitian_eig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations only
    from .trotter import TrotterSchedule

_PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
# the largest finite float: abs(value) <= _MAX fails for NaN, infinities and larger ints
_MAX = sys.float_info.max


@dataclass(frozen=True)
class Decomposition:
    """Validated term list with gauge-fixed eigensystems.

    ``paulis`` holds each term's (x-mask, z-mask, |coeff|) when every term
    came from a Pauli-string document entry, and is None otherwise.
    ``alphas`` is where ``trotter.error_bound`` keeps each alpha_comm it
    computes, by k.
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


def _pauli_eig(m: np.ndarray) -> EigenSystem | None:
    """The eigensystem of a Pauli-string term in closed form, else None.

    A Pauli-string term is a Hermitian matrix with exactly one nonzero entry
    per column, all of one magnitude |c|: M e_i = a_i e_pi(i), with pi an
    involution.  A fixed point i = pi(i) gives e_i with value a_i; a pair
    i < pi(i) gives (e_i + s (a_i/|c|) e_pi(i))/sqrt(2) with value s|c| for
    each sign s.  Values ascend, and the columns of one value ascend in
    their lowest index: the gauge ``hermitian_eig`` fixes, found without
    ``eigh``.  Two values closer than its degeneracy tolerance would be one
    cluster there, so such a term takes that path too.
    """
    # entries come row by row; for Hermitian m, one per row is one per column
    rows, pi = np.nonzero(m)
    dim = len(m)
    idx = np.arange(dim)
    if len(rows) != dim or (rows != idx).any():
        return None
    a = m[pi, idx]
    mag = abs(a[0])
    if (np.abs(a) != mag).any() or 2 * mag <= DEGENERACY_RTOL * max(mag, 1.0):
        return None
    pair = idx < pi
    neg = pair | ((a.real < 0) & (idx == pi))
    pos = pair | ((a.real > 0) & (idx == pi))
    cols = np.concatenate([idx[neg], idx[pos]])
    sign = np.repeat([-1.0, 1.0], [neg.sum(), pos.sum()])
    half = np.sqrt(0.5)
    vectors = np.zeros((dim, dim), dtype=complex)
    # a fixed point's partner entry is then overwritten by its own 1
    vectors[pi[cols], idx] = sign * (a[cols] / mag) * half
    vectors[cols, idx] = np.where(pi[cols] == cols, 1.0, half)
    return EigenSystem(values=sign * mag, vectors=vectors)


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
    eigs = tuple(_pauli_eig(m) or hermitian_eig(m) for m in mats)
    return Decomposition(n=n, terms=tuple(mats), eigensystems=eigs, zero_tol=zero_tol)


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


def _term_from_json(
    entry: object, dim: int, pos: int
) -> tuple[np.ndarray, tuple[int, int, float] | None]:
    """A document term's matrix, and its (x-mask, z-mask, |coeff|) if it is a Pauli string."""
    if isinstance(entry, dict):
        require_fields(entry, {"pauli"}, {"coeff"}, f"term {pos}")
        label = entry["pauli"]
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
        x = z = 0
        for c in label:
            mat = np.kron(mat, _PAULI_1Q[c])
            x, z = 2 * x + (c in "XY"), 2 * z + (c in "YZ")
        return mat, (x, z, abs(coeff))
    if isinstance(entry, list):
        what = f"term {pos}: entries must be [re, im] pairs of finite numbers"
        try:
            mat = np.array([
                [complex(require_number(re, what), require_number(im, what)) for re, im in row]
                for row in entry
            ], dtype=complex)
        except (TypeError, ValueError) as exc:
            raise SpecError(what) from exc
        if mat.shape != (dim, dim):
            raise SpecError(f"term {pos}: shape {mat.shape}, expected ({dim}, {dim})")
        return mat, None
    raise SpecError(f"term {pos}: unsupported term encoding {type(entry).__name__}")


def decomposition_from_json(doc: dict) -> Decomposition:
    """Parse the on-disk decomposition format (dense matrices or Pauli shorthand).

    A document of Pauli-string terms only also keeps their symplectic form.
    """
    require_fields(doc, {"n", "terms"}, {"zero_tol"}, "decomposition")
    dim = 2 ** require_int(doc["n"], "decomposition 'n'", 1)
    raw_terms = doc["terms"]
    if not isinstance(raw_terms, list) or not raw_terms:
        raise SpecError("'terms' must be a non-empty list")
    terms, paulis = zip(*(_term_from_json(t, dim, i) for i, t in enumerate(raw_terms)))
    zero_tol = require_number(doc.get("zero_tol", 1e-12), "zero_tol")
    decomp = build(terms, zero_tol=zero_tol)
    return decomp if None in paulis else replace(decomp, paulis=paulis)


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


def round_to_bits(value: np.ndarray | float, bits: int) -> np.ndarray:
    """Round-to-nearest (ties to even) of 2^bits * value, clamped to B bits, elementwise."""
    scaled = np.rint(np.multiply(value, 1 << bits))
    return np.clip(scaled, 0, (1 << bits) - 1).astype(np.int64)
