"""Hamiltonian decompositions and the simulated sparse-access oracles.

A decomposition is an ordered list of Hermitian terms whose sum is the full
Hamiltonian; term 0 must be diagonal.  For every ordered pair of terms that
appear adjacently in a product-formula schedule we tabulate the unitary of
eigenbasis overlaps, read off the sparsity d (the largest number of
non-negligible overlaps in any row or column), and pad the partner lists to
an exactly d-regular bipartite structure so downstream enumeration oracles
are total functions.

The oracle suite exposes the four classical callables the query-model
algorithms consume (partner enumeration, B-bit overlap magnitude, overlap
phase, eigenvalue phase), each wired to a shared query counter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import InvariantViolation, SpecError
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
        coeff = float(entry.get("coeff", 1.0))
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
        n = int(doc["n"])
        raw_terms = doc["terms"]
    except KeyError as exc:
        raise SpecError(f"decomposition: missing field {exc}") from exc
    if n < 1:
        raise SpecError("n must be >= 1")
    if not isinstance(raw_terms, list) or not raw_terms:
        raise SpecError("'terms' must be a non-empty list")
    dim = 2**n
    terms = [_term_from_json(t, dim, i) for i, t in enumerate(raw_terms)]
    zero_tol = float(doc.get("zero_tol", 1e-12))
    return build(terms, zero_tol=zero_tol)


# ---------------------------------------------------------------------------
# overlap tables


@dataclass(frozen=True)
class PairOverlap:
    """Overlap data for one ordered term pair (current -> next).

    ``overlap[q, j]`` is the amplitude for source eigenstate j of the current
    term against target eigenstate q of the next term.  ``fwd``/``bwd`` list
    exactly d partners per state: genuine ones ascending, then zero-amplitude
    padding ascending.  The two tables enumerate the same d-regular edge set.
    """

    overlap: np.ndarray
    fwd: np.ndarray
    bwd: np.ndarray
    fwd_genuine: np.ndarray
    d: int


def _complete_regular(genuine: np.ndarray, d: int) -> np.ndarray | None:
    """Extend a bipartite adjacency (max degree <= d) to exactly d-regular.

    Padding edges are chosen smallest-index-first; when the greedy choice is
    blocked, one previously added padding edge is rewired.  Genuine edges are
    never touched.  Returns None when no completion is found at this degree;
    padding may only sit on zero-amplitude pairs, and some degree profiles
    have no simple d-regular extension at all (the caller then retries with
    d + 1).
    """
    adj = genuine.copy()
    padded = np.zeros_like(adj)
    size = adj.shape[0]
    deg_l = adj.sum(axis=1)
    deg_r = adj.sum(axis=0)
    if deg_l.max(initial=0) > d or deg_r.max(initial=0) > d:
        raise InvariantViolation("genuine degree exceeds requested regularity")
    for j in range(size):
        while deg_l[j] < d:
            free = np.flatnonzero((deg_r < d) & ~adj[j])
            if free.size:
                q = int(free[0])
                adj[j, q] = padded[j, q] = True
                deg_l[j] += 1
                deg_r[q] += 1
                continue
            # every deficient target is already a partner of j: rewire one
            # padding edge (j2, q2) so that j gains q2 and q_star gains j2
            done = False
            for q_star in np.flatnonzero(deg_r < d):
                for j2, q2 in np.argwhere(padded):
                    if adj[j, q2] or adj[j2, q_star]:
                        continue
                    adj[j2, q2] = padded[j2, q2] = False
                    adj[j, q2] = padded[j, q2] = True
                    adj[j2, q_star] = padded[j2, q_star] = True
                    deg_l[j] += 1
                    deg_r[q_star] += 1
                    done = True
                    break
                if done:
                    break
            if not done:
                return None
    return padded


def _partner_table(adj: np.ndarray, genuine: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-state partner lists along one side: genuine ascending, pad ascending."""
    size = adj.shape[0]
    d = int(adj.sum(axis=1 - axis).max(initial=0))
    partners = np.zeros((size, d), dtype=np.int64)
    gen_mask = np.zeros((size, d), dtype=bool)
    for s in range(size):
        row_adj = adj[s] if axis == 0 else adj[:, s]
        row_gen = genuine[s] if axis == 0 else genuine[:, s]
        gen = np.flatnonzero(row_adj & row_gen)
        pad = np.flatnonzero(row_adj & ~row_gen)
        row = np.concatenate([gen, pad])
        partners[s] = row
        gen_mask[s, : gen.size] = True
    return partners, gen_mask


def _pair_overlap(decomp: Decomposition, cur: int, nxt: int, d: int) -> PairOverlap | None:
    v_cur = decomp.eigensystems[cur].vectors
    v_nxt = decomp.eigensystems[nxt].vectors
    overlap = v_nxt.conj().T @ v_cur
    genuine = np.abs(overlap) > decomp.zero_tol
    # genuine[q, j]: edge between source j (columns) and target q (rows)
    padded = _complete_regular(genuine.T, d)  # row-indexed by source j
    if padded is None:
        return None
    adj = genuine.T | padded
    fwd, fwd_gen = _partner_table(adj, genuine.T, 0)
    bwd, _ = _partner_table(adj, genuine.T, 1)
    return PairOverlap(
        overlap=overlap,
        fwd=fwd,
        bwd=bwd,
        fwd_genuine=fwd_gen,
        d=d,
    )


def _adjacent_pairs(schedule: "TrotterSchedule") -> list[tuple[int, int]]:
    terms = [f.term for f in schedule.factors]
    pairs = []
    for a, b in zip(terms, terms[1:]):
        if (a, b) not in pairs:
            pairs.append((a, b))
    return pairs


def _pair_degree(decomp: Decomposition, cur: int, nxt: int) -> int:
    v_cur = decomp.eigensystems[cur].vectors
    v_nxt = decomp.eigensystems[nxt].vectors
    genuine = np.abs(v_nxt.conj().T @ v_cur) > decomp.zero_tol
    return int(max(genuine.sum(axis=0).max(), genuine.sum(axis=1).max()))


def sparsity(decomp: Decomposition, schedule: "TrotterSchedule") -> int:
    """Largest overlap count across all adjacent term pairs in the schedule."""
    pairs = _adjacent_pairs(schedule)
    if not pairs:
        return 1
    return max(_pair_degree(decomp, a, b) for a, b in pairs)


class ScheduleOverlaps:
    """Padded overlap tables for every transition step of a schedule.

    The final factor has no successor; its table is the identity pair
    (term, term), which the block-encoding machinery uses to realize the
    trailing diagonal phase through the same code path.

    ``d`` is the common partner-slot count.  It equals the genuine sparsity
    except when some pair's overlap graph admits no simple d-regular
    extension, in which case every table is rebuilt at the smallest workable
    degree.
    """

    def __init__(self, decomp: Decomposition, schedule: "TrotterSchedule"):
        self.decomp = decomp
        self.schedule = schedule
        pairs = _adjacent_pairs(schedule)
        last = schedule.factors[-1].term
        if (last, last) not in pairs:
            pairs.append((last, last))
        deg = sparsity(decomp, schedule)
        while True:
            tables = {}
            for cur, nxt in pairs:
                table = _pair_overlap(decomp, cur, nxt, deg)
                if table is None:
                    break
                tables[(cur, nxt)] = table
            else:
                break
            if deg >= decomp.dim:
                raise InvariantViolation("regular completion failed at full degree")
            deg += 1
        self.d = deg
        self._tables = tables

    def pair_for_step(self, m: int) -> PairOverlap:
        factors = self.schedule.factors
        if not 0 <= m < len(factors):
            raise SpecError(f"step index {m} outside schedule of {len(factors)} factors")
        cur = factors[m].term
        nxt = factors[m + 1].term if m + 1 < len(factors) else cur
        return self._tables[(cur, nxt)]

    def partner(self, m: int, b: int, j: int, p: int) -> int:
        """p-th listed partner of state j on side b of transition step m."""
        table = self.pair_for_step(m)
        if b not in (0, 1):
            raise SpecError("side flag b must be 0 or 1")
        if not 0 <= j < self.decomp.dim:
            raise SpecError(f"state index {j} out of range")
        if not 0 <= p < self.d:
            raise SpecError(f"partner slot {p} out of range for d={self.d}")
        return int((table.fwd if b == 0 else table.bwd)[j, p])


# ---------------------------------------------------------------------------
# oracle suite


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


class OracleSuite:
    """Classical stand-ins for the quantum data-access oracles.

    Each callable increments the shared query counter.
    """

    def __init__(
        self,
        decomp: Decomposition,
        schedule: "TrotterSchedule",
        bits: int,
        counter: QueryCounter | None = None,
    ):
        if bits < 1:
            raise SpecError("magnitude precision must be at least one bit")
        self.decomp = decomp
        self.schedule = schedule
        self.bits = bits
        self.overlaps = ScheduleOverlaps(decomp, schedule)
        self.counter = counter if counter is not None else QueryCounter()

    @property
    def d(self) -> int:
        return self.overlaps.d

    # -- classical callables -------------------------------------------------

    def index(self, m: int, b: int, j: int, p: int) -> int:
        self.counter.tick("index")
        return self.overlaps.partner(m, b, j, p)

    def magnitude(self, m: int, j: int, q: int) -> int:
        self.counter.tick("magnitude")
        amp = self.overlaps.pair_for_step(m).overlap[q, j]
        return round_to_bits(abs(amp), self.bits)

    def phase(self, m: int, j: int, q: int) -> complex:
        self.counter.tick("phase")
        amp = self.overlaps.pair_for_step(m).overlap[q, j]
        if abs(amp) <= self.decomp.zero_tol:
            return 1.0 + 0j
        return amp / abs(amp)

    def eigenphase(self, m: int, j: int) -> complex:
        self.counter.tick("eigenphase")
        sched = self.schedule
        factor = sched.factors[m]
        lam = self.decomp.eigensystems[factor.term].values[j]
        return complex(np.exp(-1j * lam * factor.weight * sched.t / sched.r))
