"""Product-formula schedules, unitaries, and commutator error bounds.

A schedule is the full, unmerged factor list for r repetitions of one
product-formula step, in application order (factor 0 hits the state first).
First order steps through the terms ascending; the second-order step is the
palindrome descending-then-ascending with half weights; higher even orders
follow the usual five-block recursion

    S_{2k}(w) = S_{2k-2}(s_k w)^2  S_{2k-2}((1-4 s_k) w)  S_{2k-2}(s_k w)^2

with s_k = 1 / (4 - 4^(1/(2k-1))) (Suzuki, Phys. Lett. A 146, 319 (1990)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decomp import Decomposition, odd_parity
from .errors import CapExceeded, SpecError, require_cap
from .linalg import exp_unitary, spectral_norm

# Most matrix entries alpha_comm stacks at once (256 KiB), unless the L
# children of a single node need more.
_SLICE_ENTRIES = 1 << 14


@dataclass(frozen=True)
class ScheduleFactor:
    term: int
    weight: float


@dataclass(frozen=True)
class TrotterSchedule:
    L: int
    k: int
    r: int
    t: float
    factors: tuple[ScheduleFactor, ...]

    @property
    def M(self) -> int:
        return len(self.factors)


def suzuki_split(k: int) -> float:
    """Splitting weight s_k that lifts order 2k - 2 to order 2k (Suzuki,
    Phys. Lett. A 146, 319 (1990))."""
    return 1.0 / (4.0 - 4.0 ** (1.0 / (2 * k - 1)))


def _one_step(L: int, k: int) -> list[tuple[int, float]]:
    if k == 0:
        return [(term, 1.0) for term in range(L)]
    if k == 1:
        half = [(term, 0.5) for term in range(L)]
        return half[::-1] + half
    s = suzuki_split(k)
    inner = _one_step(L, k - 1)

    def scaled(w: float) -> list[tuple[int, float]]:
        return [(term, weight * w) for term, weight in inner]

    return scaled(s) + scaled(s) + scaled(1.0 - 4.0 * s) + scaled(s) + scaled(s)


def schedule(L: int, k: int, r: int, t: float) -> TrotterSchedule:
    """Full factor list for r steps of the order indexed by k."""
    if L < 1:
        raise SpecError("need at least one term")
    if r < 1:
        raise SpecError("step count r must be positive")
    if k < 0:
        raise SpecError("order index k must be non-negative")
    step = _one_step(L, require_cap("schedule_order", k, "order index"))
    require_cap("schedule_factors", len(step) * r, "schedule factors")
    factors = tuple(ScheduleFactor(term, weight) for term, weight in step * r)
    return TrotterSchedule(L=L, k=k, r=r, t=float(t), factors=factors)


def trotter_unitary(decomp: Decomposition, sched: TrotterSchedule) -> np.ndarray:
    """Apply every factor exponential in schedule order."""
    if sched.L != decomp.term_count:
        raise SpecError("schedule term count does not match decomposition")
    dt = sched.t / sched.r
    cache: dict[tuple[int, float], np.ndarray] = {}
    u = np.eye(decomp.dim, dtype=complex)
    for factor in sched.factors:
        key = (factor.term, factor.weight)
        if key not in cache:
            cache[key] = exp_unitary(decomp.terms[factor.term], factor.weight * dt)
        u = cache[key] @ u
    return u


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def _nonzero(stack: np.ndarray) -> np.ndarray:
    return stack.reshape(len(stack), -1).any(axis=1)


def _leaf_norms(terms: np.ndarray, level: np.ndarray, remaining: int, formed: list[int]):
    """Norms of the leaves `remaining` levels below `level`, in ascending
    tuple index; formed[0] counts the nodes made so far."""
    L = len(terms)
    formed[0] += len(level) * L
    require_cap("alpha_work", formed[0], "alpha_comm nested commutators")
    per_slice = max(1, _SLICE_ENTRIES // (L * terms[0].size))
    for lo in range(0, len(level), per_slice):
        part = level[lo : lo + per_slice]
        children = np.empty((len(part), L) + terms.shape[1:], dtype=complex)
        with np.errstate(all="ignore"):
            for a in range(L):
                children[:, a] = commutator(terms[a], part)
        if not np.isfinite(children).all():  # past float range: alpha_comm is inf
            yield np.inf
            return
        children = children.reshape((-1,) + terms.shape[1:])
        children = children[_nonzero(children)]
        if remaining == 1:
            yield from np.linalg.norm(children, 2, axis=(-2, -1)).tolist()
        else:
            yield from _leaf_norms(terms, children, remaining - 1, formed)


def _symplectic_alpha(paulis: tuple[tuple[int, int, float], ...], n: int, k: int) -> float:
    """alpha_comm of Pauli-string terms c_a P_a, summed over symplectic vectors.

    For a Pauli string Q, [c_a P_a, w Q] is 0 when P_a and Q commute and
    2 c_a w P_a Q otherwise, again a multiple of a Pauli string, whose
    norm is 2 |c_a| |w|.  Strings with masks (x_a, z_a) and (x_b, z_b)
    anticommute iff popcount(x_a & z_b) + popcount(z_a & x_b) is odd
    (Aaronson and Gottesman, PRA 70, 052328 (2004)), and P_a Q has masks
    (x_a ^ x_b, z_a ^ z_b) up to a phase the norm ignores.  So each level
    keeps, per string, the summed norm of the suffixes that reach it, and
    prepends every term to every string: L times the distinct strings per
    level, not L^(2k+1) tuples.
    """
    x, z, coeff = (np.array(col) for col in zip(*paulis))
    at_x, at_z, norm = x, z, coeff
    for _ in range(2 * k):
        anti = odd_parity((x[:, None] & at_z) ^ (z[:, None] & at_x))
        key = ((x[:, None] ^ at_x) << n | (z[:, None] ^ at_z))[anti]
        key, where = np.unique(key, return_inverse=True)
        norm = np.bincount(where, weights=(2.0 * coeff[:, None] * norm)[anti], minlength=len(key))
        at_x, at_z = key >> n, key & ((1 << n) - 1)
    return float(norm.sum())


def alpha_comm(decomp: Decomposition, k: int) -> float:
    """Sum of nested-commutator norms over all (2k+1)-tuples of terms.

    The tuple (i_0, ..., i_2k) names [A_{i_0}, [A_{i_1}, ..., A_{i_2k}]].
    A decomposition of Pauli-string document terms takes the symplectic
    sum (``_symplectic_alpha``).  Any other is built level by level from
    the innermost term out: a level stacks each nonzero suffix once, and
    the next level prepends every term as commutator(terms[a], level).  An
    exactly-zero suffix is dropped with its subtree, whose norms are all
    exactly 0.0.  Each level is ordered by the suffix's index i_j + L*i_{j+1}
    + ..., so the leaf norms arrive in ascending tuple index and their
    float sum is that of the loop over every tuple.  A level wider than
    _SLICE_ENTRIES matrix entries is expanded slice by slice, depth first,
    and the last level's norms are taken one slice at a time in one
    batched call; past the ``alpha_work`` cap it refuses.  A commutator
    past float range makes the sum inf.
    """
    if k < 1:
        raise SpecError("alpha_comm applies to k >= 1; k = 0 uses the pair bound")
    if decomp.paulis is not None:
        with np.errstate(over="ignore"):  # a sum past float range comes out inf
            return _symplectic_alpha(decomp.paulis, decomp.n, k)
    terms = np.stack(decomp.terms)
    # a plain float loop: builtin sum compensates on Python >= 3.12
    total = 0.0
    for norm in _leaf_norms(terms, terms[_nonzero(terms)], 2 * k, [len(terms)]):
        total += norm
    return total


def _alpha_once(decomp: Decomposition, k: int) -> float:
    """alpha_comm(decomp, k), kept in ``decomp.alphas``: it does not depend
    on t or r, so a sweep computes it, or hits its work cap, once per k."""
    memo = decomp.alphas
    if k not in memo:
        try:
            memo[k] = alpha_comm(decomp, k)
        except CapExceeded as exc:
            memo[k] = exc
    if isinstance(memo[k], CapExceeded):
        raise CapExceeded(*memo[k].args)
    return memo[k]


def error_bound(decomp: Decomposition, k: int, t: float, r: int) -> float:
    """A-priori product-formula error bound for the order indexed by k; for k >= 1
    alpha_comm t^(2k+1) / r^(2k), the shape of the commutator-scaling bound of
    Childs, Su, Tran, Wiebe and Zhu, PRX 11, 011020 (2021).  A commutator
    past float range gives inf; a power of t past it raises OverflowError."""
    if r < 1:
        raise SpecError("step count r must be positive")
    t = abs(float(t))
    if k == 0:
        acc = 0.0
        for b in range(decomp.term_count):
            for a in range(b):
                with np.errstate(all="ignore"):
                    comm = commutator(decomp.terms[b], decomp.terms[a])
                if not np.isfinite(comm).all():
                    return np.inf
                acc += spectral_norm(comm)
        return t**2 / (2 * r) * acc
    return _alpha_once(decomp, k) * t ** (2 * k + 1) / r ** (2 * k)


def optional_error_bound(decomp: Decomposition, k: int, t: float, r: int) -> float | None:
    """``error_bound``, or None when alpha_comm's work cap trips or the bound
    is past float range: the bound is optional output, so such a run reports
    it as absent."""
    try:
        bound = error_bound(decomp, k, t, r)
    except (CapExceeded, OverflowError):
        return None
    return bound if np.isfinite(bound) else None


def measured_error(decomp: Decomposition, sched: TrotterSchedule) -> float:
    """Spectral-norm distance between the product formula and the exact flow."""
    exact = exp_unitary(decomp.total(), sched.t)
    return spectral_norm(exact - trotter_unitary(decomp, sched))
