"""Short-time path-integral simulation of a decomposed Hamiltonian.

The product formula is rewritten as a sum over paths of term eigenstates.
Each Trotter factor becomes a transition operator on the eigenstate index
register; the transition operator is synthesized as a linear combination of
signed permutation unitaries (one per magnitude replica b and color class
(c1, c2)), block encoded with uniform PREP, and boosted to near-unit success
amplitude with oblivious amplitude amplification (``lcu.AmplifiedStep``,
shared with the long-time encoding).  ``simulate`` builds no encoding: it
stacks one repetition's step blocks, amplifies the stack with one odd
polynomial ladder (``lcu.amplified_block``), multiplies the steps once and
raises their product to the r-th repetition.  Everything is computed with
dense or structured matrices; oracle use is charged at the published
per-application budget.

Register layout for one encoded step (slowest to fastest axis):
``b`` magnitude replica (2^B), ``c1``/``c2`` color indices (d padded to a
power of two), ``side`` (2), ``state`` (2^n).  ``lcu.AmplifiedStep`` adds
one flag axis in front, and its flagged branch flips the side axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import lcu
from .decomp import Decomposition, PairOverlap, QueryCounter, ScheduleOverlaps, require_bits
from .errors import SpecError, require_cap
from .lcu import AmplifiedStep
from .linalg import exp_unitary, spectral_norm
from .trotter import TrotterSchedule, optional_error_bound, schedule

# Oracle queries consumed by one application of the select operation: the
# color check runs twice (eight index queries each), the partner index is
# computed and uncomputed directly, the magnitude is computed and uncomputed,
# and each phase oracle fires once.
SELECT_BUDGET = {"index": 18, "magnitude": 2, "phase": 1, "eigenphase": 1}


def _factor_eigendata(decomp: Decomposition, sched: TrotterSchedule, m: int):
    factor = sched.factors[m]
    es = decomp.eigensystems[factor.term]
    return es.values, es.vectors, factor.weight * sched.t / sched.r


def path_sum_propagator(decomp: Decomposition, sched: TrotterSchedule) -> np.ndarray:
    """Literal sum over all eigenstate paths, assembled as a matrix.

    Each path contributes the product of successive overlaps times the
    accumulated eigenvalue phase, attached to the dyad of its endpoint
    eigenvectors.
    """
    if sched.L != decomp.term_count:
        raise SpecError("schedule term count does not match decomposition")
    dim = decomp.dim
    M = sched.M
    require_cap("path_sum", dim**M, "path count")
    lams = []
    vecs = []
    taus = []
    for m in range(M):
        values, vectors, tau = _factor_eigendata(decomp, sched, m)
        lams.append(values)
        vecs.append(vectors)
        taus.append(tau)
    paths = np.unravel_index(np.arange(dim**M), (dim,) * M)
    phase_arg = np.zeros(dim**M)
    for m in range(M):
        phase_arg += lams[m][paths[m]] * taus[m]
    value = np.exp(-1j * phase_arg)
    for m in range(M - 1):
        overlap = vecs[m + 1].conj().T @ vecs[m]
        value = value * overlap[paths[m + 1], paths[m]]
    coeff = np.zeros((dim, dim), dtype=complex)
    np.add.at(coeff, (paths[M - 1], paths[0]), value)
    return vecs[M - 1] @ coeff @ vecs[0].conj().T


def transition_operator(overlaps: ScheduleOverlaps, m: int) -> np.ndarray:
    """One factor's unitary on the eigenstate index register.

    For a factor with a successor this is the overlap change of basis after
    the eigenvalue phase; the final factor reduces to the phase alone via the
    identity overlap pair.
    """
    return overlaps.pair_for_step(m).overlap @ np.diag(_eigenphase(overlaps, m))


def transition_product(decomp: Decomposition, sched: TrotterSchedule) -> np.ndarray:
    """All transition operators composed and conjugated back to matrix form."""
    overlaps = ScheduleOverlaps(decomp, sched)
    u = np.eye(decomp.dim, dtype=complex)
    for m in range(sched.M):
        u = transition_operator(overlaps, m) @ u
    v_first = decomp.eigensystems[sched.factors[0].term].vectors
    v_last = decomp.eigensystems[sched.factors[-1].term].vectors
    return v_last @ u @ v_first.conj().T


# ---------------------------------------------------------------------------
# the colored select cells and the alternating-sign synthesis


def _pad_colors(d: int) -> int:
    p = 1
    while p < d:
        p *= 2
    return p


def _pair_edges(table: PairOverlap, d_pad: int):
    """Colored edges of one (term, next term) pair, as ``(k, j, q, amp)``.

    The genuine edge j -> q, where q is the c1-th genuine partner of j and
    j the c2-th genuine partner of q (both counted in ascending order), goes
    to cell k = c1 * d_pad + c2 and carries the overlap amplitude; a step of
    the pair adds the eigenphase of j (``_eigenphase``) to make ``lcu.route`` columns.
    """
    genuine = table.genuine
    q, j = np.nonzero(genuine)
    c1 = np.cumsum(genuine, axis=0)[q, j] - 1
    c2 = np.cumsum(genuine, axis=1)[q, j] - 1
    return c1 * d_pad + c2, j, q, table.overlap[q, j]


def _eigenphase(overlaps: ScheduleOverlaps, m: int) -> np.ndarray:
    values, _, tau = _factor_eigendata(overlaps.decomp, overlaps.schedule, m)
    return np.exp(-1j * values * tau)


def synthesis_defect_bound(d: int, bits: int) -> float:
    """Worst-case distance of the synthesized step from the exact one."""
    return 2.0 * d * d / (1 << bits)


# ---------------------------------------------------------------------------
# block encoding


class BlockEncoding:
    """Uniform-PREP block encoding of one synthesized transition step.

    The encoding keeps its step's colored edges.  ``block()`` is its
    closed-form zero-ancilla block, summed from those edges; the register
    walks (``prep``, ``apply_select``, ``apply_w``) apply the unitary as
    structured tensor operations on select ``cells`` built on first use,
    and ``lcu.system_block`` checks ``block()`` by walking ``apply_w``
    (refused above the ``walk_register`` cap).  Applying the select stage
    charges the per-application oracle budget to the counter.
    """

    def __init__(
        self,
        overlaps: ScheduleOverlaps,
        m: int,
        bits: int,
        counter: QueryCounter | None = None,
    ):
        self.bits = require_bits(bits, "magnitude precision")
        self.counter = counter if counter is not None else QueryCounter()
        self.d = overlaps.d
        self.d_pad = _pad_colors(self.d)
        self.dim = overlaps.decomp.dim
        self.width = 1 << bits
        self.subnormalization = float(self.d_pad**2)
        self.shape = (self.width, self.d_pad, self.d_pad, 2, self.dim)
        self.size = int(np.prod(self.shape))
        k, j, q, amp = _pair_edges(overlaps.pair_for_step(m), self.d_pad)
        self.edges = (k, j, q, amp, _eigenphase(overlaps, m)[j])

    @cached_property
    def cells(self) -> lcu.SignedPermutationCells:
        """Select cells of the register walks, built on first use: each edge
        routed into its color cell, every other column a folded side flip
        that cancels in the replica average."""
        cells = self.d_pad**2
        perm, phase, thr = lcu.blank_cells(cells, self.dim)
        lcu.route(perm, phase, thr, self.bits, *self.edges)
        return lcu.SignedPermutationCells(perm, phase, thr, self.bits, cells)

    # -- structured applications --------------------------------------------

    def prep(self, vec: np.ndarray) -> np.ndarray:
        """Uniform coefficient loading: Hadamards on the b, c1, c2 axes.

        Self-inverse, so it serves as both the forward and adjoint stage.
        """
        v = vec.reshape(self.shape)
        return lcu.hadamard_axes(v, (0, 1, 2)).reshape(vec.shape)

    def apply_select(self, vec: np.ndarray, adjoint: bool = False) -> np.ndarray:
        for name, cost in SELECT_BUDGET.items():
            self.counter.tick(name, cost)
        return self.cells.apply(vec, adjoint)

    def apply_w(self, vec: np.ndarray, adjoint: bool = False) -> np.ndarray:
        v = self.prep(vec)
        v = self.apply_select(v, adjoint=adjoint)
        return self.prep(v)

    def block(self) -> np.ndarray:
        """System block of Pi W Pi, summed from the step's edges.

        PREP|0> is uniform over the d_pad^2 cells and each genuine edge
        (q, j) lies in one of them, so by the LCU lemma the block is
        ``lcu.edge_sum`` of the edges over d_pad^2.
        """
        _, j, q, amp, carried = self.edges
        out = np.zeros((self.dim, self.dim), dtype=complex)
        return lcu.edge_sum(out, q, j, amp, carried, self.bits) / self.subnormalization


# ---------------------------------------------------------------------------
# amplification bounds (the amplification itself is ``lcu.AmplifiedStep``)


def amplified_defect_bound(d: int, bits: int) -> float:
    """Empirically validated envelope for the amplified block's distance."""
    return 16.0 * d * d / (1 << bits)


def success_weight_bound(d: int, bits: int) -> float:
    return 1.0 - 64.0 * d**4 / float(1 << (2 * bits))


# ---------------------------------------------------------------------------
# end-to-end simulation


@dataclass(frozen=True)
class SimulationResult:
    unitary: np.ndarray
    measured_error: float
    rounding_bound: float
    trotter_bound: float | None  # None past alpha_comm's work cap
    queries: dict[str, int]
    n: int
    k: int
    r: int
    t: float
    bits: int
    d: int
    p: int
    M: int
    min_success_weight: float


def simulate(
    decomp: Decomposition,
    k: int,
    r: int,
    t: float,
    bits: int,
) -> SimulationResult:
    """Compose every amplified transition step into the full propagator.

    The schedule is one repetition of S factors written r times, so only
    the S steps of one repetition and the final identity-pair step are
    amplified, one per (term pair, weight) step type: one d_pad, so one p, and
    one stack of flagged blocks summed from each pair's edges for one ladder.
    With Q the product of a repetition's first S - 1 blocks and B_cross the
    block whose next term opens the next repetition, the product is
    B_final Q (B_cross Q)^(r-1).  The oracle budget is charged per step
    application: 2p+1 select applications for each of the M = rS steps.
    """
    sched = schedule(decomp.term_count, k, r, t)
    require_bits(bits, "magnitude precision")
    overlaps = ScheduleOverlaps(decomp, sched)
    dim, d_pad, S = decomp.dim, _pad_colors(overlaps.d), sched.M // r
    edges = {pair: _pair_edges(table, d_pad) for pair, table in overlaps.tables.items()}
    keys = {m: (*overlaps.pairs[m], sched.factors[m].weight) for m in [*range(S), sched.M - 1]}
    types = {key: m for m, key in keys.items()}  # one step of each type
    columns = []
    for slot, m in enumerate(types.values()):
        _, j, to, amp = edges[overlaps.pairs[m]]
        columns.append((slot * dim + to, j, amp, _eigenphase(overlaps, m)[j]))
    to, j, amp, carried = map(np.concatenate, zip(*columns))
    p, a_prime = lcu.flag_dilution(d_pad**2)
    stack = lcu.edge_sum(np.zeros((len(types) * dim, dim), complex), to, j, amp, carried, bits)
    stack /= a_prime  # in place: one unamplified stack lives through the ladder
    amplified = lcu.amplified_block(stack.reshape(-1, dim, dim), p)
    min_weight = min(1.0, float(np.sum(np.abs(amplified) ** 2, axis=-2).min()))
    blocks = dict(zip(types, amplified))
    q = np.eye(dim, dtype=complex)
    for m in range(S - 1):
        q = blocks[keys[m]] @ q
    u = blocks[keys[sched.M - 1]] @ q
    if r > 1:
        u = u @ np.linalg.matrix_power(blocks[keys[S - 1]] @ q, r - 1)
    v_first = decomp.eigensystems[sched.factors[0].term].vectors
    v_last = decomp.eigensystems[sched.factors[-1].term].vectors
    result = v_last @ u @ v_first.conj().T
    exact = exp_unitary(decomp.total(), t)
    measured = spectral_norm(result - exact)
    d = overlaps.d
    rounding = decomp.term_count * 5**k * r * d * d / float(1 << bits)
    trotter_term = optional_error_bound(decomp, k, t, r)
    return SimulationResult(
        unitary=result,
        measured_error=measured,
        rounding_bound=rounding,
        trotter_bound=trotter_term,
        queries={name: sched.M * (2 * p + 1) * cost for name, cost in SELECT_BUDGET.items()},
        n=decomp.n,
        k=k,
        r=r,
        t=float(t),
        bits=bits,
        d=d,
        p=p,
        M=sched.M,
        min_success_weight=min_weight,
    )
