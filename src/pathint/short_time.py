"""Short-time path-integral simulation of a decomposed Hamiltonian.

The product formula is rewritten as a sum over paths of term eigenstates.
Each Trotter factor becomes a transition operator on the eigenstate index
register; the transition operator is synthesized as a linear combination of
signed permutation unitaries (one per magnitude replica b and color class
(c1, c2)), block encoded with uniform PREP, and boosted to near-unit success
amplitude with oblivious amplitude amplification.  Everything is computed
with dense or structured matrices; oracle use is accounted through the
query counter at the published per-application budget.

Register layout for one encoded step (slowest to fastest axis):
``b`` magnitude replica (2^B), ``c1``/``c2`` color indices (d padded to a
power of two), ``side`` (2), ``state`` (2^n).  Amplification adds one flag
axis in front.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import lcu
from .decomp import MAX_BITS, Decomposition, QueryCounter, ScheduleOverlaps
from .errors import InvariantViolation, SpecError, require_cap
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
    table = overlaps.pair_for_step(m)
    values, _, tau = _factor_eigendata(overlaps.decomp, overlaps.schedule, m)
    return table.overlap @ np.diag(np.exp(-1j * values * tau))


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


def _step_edges(overlaps: ScheduleOverlaps, m: int):
    """Colored edges of one step, as ``lcu.route`` columns ``(k, j, q, amp, carried)``.

    The genuine edge j -> q, where q is the c1-th genuine partner of j and
    j the c2-th genuine partner of q (both counted in ascending order), goes
    to cell k = c1 * d_pad + c2 and carries the overlap amplitude and the
    eigenphase of j.
    """
    table = overlaps.pair_for_step(m)
    values, _, tau = _factor_eigendata(overlaps.decomp, overlaps.schedule, m)
    colors = _pad_colors(overlaps.d)
    genuine = table.genuine
    q, j = np.nonzero(genuine)
    c1 = np.cumsum(genuine, axis=0)[q, j] - 1
    c2 = np.cumsum(genuine, axis=1)[q, j] - 1
    eigenphase = np.exp(-1j * values * tau)
    return c1 * colors + c2, j, q, table.overlap[q, j], eigenphase[j]


def _step_cells(overlaps: ScheduleOverlaps, m: int, bits: int) -> lcu.SignedPermutationCells:
    """Select cells of one step: the d^2-coloring of its overlap graph.

    Each edge of ``_step_edges`` is routed into its cell with its phase and
    rounded overlap magnitude.  Every other column keeps the folded side
    flip with threshold 0 and cancels in the replica average; padding
    colors hold no edges.
    """
    cells = _pad_colors(overlaps.d) ** 2
    perm, phase, thr = lcu.blank_cells(cells, overlaps.decomp.dim)
    lcu.route(perm, phase, thr, bits, *_step_edges(overlaps, m))
    return lcu.SignedPermutationCells(perm, phase, thr, bits, cells)


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
        if not 1 <= bits <= MAX_BITS:
            raise SpecError(f"magnitude precision must be 1 to {MAX_BITS} bits")
        self.bits = bits
        self.counter = counter if counter is not None else QueryCounter()
        self.d = overlaps.d
        self.d_pad = _pad_colors(self.d)
        self.dim = overlaps.decomp.dim
        self.width = 1 << bits
        self.subnormalization = float(self.d_pad**2)
        self.shape = (self.width, self.d_pad, self.d_pad, 2, self.dim)
        self.size = int(np.prod(self.shape))
        self._overlaps, self._m = overlaps, m
        self.edges = _step_edges(overlaps, m)

    @cached_property
    def cells(self) -> lcu.SignedPermutationCells:
        """Select cells of the register walks, built on first use."""
        return _step_cells(self._overlaps, self._m, self.bits)

    # -- structured applications --------------------------------------------

    def prep(self, vec: np.ndarray) -> np.ndarray:
        """Uniform coefficient loading: Hadamards on the b, c1, c2 axes.

        Self-inverse, so it serves as both the forward and adjoint stage.
        Leading copies of the register (the amplification flag) are
        transformed together.
        """
        v = vec.reshape((-1,) + self.shape)
        return lcu.hadamard_axes(v, (1, 2, 3)).reshape(vec.shape)

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
        (q, j) lies in one of them, so by the LCU lemma entry (q, j) is its
        replica average times its phase over d_pad^2: bit for bit the
        side-0 block of ``cells.average()`` over the subnormalization.
        """
        _, j, q, amp, carried = self.edges
        phase, thr = lcu.edge_rule(amp, carried, self.bits)
        out = np.zeros((self.dim, self.dim), dtype=complex)
        # added to zero as in the cell sum, which turns a -0.0 into +0.0
        out[q, j] += lcu.replica_average(thr, self.bits) * phase
        return out / self.subnormalization


# ---------------------------------------------------------------------------
# robust oblivious amplitude amplification


def rounds_for(subnormalization: float) -> int:
    """Smallest p with sin(pi / (2(2p+1))) <= 1/a."""
    if subnormalization < 1:
        raise SpecError("subnormalization below one")
    p = 0
    while np.sin(np.pi / (2 * (2 * p + 1))) > 1.0 / subnormalization + 1e-15:
        p += 1
    return p


class AmplifiedStep:
    """Flag-padded amplitude amplification around one block encoding.

    One flag qubit dilutes the encoded block from 1/a to exactly
    sin(pi/(2(2p+1))) so p reflection rounds rotate the success amplitude to
    one; the flagged branch flips the side qubit, leaving the measured
    zero-ancilla subspace untouched.
    """

    def __init__(self, encoding: BlockEncoding):
        self.encoding = encoding
        a = encoding.subnormalization
        self.p = rounds_for(a)
        self.a_prime = 1.0 / np.sin(np.pi / (2 * (2 * self.p + 1)))
        ratio = min(1.0, a / self.a_prime)
        self._cos = np.sqrt(ratio)
        self._sin = np.sqrt(max(0.0, 1.0 - ratio))
        self.shape = (2,) + encoding.shape
        self.size = 2 * encoding.size

    def _rotate_flag(self, v: np.ndarray, adjoint: bool) -> np.ndarray:
        """Flag-axis rotation |0> -> cos|0> + sin|1>, or its adjoint."""
        c, s = self._cos, self._sin
        combine, lower = (np.add, -s) if adjoint else (np.subtract, s)
        out = np.empty_like(v)
        spare = np.empty_like(v[0])
        np.multiply(c, v[0], out=out[0])
        combine(out[0], np.multiply(s, v[1], out=spare), out=out[0])
        np.multiply(lower, v[0], out=out[1])
        np.add(out[1], np.multiply(c, v[1], out=spare), out=out[1])
        return out

    def apply_w(self, vec: np.ndarray, adjoint: bool = False) -> np.ndarray:
        """W' = (PREP'+ x I) SEL' (PREP' x I); adjoint swaps SEL for SEL+.

        The flagged branch skips the select and flips the side qubit.
        """
        v = self._rotate_flag(vec.reshape(self.shape), adjoint=False)
        v = self.encoding.prep(v)
        v[0] = self.encoding.apply_select(v[0], adjoint=adjoint)
        v[1] = v[1, :, :, :, ::-1]
        v = self.encoding.prep(v)
        v = self._rotate_flag(v, adjoint=True)
        return v.reshape(vec.shape)

    def apply_reflection(self, vec: np.ndarray) -> np.ndarray:
        """R = -(1 - 2 W' Pi W'+)(1 - 2 Pi); Pi keeps the first dim amplitudes."""
        dim = self.encoding.dim
        v = vec.reshape(-1).copy()
        v[:dim] -= 2.0 * v[:dim]
        u = self.apply_w(v, adjoint=True)
        u[dim:] = 0.0
        u = self.apply_w(u)
        u *= 2.0
        u -= v
        return u.reshape(vec.shape)

    def flagged_block(self) -> np.ndarray:
        """System block of the flag-padded encoding before amplification.

        Equal to the replica-averaged transition divided by a', without
        touching the high-dimensional registers.
        """
        enc = self.encoding
        return enc.block() * enc.subnormalization / self.a_prime

    def _amplified_iterate(self) -> np.ndarray:
        def amplify(v: np.ndarray) -> np.ndarray:
            v = self.apply_w(v)
            for _ in range(self.p):
                v = self.apply_reflection(v)
            return v

        return lcu.system_block(amplify, self.size, self.encoding.dim)

    def _amplified_svd(self) -> np.ndarray:
        """Closed form of the reflection product on the encoded block.

        The reflections act as a rotation by 2*arcsin(sigma) in each
        singular-direction plane, so p rounds map every singular value of the
        flagged block to sin((2p+1) arcsin(sigma)).  This is an exact
        identity; the unit test checks it against the applied reflections.
        """
        a = self.flagged_block()
        u, sig, vh = np.linalg.svd(a)
        if np.any(sig > 1.0 + 1e-9):
            raise InvariantViolation("encoded block has singular value above one")
        angles = np.arcsin(np.minimum(sig, 1.0))
        boosted = np.sin((2 * self.p + 1) * angles)
        return (u * boosted[None, :]) @ vh

    def amplified(self) -> tuple[np.ndarray, float]:
        """Amplified system block and the worst-column success weight.

        Returns the zero-ancilla block of R^p W' in its exact singular-value
        form together with the smallest squared norm retained in the
        measured subspace over basis columns.  ``_amplified_iterate``
        applies the reflections to the register; the tests pin this form
        against it.
        """
        out = self._amplified_svd()
        weights = np.sum(np.abs(out) ** 2, axis=0)
        return out, float(weights.min())


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

    Amplified blocks are cached per (term pair, weight) step type; the oracle
    budget is charged per step application: 2p+1 select applications each.
    """
    counter = QueryCounter()
    sched = schedule(decomp.term_count, k, r, t)
    overlaps = ScheduleOverlaps(decomp, sched)
    cache: dict[tuple[int, int, float], tuple[np.ndarray, float]] = {}
    u = np.eye(decomp.dim, dtype=complex)
    min_weight = 1.0
    for m in range(sched.M):
        factor = sched.factors[m]
        nxt = sched.factors[m + 1].term if m + 1 < sched.M else factor.term
        key = (factor.term, nxt, factor.weight)
        if key not in cache:
            encoding = BlockEncoding(overlaps, m, bits)
            step = AmplifiedStep(encoding)
            cache[key] = step.amplified()
            p = step.p  # rounds_for(d_pad^2) of the schedule-wide d: one p for all
        block, weight = cache[key]
        min_weight = min(min_weight, weight)
        for name, cost in SELECT_BUDGET.items():
            counter.tick(name, (2 * p + 1) * cost)
        u = block @ u
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
        queries=counter.snapshot(),
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
