"""Shared helpers for the test suite: small operators and random instances."""

from __future__ import annotations

import numpy as np

I2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

PAULI = {"I": I2, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}


def lower_cap(monkeypatch, name: str, limit: int) -> None:
    """Lower the limit of cap ``name`` for one test."""
    import dataclasses

    from pathint.errors import CAPS

    monkeypatch.setitem(CAPS, name, dataclasses.replace(CAPS[name], limit=limit))


def forbid_allocation(monkeypatch, most: int = 0) -> None:
    """Make np.arange, np.zeros and np.empty raise, before allocating, when
    asked for more than ``most`` elements."""
    def shape_size(shape, *rest):
        return int(np.prod(shape, dtype=object))

    sizes = {
        "arange": lambda *args: args[0] if len(args) == 1 else args[1] - args[0],
        "zeros": shape_size,
        "empty": shape_size,
    }
    for name, size in sizes.items():
        def guarded(*args, _original=getattr(np, name), _size=size, **kwargs):
            if _size(*args) > most:
                raise AssertionError(f"np.{_original.__name__} allocated past a cap")
            return _original(*args, **kwargs)

        monkeypatch.setattr(np, name, guarded)


def propagator_self_check(eigensystem, total_time: float, steps: int) -> float:
    """Richardson-style ratio check for the midpoint rule on a chunk source.

    Returns ||U_steps - U_4steps|| / ||U_2steps - U_4steps||.  A healthy
    second-order rule gives a ratio of about 4; callers require >= 3.
    """
    from pathint.linalg import spectral_norm, time_ordered_propagator

    u1, u2, u4 = (time_ordered_propagator(eigensystem, total_time, k * steps) for k in (1, 2, 4))
    denom = spectral_norm(u2 - u4)
    if denom == 0.0:
        return np.inf
    return spectral_norm(u1 - u4) / denom


def ode_propagator(h, total_time: float) -> np.ndarray:
    """U(1) for i dU/ds = T h(s) U, U(0) = 1, by scipy's DOP853 at rtol 1e-13.

    ``h`` maps a float s to one matrix.  The oracle shares nothing with the
    midpoint rule of ``linalg.converged_propagator``.
    """
    from scipy.integrate import solve_ivp

    dim = h(0.0).shape[0]

    def rhs(s: float, y: np.ndarray) -> np.ndarray:
        return (-1j * total_time * (h(s) @ y.reshape(dim, dim))).reshape(-1)

    sol = solve_ivp(
        rhs, (0.0, 1.0), np.eye(dim, dtype=complex).reshape(-1),
        method="DOP853", rtol=1e-13, atol=1e-13,
    )
    assert sol.success, sol.message
    return sol.y[:, -1].reshape(dim, dim)


def kron_all(*mats: np.ndarray) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


def pauli_string(label: str) -> np.ndarray:
    return kron_all(*(PAULI[c] for c in label))


def random_hermitian(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * (a + a.conj().T) / 2


def random_diagonal(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    return np.diag(rng.normal(size=dim).astype(complex)) * scale


def random_decomposition_terms(
    rng: np.random.Generator, n: int, terms: int, scale: float = 1.0
) -> list[np.ndarray]:
    """Term 0 diagonal, the rest dense Hermitian; generic spectra."""
    dim = 2**n
    out = [random_diagonal(rng, dim, scale)]
    for _ in range(terms - 1):
        out.append(random_hermitian(rng, dim, scale))
    return out


# Spectrally tilted pair whose eigenbases reproduce the standard two-qubit
# worked example (computational basis vs Z-basis-on-qubit-0 / X-basis-on-
# qubit-1) with eigenvalues already ascending in tensor order, so the
# deterministic sorted gauge enumerates states exactly as that example does.
def tilted_example_pair() -> list[np.ndarray]:
    h0 = np.diag(np.array([0.0, 1.0, 2.0, 3.0], dtype=complex))
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    minus = np.array([1, -1], dtype=complex) / np.sqrt(2)
    e0 = np.array([1, 0], dtype=complex)
    e1 = np.array([0, 1], dtype=complex)
    basis = [
        np.kron(e0, plus),
        np.kron(e0, minus),
        np.kron(e1, plus),
        np.kron(e1, minus),
    ]
    h1 = sum(float(k) * np.outer(v, v.conj()) for k, v in enumerate(basis))
    return [h0, np.asarray(h1)]


def random_smooth_system(rng, dim=3, terms=3, grid=64, max_freq=3):
    """Well-gapped diagonal base plus small smooth sinusoidal drives.

    Base gaps sit in [1.8, 2.6] and the total drive stays below 0.4, so
    eigenvalue curves never approach each other.  The derivative callback
    is analytic by construction, and both callbacks take an array of s.
    """
    from pathint.long_time import TimeDependentHamiltonian

    base = np.diag(np.cumsum(np.concatenate([[0.0], rng.uniform(1.8, 2.6, size=dim - 1)])))
    gens = []
    for _ in range(terms):
        g = random_hermitian(rng, dim)
        g = g * (0.12 / max(1.0, np.linalg.norm(g, 2)))
        freq = int(rng.integers(1, max_freq + 1))
        phase = float(rng.uniform(0.0, 2.0 * np.pi))
        gens.append((g, freq, phase))

    def h(s):
        s = np.asarray(s, dtype=float)[..., None, None]
        out = np.zeros(s.shape[:-2] + (dim, dim), dtype=complex) + base
        for g, f, p in gens:
            out = out + np.sin(np.pi * f * s + p) * g
        return out

    def dh(s):
        s = np.asarray(s, dtype=float)[..., None, None]
        out = np.zeros(s.shape[:-2] + (dim, dim), dtype=complex)
        for g, f, p in gens:
            out = out + np.pi * f * np.cos(np.pi * f * s + p) * g
        return out

    return TimeDependentHamiltonian(dim=dim, h=h, dh=dh, grid=grid)


def class_edges(cells, k: int) -> set[tuple[int, int]]:
    """Edges (j, q) of select cell k: the side-0 columns it routes to q < N."""
    dim = cells.perm.shape[1] // 2
    return {(j, int(q)) for j, q in enumerate(cells.perm[k, :dim]) if q < dim}


def route_oracle(perm, phase, thr, bits: int, edges) -> None:
    """lcu.route as a loop over edge tuples (k, j, to, amp, carried).

    Each edge is written on its own, with builtin abs and round on its
    scalars; lcu.route must write the same tables bit for bit.
    """

    def unit_phase(z: complex) -> complex:
        mag = abs(z)
        return z / mag if mag > 0 else 1.0

    def round_to_bits(value: float, bits: int) -> int:
        scaled = round(value * (1 << bits))
        return int(min((1 << bits) - 1, max(0, scaled)))

    dim = perm.shape[1] // 2
    for k, j, to, amp, carried in edges:
        perm[k, j] = to
        perm[k, dim + to] = dim + j
        phase[k, j] = carried * unit_phase(amp)
        thr[k, j] = round_to_bits(abs(amp), bits)


def average_oracle(cells, weights=1.0) -> np.ndarray:
    """Replica-averaged sum of the cells, cell k scaled by ``weights[k]``, as a
    loop that adds one cell at a time: a dense (2N x 2N) matrix."""
    from pathint.lcu import replica_average

    two_n = cells.perm.shape[1]
    out = np.zeros((two_n, two_n), dtype=complex)
    cols = np.arange(two_n)
    weights = np.broadcast_to(weights, len(cells.perm))
    for perm, phase, thr, w in zip(cells.perm, cells.phase, cells.thr, weights):
        out[perm, cols] += w * replica_average(thr, cells.bits) * phase
    return out


def dense_document(doc: dict) -> dict:
    """The dense-matrix decomposition document of a Pauli document's terms."""
    from pathint.decomp import decomposition_from_json

    terms = decomposition_from_json(doc).terms
    return {
        "n": doc["n"],
        "terms": [[[[v.real, v.imag] for v in row] for row in term] for term in terms],
    }


def alpha_comm_oracle(decomp, k: int) -> float:
    """The nested-commutator sum as a plain loop over every (2k+1)-tuple.

    Tuple flat = i_0 + L*i_1 + ... is formed from scratch and its norm added
    in ascending flat order; trotter.alpha_comm must match it bit for bit.
    """
    from pathint.linalg import spectral_norm

    L = decomp.term_count
    depth = 2 * k + 1
    total = 0.0
    for flat in range(L**depth):
        idx = []
        rem = flat
        for _ in range(depth):
            idx.append(rem % L)
            rem //= L
        nested = decomp.terms[idx[-1]]
        for i in range(depth - 2, -1, -1):
            a = decomp.terms[idx[i]]
            nested = a @ nested - nested @ a
        total += spectral_norm(nested)
    return total


def split_steps(cfg, values: np.ndarray, state: np.ndarray, steps: int):
    """Yield a grid state after each of ``steps`` split steps.

    Each step is ``lattice.split_step_reference`` without a dense matrix: the
    kinetic factor is diagonal in the Fourier basis (Feit, Fleck and Steiger,
    J. Comput. Phys. 47, 412 (1982)), so a step is two phase vectors, built
    once, around a forward and an inverse transform.  One state at a time,
    apart from the stacked walk ``lattice.trajectory``.
    """
    potential = np.exp(-1j * cfg.tau * values)
    kinetic = np.exp(-1j * cfg.tau * cfg.momenta() ** 2 / (2.0 * cfg.mass))
    for _ in range(steps):
        modes = np.fft.fft(potential * state, norm="ortho")
        state = np.fft.ifft(kinetic * modes, norm="ortho")
        yield state


def signed_permutation(overlaps, m: int, b: int, c1: int, c2: int, bits: int) -> np.ndarray:
    """Dense signed permutation of short-time select cell (c1, c2) at replica b,
    before the side flip."""
    from pathint import lcu
    from pathint.errors import SpecError
    from pathint.short_time import BlockEncoding, _pad_colors

    if not 0 <= b < (1 << bits):
        raise SpecError(f"replica index {b} outside B={bits} range")
    if not 0 <= c1 < overlaps.d or not 0 <= c2 < overlaps.d:
        raise SpecError("color index out of range")
    cells = BlockEncoding(overlaps, m, bits).cells
    k = c1 * _pad_colors(overlaps.d) + c2
    dim = overlaps.decomp.dim
    u = np.zeros((2 * dim, 2 * dim), dtype=complex)
    rows = (cells.perm[k] + dim) % (2 * dim)  # undo the folded side flip
    sign = np.where(lcu.replica_flip(b, cells.thr[k]), -1.0, 1.0)
    u[rows, np.arange(2 * dim)] = cells.phase[k] * sign
    return u


def projected_step(overlaps, m: int, bits: int) -> np.ndarray:
    """Side-0 block of the alternating sum (the synthesized transition)."""
    from pathint.short_time import BlockEncoding

    dim = overlaps.decomp.dim
    return average_oracle(BlockEncoding(overlaps, m, bits).cells)[:dim, :dim]


def applied_amplification(step) -> tuple[np.ndarray, float]:
    """``step.amplified()`` through the reflections applied to the register:
    the amplified block and its worst-column success weight."""
    block = step._amplified_iterate()
    return block, float(np.sum(np.abs(block) ** 2, axis=0).min())


def amplified_svd_oracle(block: np.ndarray, p: int) -> np.ndarray:
    """``lcu.amplified_block`` by a dense SVD: sin((2p+1) arcsin sigma) on
    each singular value sigma (clipped to one)."""
    u, sig, vh = np.linalg.svd(block)
    return (u * np.sin((2 * p + 1) * np.arcsin(np.minimum(sig, 1.0)))) @ vh


def step_loop_simulation(decomp, k: int, r: int, t: float, bits: int):
    """``short_time.simulate``'s unitary, queries, p and worst success weight
    from a loop that multiplies all M amplified step blocks in schedule order,
    amplifying each step type where it first occurs."""
    from pathint import short_time as sh
    from pathint.decomp import QueryCounter, ScheduleOverlaps
    from pathint.trotter import schedule

    sched = schedule(decomp.term_count, k, r, t)
    overlaps = ScheduleOverlaps(decomp, sched)
    counter = QueryCounter()
    steps = {}
    u = np.eye(decomp.dim, dtype=complex)
    weights = []
    for m, factor in enumerate(sched.factors):
        nxt = sched.factors[m + 1].term if m + 1 < sched.M else factor.term
        key = (factor.term, nxt, factor.weight)
        if key not in steps:
            step = sh.AmplifiedStep(sh.BlockEncoding(overlaps, m, bits))
            steps[key] = step.amplified() + (step.p,)
        block, weight, p = steps[key]
        weights.append(weight)
        for name, cost in sh.SELECT_BUDGET.items():
            counter.tick(name, (2 * p + 1) * cost)
        u = block @ u
    v_first = decomp.eigensystems[sched.factors[0].term].vectors
    v_last = decomp.eigensystems[sched.factors[-1].term].vectors
    return v_last @ u @ v_first.conj().T, counter.counts, p, min([1.0] + weights)


def lagrangian_csv_oracle(params: dict) -> bytes:
    """lagrangian-sim's CSV from a plain loop: one row of numpy calls per step.

    The circuit step is the two action-oracle phases around one transform,
    one state at a time, apart from the stacked walk ``lattice.trajectory``
    that the CLI streams a block of rows at a time; it must write these
    bytes exactly.
    """
    from pathint import cli
    from pathint.lattice import LatticeConfig, action_phase, require_normalized

    cfg = LatticeConfig(n=params["n"], x_max=params["xmax"], mass=params["mass"], r=params["r"])
    potential = cli._potential_from_param(params["potential"], cfg)
    state = reference = cli._initial_state(params["initial"], cfg)
    values = potential.grid_values(cfg)
    q = np.arange(cfg.dim)
    first, second = action_phase(cfg, values, q, 0), action_phase(cfg, values, 0, q)
    references = split_steps(cfg, values, state, cfg.r)
    positions = cfg.positions()
    momenta = cfg.momenta()
    lines = ["step,norm,fidelity,position_mean,momentum_mean"]
    for step in range(cfg.r + 1):
        if step > 0:
            require_normalized(cfg, state, "lagrangian_step")
            state = second * np.fft.fft(first * state, norm="ortho")
            reference = next(references)
        norm = float(np.linalg.norm(state))
        fidelity = float(abs(np.vdot(reference, state)))
        weights = np.abs(state) ** 2
        modes = np.abs(np.fft.fft(state, norm="ortho")) ** 2
        row = [step, norm, fidelity, float(weights @ positions), float(modes @ momenta)]
        lines.append(",".join(cli._fmt(value) for value in row))
    return ("\n".join(lines) + "\n").encode()


def smooth_eigensystem_oracle(ham, s_grid=None):
    """long_time.smooth_eigensystem as a greedy matching loop over grid steps.

    At each step the transported frame's overlaps with the next raw eigh
    frame are claimed largest first, and each column is re-phased from the
    step before.  Production must give the same values bit for bit and the
    same vectors up to rounding, and refuse the same inputs.
    """
    from pathint.errors import InvariantViolation, SpecError
    from pathint.linalg import check_hermitian, hermitian_eig
    from pathint.long_time import GAP_FLOOR, SmoothEigensystem

    if s_grid is None:
        s_grid = np.linspace(0.0, 1.0, ham.grid + 1)
    s_grid = np.asarray(s_grid, dtype=float)
    if s_grid.ndim != 1 or len(s_grid) < 2:
        raise SpecError("need at least two grid points to transport a gauge")
    count, dim = len(s_grid), ham.dim
    hams = check_hermitian(ham.h(s_grid))
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
    gap = float(np.min(np.diff(np.sort(values, axis=1), axis=1)))
    if gap <= GAP_FLOOR * max(1.0, float(np.max(np.abs(values)))):
        raise InvariantViolation("spectral gap collapsed below tolerance mid-grid")
    return eigsys
