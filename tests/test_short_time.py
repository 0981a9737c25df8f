from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pathint import decomp as dc
from pathint import lcu
from pathint import short_time as sh
from pathint.errors import CAPS, CapExceeded, SpecError
from pathint.linalg import exp_unitary, spectral_norm
from pathint.trotter import schedule, trotter_unitary

from support import (
    amplified_svd_oracle,
    applied_amplification,
    class_edges,
    pauli_string,
    projected_step,
    random_decomposition_terms,
    signed_permutation,
    step_loop_simulation,
    tilted_example_pair,
)


def zz_zx():
    return dc.build([pauli_string("ZZ"), pauli_string("ZX")])


def z_x():
    return dc.build([pauli_string("Z"), pauli_string("X")])


def zz_xx_yz():
    return dc.build([pauli_string("ZZ"), pauli_string("XX"), pauli_string("YZ")])


def wide_zz_xx_yz():
    """A 5-qubit short-wide label set: d = 4, so p = 13 and 2p+1 = 27."""
    return dc.decomposition_from_json({"n": 5, "terms": [
        {"pauli": "ZZIII", "coeff": 0.8}, {"pauli": "XXIII", "coeff": 0.45},
        {"pauli": "IIYZI", "coeff": 0.6},
    ]})


def givens(dim, i, j, theta):
    g = np.eye(dim)
    c, s = np.cos(theta), np.sin(theta)
    g[i, i] = c
    g[j, j] = c
    g[i, j] = -s
    g[j, i] = s
    return g


def three_sparse_pair():
    """Two-term instance whose overlap degree is 3 (pads to 4 colors)."""
    rot = givens(3, 1, 2, 0.5) @ givens(3, 0, 2, 0.6) @ givens(3, 0, 1, 0.7)
    assert np.min(np.abs(rot)) > 1e-3
    basis = np.eye(4)
    basis[:3, :3] = rot
    term1 = basis @ np.diag([-1.0, 0.4, 1.3, 2.2]) @ basis.T
    return dc.build([np.diag([0.0, 1.0, 2.0, 3.0]).astype(complex), term1.astype(complex)])


# ---------------------------------------------------------------------------
# path sum


def test_path_sum_single_diagonal_term():
    decomp = dc.build([np.diag([0.2, -1.1, 0.5, 2.0]).astype(complex)])
    sched = schedule(1, 0, 3, 1.3)
    got = sh.path_sum_propagator(decomp, sched)
    want = exp_unitary(decomp.total(), 1.3)
    assert spectral_norm(got - want) <= 1e-12


def test_path_sum_matches_trotter_two_qubit():
    decomp = zz_zx()
    sched = schedule(2, 1, 1, 0.7)
    got = sh.path_sum_propagator(decomp, sched)
    assert spectral_norm(got - trotter_unitary(decomp, sched)) <= 1e-10


def test_path_sum_matches_trotter_one_qubit():
    decomp = z_x()
    sched = schedule(2, 0, 2, 1.0)
    got = sh.path_sum_propagator(decomp, sched)
    assert spectral_norm(got - trotter_unitary(decomp, sched)) <= 1e-10


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(1, 2),
    terms=st.integers(1, 2),
    k=st.integers(0, 1),
    r=st.integers(1, 2),
)
def test_path_sum_identity_random(seed, n, terms, k, r):
    rng = np.random.default_rng(seed)
    decomp = dc.build(random_decomposition_terms(rng, n, terms))
    sched = schedule(terms, k, r, 0.9)
    if decomp.dim**sched.M > CAPS["path_sum"].limit:
        return
    got = sh.path_sum_propagator(decomp, sched)
    assert spectral_norm(got - trotter_unitary(decomp, sched)) <= 1e-10


def test_path_sum_cap():
    decomp = zz_zx()
    sched = schedule(2, 1, 3, 0.5)
    with pytest.raises(CapExceeded):
        sh.path_sum_propagator(decomp, sched)


# ---------------------------------------------------------------------------
# transition operators


def test_transition_diagonal_step_is_phase_matrix():
    decomp = dc.build([np.diag([0.2, -1.1, 0.5, 2.0]).astype(complex)])
    a = sh.transition_operator(dc.ScheduleOverlaps(decomp, schedule(1, 0, 2, 1.0)), 0)
    lam = decomp.eigensystems[0].values
    assert np.allclose(a, np.diag(np.exp(-0.5j * lam)), atol=1e-12)


def test_transition_zero_time_is_overlap():
    overlaps = dc.ScheduleOverlaps(zz_zx(), schedule(2, 0, 1, 0.0))
    a = sh.transition_operator(overlaps, 0)
    assert np.allclose(a, overlaps.pair_for_step(0).overlap, atol=1e-12)


def test_transition_unitary_random_steps():
    rng = np.random.default_rng(7)
    for _ in range(6):
        decomp = dc.build(random_decomposition_terms(rng, 2, 2))
        overlaps = dc.ScheduleOverlaps(decomp, schedule(2, 1, 2, 1.1))
        for m in range(overlaps.schedule.M):
            a = sh.transition_operator(overlaps, m)
            assert spectral_norm(a @ a.conj().T - np.eye(4)) <= 1e-10


def test_transition_product_matches_trotter():
    decomp = zz_zx()
    sched = schedule(2, 1, 2, 0.9)
    got = sh.transition_product(decomp, sched)
    assert spectral_norm(got - trotter_unitary(decomp, sched)) <= 1e-10
    rng = np.random.default_rng(11)
    decomp = dc.build(random_decomposition_terms(rng, 2, 3))
    sched = schedule(3, 0, 2, 0.6)
    got = sh.transition_product(decomp, sched)
    assert spectral_norm(got - trotter_unitary(decomp, sched)) <= 1e-10


# ---------------------------------------------------------------------------
# coloring: select cell (c1, c2) holds the edges of color class (c1, c2)


def test_color_graph_validity_examples():
    cases = [
        (zz_zx(), schedule(2, 0, 1, 1.0), 0),
        (z_x(), schedule(2, 1, 1, 1.0), 0),
        (z_x(), schedule(2, 1, 1, 1.0), 3),
        (dc.build(tilted_example_pair()), schedule(2, 0, 1, 1.0), 0),
        (three_sparse_pair(), schedule(2, 0, 1, 1.0), 0),
    ]
    rng = np.random.default_rng(3)
    cases.append((dc.build(random_decomposition_terms(rng, 3, 2)), schedule(2, 0, 1, 1.0), 0))
    for decomp, sched, m in cases:
        overlaps = dc.ScheduleOverlaps(decomp, sched)
        d = overlaps.d
        enc = sh.BlockEncoding(overlaps, m, 4)
        classes = {k: class_edges(enc.cells, k) for k in range(len(enc.cells.perm))}
        edges = set().union(*classes.values())
        # every class is a matching, and the classes partition the genuine edges
        for k, pool in classes.items():
            assert len({q for _, q in pool}) == len(pool)
            if pool:
                assert k // enc.d_pad < d and k % enc.d_pad < d
        table = overlaps.pair_for_step(m)
        assert sum(len(pool) for pool in classes.values()) == len(edges) == table.genuine.sum()
        # every genuine overlap is an edge of the graph
        for j in range(decomp.dim):
            for q in range(decomp.dim):
                if abs(table.overlap[q, j]) > decomp.zero_tol:
                    assert (j, q) in edges


def test_color_graph_membership():
    # an edge j -> q of cell k covers source j on side 0 (it is routed within
    # side 0) and target q on side 1 (its column is mirrored back to N + j)
    cells = sh.BlockEncoding(dc.ScheduleOverlaps(zz_zx(), schedule(2, 0, 1, 1.0)), 0, 4).cells
    dim = cells.perm.shape[1] // 2
    for k in range(len(cells.perm)):
        for j, q in class_edges(cells, k):
            assert cells.perm[k, dim + q] == dim + j


def test_color_graph_single_color_for_diagonal():
    decomp = dc.build([np.diag([0.5, -0.5]).astype(complex), np.diag([0.3, -0.2]).astype(complex)])
    cells = sh.BlockEncoding(dc.ScheduleOverlaps(decomp, schedule(2, 0, 1, 1.0)), 0, 4).cells
    assert len(cells.perm) == 1
    assert sorted(class_edges(cells, 0)) == [(0, 0), (1, 1)]


# ---------------------------------------------------------------------------
# signed permutations


def test_signed_permutation_unitary_and_fixed_points():
    decomp = zz_zx()
    overlaps = dc.ScheduleOverlaps(decomp, schedule(2, 0, 1, 0.8))
    dim = decomp.dim
    for b in (0, 1, 5):
        u = signed_permutation(overlaps, 0, b, 0, 1, bits=3)
        assert spectral_norm(u @ u.conj().T - np.eye(2 * dim)) <= 1e-10
    sources = {j for j, _ in class_edges(sh.BlockEncoding(overlaps, 0, 3).cells, 0)}
    sign = -1.0
    u = signed_permutation(overlaps, 0, 1, 0, 0, bits=3)
    for j in range(dim):
        if j not in sources:
            assert u[j, j] == sign


def test_signed_permutation_forward_phase():
    decomp = zz_zx()
    overlaps = dc.ScheduleOverlaps(decomp, schedule(2, 0, 1, 0.8))
    table = overlaps.pair_for_step(0)
    lam = decomp.eigensystems[0].values
    u = signed_permutation(overlaps, 0, 0, 0, 0, bits=6)
    dim = decomp.dim
    for j, q in class_edges(sh.BlockEncoding(overlaps, 0, 6).cells, 0):
        got = u[dim + q, j]
        amp = table.overlap[q, j]
        want = (amp / abs(amp)) * np.exp(-1j * lam[j] * 0.8)
        assert abs(got) == pytest.approx(1.0, abs=1e-12)
        assert abs(got - want) <= 1e-12


def test_alternating_sum_matches_definitional_average():
    decomp = z_x()
    overlaps = dc.ScheduleOverlaps(decomp, schedule(2, 0, 1, 1.2))
    bits = 3
    dim = decomp.dim
    d = overlaps.d
    acc = np.zeros((2 * dim, 2 * dim), dtype=complex)
    for b in range(1 << bits):
        for c1 in range(d):
            for c2 in range(d):
                u = signed_permutation(overlaps, 0, b, c1, c2, bits)
                flipped = np.vstack([u[dim:], u[:dim]])
                acc += flipped
    acc /= 1 << bits
    got = sh._step_cells(overlaps, 0, bits).average()
    assert np.max(np.abs(acc - got)) <= 1e-12


def test_select_applies_the_signed_permutations():
    decomp = three_sparse_pair()
    overlaps = dc.ScheduleOverlaps(decomp, schedule(2, 0, 1, 0.9))
    bits = 3
    enc = sh.BlockEncoding(overlaps, 0, bits)
    dim = decomp.dim
    rng = np.random.default_rng(7)
    x = rng.normal(size=enc.shape) + 1j * rng.normal(size=enc.shape)
    got = enc.apply_select(x)
    assert np.max(np.abs(enc.apply_select(got, adjoint=True) - x)) <= 1e-12
    for b in range(1 << bits):
        for c1 in range(enc.d_pad):
            for c2 in range(enc.d_pad):
                col = x[b, c1, c2].reshape(2 * dim)
                if c1 < enc.d and c2 < enc.d:
                    u = signed_permutation(overlaps, 0, b, c1, c2, bits)
                    want = np.vstack([u[dim:], u[:dim]]) @ col
                else:  # padding colors: the signed side flip
                    want = (-1.0) ** b * np.concatenate([col[dim:], col[:dim]])
                assert np.max(np.abs(got[b, c1, c2].reshape(2 * dim) - want)) <= 1e-12


# ---------------------------------------------------------------------------
# alternating sum and Claim-1 style defects


def test_alternating_sum_defect_bound():
    decomp = zz_zx()
    sched = schedule(2, 0, 1, 1.0)
    overlaps = dc.ScheduleOverlaps(decomp, sched)
    exact = sh.transition_operator(overlaps, 0)
    d = dc.ScheduleOverlaps(decomp, sched).d
    for bits in (4, 6, 8, 10):
        approx = projected_step(overlaps, 0, bits)
        defect = spectral_norm(approx - exact)
        assert 0 < defect <= sh.synthesis_defect_bound(d, bits)


def test_alternating_sum_block_structure():
    decomp = zz_zx()
    dim = decomp.dim
    full = sh._step_cells(dc.ScheduleOverlaps(decomp, schedule(2, 0, 1, 1.0)), 0, 5).average()
    assert np.all(full[:, dim:] == 0)
    assert np.all(full[dim:, :dim] == 0)


def test_alternating_sum_identity_step_defect_is_exact():
    # magnitude-one entries round to 2^B - 1, so an identity-overlap step
    # lands exactly on the worst-case defect
    decomp = dc.build([np.diag([0.4, -0.9]).astype(complex)])
    overlaps = dc.ScheduleOverlaps(decomp, schedule(1, 0, 1, 1.0))
    exact = sh.transition_operator(overlaps, 0)
    for bits in (2, 5, 9):
        approx = projected_step(overlaps, 0, bits)
        defect = spectral_norm(approx - exact)
        assert defect == pytest.approx(2.0 / (1 << bits), abs=1e-13)


# ---------------------------------------------------------------------------
# block encoding


def test_block_identity_examples():
    cases = [
        (zz_zx(), schedule(2, 0, 1, 1.0), 0, 4),
        (zz_zx(), schedule(2, 0, 1, 1.0), 0, 6),
        (z_x(), schedule(2, 1, 1, 0.7), 0, 8),
        (dc.build(tilted_example_pair()), schedule(2, 0, 1, 0.5), 0, 5),
    ]
    for decomp, sched, m, bits in cases:
        overlaps = dc.ScheduleOverlaps(decomp, sched)
        enc = sh.BlockEncoding(overlaps, m, bits)
        dim = decomp.dim
        synth = sh._step_cells(overlaps, m, bits).average()[:dim, :dim]
        got = lcu.system_block(enc.apply_w, enc.size, dim) * enc.subnormalization
        assert np.max(np.abs(got - synth)) <= 1e-10


def test_block_identity_with_padded_colors():
    decomp = three_sparse_pair()
    sched = schedule(2, 0, 1, 0.9)
    assert dc.ScheduleOverlaps(decomp, sched).d == 3
    overlaps = dc.ScheduleOverlaps(decomp, sched)
    assert overlaps.d == 3
    enc = sh.BlockEncoding(overlaps, 0, 5)
    assert enc.d_pad == 4
    assert enc.subnormalization == 16.0
    dim = decomp.dim
    synth = sh._step_cells(overlaps, 0, 5).average()[:dim, :dim]
    got = lcu.system_block(enc.apply_w, enc.size, dim) * enc.subnormalization
    assert np.max(np.abs(got - synth)) <= 1e-10


def test_block_encoding_w_unitary_small():
    decomp = z_x()
    sched = schedule(2, 0, 1, 1.0)
    enc = sh.BlockEncoding(dc.ScheduleOverlaps(decomp, sched), 0, 3)
    w = lcu.system_block(enc.apply_w, enc.size, enc.size)
    assert spectral_norm(w @ w.conj().T - np.eye(enc.size)) <= 1e-10


def test_block_encoding_dense_cap():
    decomp = z_x()
    sched = schedule(2, 0, 1, 1.0)
    enc = sh.BlockEncoding(dc.ScheduleOverlaps(decomp, sched), 0, 12)
    with pytest.raises(CapExceeded):
        lcu.system_block(enc.apply_w, enc.size, enc.size)


def test_block_encoding_apply_is_isometric():
    decomp = zz_zx()
    sched = schedule(2, 0, 1, 1.0)
    enc = sh.BlockEncoding(dc.ScheduleOverlaps(decomp, sched), 0, 8)
    rng = np.random.default_rng(5)
    x = rng.normal(size=enc.size) + 1j * rng.normal(size=enc.size)
    wx = enc.apply_w(x)
    assert np.linalg.norm(wx) == pytest.approx(np.linalg.norm(x), rel=1e-12)
    back = enc.apply_w(wx, adjoint=True)
    assert np.max(np.abs(back - x)) <= 1e-10


def test_select_budget_is_constant():
    for decomp in (z_x(), zz_zx()):
        sched = schedule(2, 0, 1, 1.0)
        counter = dc.QueryCounter()
        enc = sh.BlockEncoding(dc.ScheduleOverlaps(decomp, sched), 0, 4, counter)
        enc.apply_select(np.zeros(enc.shape, dtype=complex))
        assert counter.snapshot() == sh.SELECT_BUDGET
        enc.apply_w(np.zeros(enc.shape, dtype=complex))
        assert counter.snapshot() == {k: 2 * v for k, v in sh.SELECT_BUDGET.items()}


# ---------------------------------------------------------------------------
# amplification


def test_rounds_for_pinned_values():
    assert lcu.rounds_for(1.0) == 0
    assert lcu.rounds_for(4.0) == 3
    assert lcu.rounds_for(16.0) == 13


def test_amplified_single_color_is_block_itself():
    decomp = dc.build([np.diag([0.7, -0.3]).astype(complex)])
    overlaps = dc.ScheduleOverlaps(decomp, schedule(1, 0, 1, 1.1))
    step = sh.AmplifiedStep(sh.BlockEncoding(overlaps, 0, 6))
    assert step.p == 0
    assert step.a_prime == pytest.approx(1.0)
    block, weight = applied_amplification(step)
    flat = step.flagged_block()
    assert np.max(np.abs(block - flat)) <= 1e-12
    exact = sh.transition_operator(overlaps, 0)
    assert spectral_norm(block - exact) == pytest.approx(2.0 / 64, abs=1e-13)
    assert weight == pytest.approx((1 - 2.0 / 64) ** 2, abs=1e-12)


def test_amplified_svd_matches_applied_reflections():
    cases = [
        (zz_zx(), schedule(2, 0, 1, 1.0), 0, 4),
        (zz_zx(), schedule(2, 0, 1, 1.0), 0, 6),
        (three_sparse_pair(), schedule(2, 0, 1, 0.9), 0, 4),
    ]
    for decomp, sched, m, bits in cases:
        step = sh.AmplifiedStep(sh.BlockEncoding(dc.ScheduleOverlaps(decomp, sched), m, bits))
        by_iter, w_iter = applied_amplification(step)
        by_svd, w_svd = step.amplified()
        assert np.max(np.abs(by_iter - by_svd)) <= 1e-11
        assert w_iter == pytest.approx(w_svd, abs=1e-11)


@pytest.mark.parametrize("make", [z_x, zz_zx, zz_xx_yz, wide_zz_xx_yz])
def test_amplified_block_matches_the_svd_oracle_on_every_step(make):
    decomp = make()
    for k in (0, 1, 2):
        # r = 2, so the step that crosses into the next repetition is here too
        sched = schedule(decomp.term_count, k, 2, 0.7)
        overlaps = dc.ScheduleOverlaps(decomp, sched)
        for bits in (3, 8):
            for m in range(sched.M):
                step = sh.AmplifiedStep(sh.BlockEncoding(overlaps, m, bits))
                want = amplified_svd_oracle(step.flagged_block(), step.p)
                assert np.max(np.abs(step._amplified_svd() - want)) <= 1e-14


def test_amplified_takes_no_svd(monkeypatch):
    """The Schur bound clears every encoded block, so no decomposition runs."""
    overlaps = dc.ScheduleOverlaps(wide_zz_xx_yz(), schedule(3, 1, 2, 0.6))
    step = sh.AmplifiedStep(sh.BlockEncoding(overlaps, 0, 8))
    want = amplified_svd_oracle(step.flagged_block(), step.p)

    def refuse(*args, **kwargs):
        raise AssertionError("amplification took a decomposition")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    monkeypatch.setattr(lcu, "spectral_norm", refuse)
    block, weight = step.amplified()
    assert step.p == 13
    assert np.max(np.abs(block - want)) <= 1e-14
    assert weight == pytest.approx(float(np.sum(np.abs(want) ** 2, axis=0).min()), abs=1e-14)


def test_reflection_preserves_norm():
    decomp = zz_zx()
    overlaps = dc.ScheduleOverlaps(decomp, schedule(2, 0, 1, 1.0))
    step = sh.AmplifiedStep(sh.BlockEncoding(overlaps, 0, 4))
    rng = np.random.default_rng(9)
    x = rng.normal(size=step.shape) + 1j * rng.normal(size=step.shape)
    rx = step.apply_reflection(x)
    assert np.linalg.norm(rx) == pytest.approx(np.linalg.norm(x), rel=1e-12)
    wx = step.apply_w(x)
    assert np.linalg.norm(wx) == pytest.approx(np.linalg.norm(x), rel=1e-12)
    back = step.apply_w(wx, adjoint=True)
    assert np.max(np.abs(back - x)) <= 1e-10


def test_amplified_accuracy_and_success_weight():
    decomp = zz_zx()
    sched = schedule(2, 0, 1, 1.0)
    overlaps = dc.ScheduleOverlaps(decomp, sched)
    exact = sh.transition_operator(overlaps, 0)
    d = dc.ScheduleOverlaps(decomp, sched).d
    for bits in (6, 8, 10):
        step = sh.AmplifiedStep(sh.BlockEncoding(overlaps, 0, bits))
        assert step.p == 3
        block, weight = applied_amplification(step)
        assert spectral_norm(block - exact) <= sh.amplified_defect_bound(d, bits)
        assert weight >= sh.success_weight_bound(d, bits)


# ---------------------------------------------------------------------------
# end-to-end simulation


def test_simulate_commuting_decomposition():
    decomp = dc.build(
        [np.diag([0.0, 1.0, 2.0, 3.0]).astype(complex), np.diag([1.0, -1.0, 0.5, 0.0]).astype(complex)]
    )
    res = sh.simulate(decomp, k=0, r=2, t=1.0, bits=10)
    assert res.d == 1
    assert res.p == 0
    assert res.trotter_bound <= 1e-12
    assert res.measured_error <= 4 * res.rounding_bound + 1e-12


def test_simulate_query_accounting():
    decomp = z_x()
    counts = {}
    for r in (2, 4):
        res = sh.simulate(decomp, k=0, r=r, t=0.8, bits=6)
        assert res.p == 3
        per_step = 2 * res.p + 1
        want = {name: res.M * per_step * cost for name, cost in sh.SELECT_BUDGET.items()}
        assert res.queries == want
        counts[r] = res.queries
    assert counts[4]["index"] == 2 * counts[2]["index"]
    # query totals do not depend on the evolution time
    assert sh.simulate(decomp, k=0, r=2, t=2.5, bits=6).queries == counts[2]


# (decomposition, k, bits) whose flagged registers hold at most 2^17 amplitudes
COUNTED_WALKS = [(z_x, 0, 6), (z_x, 1, 4), (zz_zx, 0, 4)]


@pytest.mark.parametrize(("make", "k", "bits"), COUNTED_WALKS)
def test_simulate_charges_what_the_applied_walk_counts(make, k, bits):
    decomp = make()
    sched = schedule(decomp.term_count, k, 1, 0.8)
    counted = dc.QueryCounter()
    enc = sh.BlockEncoding(dc.ScheduleOverlaps(decomp, sched), 0, bits, counted)
    step = sh.AmplifiedStep(enc)
    assert step.size <= 1 << 17
    step._amplified_iterate()
    # one select per application of W: 2p+1 for each of the dim columns
    per_column = {name: (2 * step.p + 1) * cost for name, cost in sh.SELECT_BUDGET.items()}
    assert counted.snapshot() == {name: enc.dim * v for name, v in per_column.items()}
    res = sh.simulate(decomp, k=k, r=2, t=0.8, bits=bits)
    assert res.p == step.p
    assert res.queries == {
        name: res.M * total // enc.dim for name, total in counted.snapshot().items()
    }


def test_block_encoding_refuses_bits_beyond_exact_rounding():
    overlaps = dc.ScheduleOverlaps(z_x(), schedule(2, 0, 1, 1.0))
    assert sh.BlockEncoding(overlaps, 0, dc.MAX_BITS).width == 1 << dc.MAX_BITS
    with pytest.raises(SpecError, match=f"1 to {dc.MAX_BITS} bits"):
        sh.BlockEncoding(overlaps, 0, dc.MAX_BITS + 1)


def test_simulate_error_envelope_point():
    decomp = z_x()
    res = sh.simulate(decomp, k=1, r=4, t=0.9, bits=10)
    envelope = 4 * (res.rounding_bound + res.trotter_bound)
    assert res.measured_error <= envelope


def test_simulate_matches_applied_reflections(monkeypatch):
    cases = [(z_x(), 1, 2, 6), (zz_xx_yz(), 0, 2, 3)]
    closed = [sh.simulate(decomp, k=k, r=r, t=0.7, bits=bits) for decomp, k, r, bits in cases]
    monkeypatch.setattr(sh.AmplifiedStep, "_amplified_svd", sh.AmplifiedStep._amplified_iterate)
    for (decomp, k, r, bits), want in zip(cases, closed):
        got = sh.simulate(decomp, k=k, r=r, t=0.7, bits=bits)
        assert np.max(np.abs(got.unitary - want.unitary)) <= 1e-11
        assert got.measured_error == pytest.approx(want.measured_error, abs=1e-11)
        assert got.queries == want.queries


@pytest.mark.parametrize("make", [z_x, zz_xx_yz])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_simulate_composes_repetitions_as_the_step_loop(make, k):
    decomp = make()
    for r in range(1, 6):
        res = sh.simulate(decomp, k=k, r=r, t=0.7, bits=6)
        unitary, queries, p, weight = step_loop_simulation(decomp, k, r, 0.7, 6)
        assert np.max(np.abs(res.unitary - unitary)) <= 1e-13
        assert res.queries == queries
        assert res.p == p
        assert res.min_success_weight == weight


def test_simulate_does_not_walk_the_register(monkeypatch):
    def refuse(self):
        raise AssertionError("simulate applied the reflections")

    monkeypatch.setattr(sh.AmplifiedStep, "_amplified_iterate", refuse)
    res = sh.simulate(z_x(), k=1, r=2, t=0.7, bits=6)
    assert res.measured_error <= 4 * (res.rounding_bound + res.trotter_bound)


def test_simulate_builds_no_select_cells(monkeypatch):
    """Only the register walks build select cells; simulate sums edges."""
    def refuse(*args):
        raise AssertionError("simulate built select cells")

    monkeypatch.setattr(sh, "_step_cells", refuse)
    res = sh.simulate(wide_zz_xx_yz(), k=1, r=2, t=0.6, bits=8)
    assert res.d == 4
    assert res.measured_error <= 4 * (res.rounding_bound + res.trotter_bound)


def test_simulate_reports_the_one_p_of_its_schedule():
    decomp = zz_xx_yz()
    sched = schedule(decomp.term_count, 1, 2, 0.7)
    overlaps = dc.ScheduleOverlaps(decomp, sched)
    res = sh.simulate(decomp, k=1, r=2, t=0.7, bits=4)
    for m in range(sched.M):
        step = sh.AmplifiedStep(sh.BlockEncoding(overlaps, m, 4))
        assert step.p == res.p


def test_simulate_builds_one_overlap_table(monkeypatch):
    built = []
    init = dc.ScheduleOverlaps.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(dc.ScheduleOverlaps, "__init__", counting)
    sh.simulate(zz_xx_yz(), k=1, r=2, t=0.7, bits=4)
    assert len(built) == 1

