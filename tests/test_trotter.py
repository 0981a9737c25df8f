from __future__ import annotations

import collections

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathint import decomp as dc
from pathint import trotter
from pathint.errors import CAPS, CapExceeded, SpecError
from pathint.linalg import exp_unitary, spectral_norm
from support import (
    alpha_comm_oracle,
    lower_cap,
    pauli_string,
    random_decomposition_terms,
    random_diagonal,
)


def test_symmetric_step_factor_list_is_pinned():
    sched = trotter.schedule(2, 1, 1, 0.7)
    got = [(f.term, f.weight) for f in sched.factors]
    assert got == [(1, 0.5), (0, 0.5), (0, 0.5), (1, 0.5)]


def test_factor_counts():
    assert trotter.schedule(3, 0, 5, 1.0).M == 15
    for k in (1, 2, 3):
        for L in (1, 2, 4):
            sched = trotter.schedule(L, k, 3, 1.0)
            assert sched.M == 2 * L * 5 ** (k - 1) * 3


def test_recursive_step_weight_multiset():
    sched = trotter.schedule(2, 2, 1, 1.0)
    s2 = trotter.suzuki_split(2)
    weights = collections.Counter(round(f.weight, 12) for f in sched.factors)
    assert weights == {
        round(s2 / 2, 12): 16,
        round((1 - 4 * s2) / 2, 12): 4,
    }


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(0, 3), st.integers(1, 3))
def test_per_term_weights_sum_to_step_count(L, k, r):
    sched = trotter.schedule(L, k, r, 0.3)
    for term in range(L):
        total = sum(f.weight for f in sched.factors if f.term == term)
        assert total == pytest.approx(r, abs=1e-12)


def test_schedule_validation_and_caps():
    with pytest.raises(SpecError):
        trotter.schedule(0, 1, 1, 1.0)
    with pytest.raises(SpecError):
        trotter.schedule(2, -1, 1, 1.0)
    with pytest.raises(SpecError):
        trotter.schedule(2, 1, 0, 1.0)
    with pytest.raises(CapExceeded):
        trotter.schedule(2, 4, 1, 1.0)


def _forbidden(*args, **kwargs):
    raise AssertionError("a schedule above the cap built a factor")


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_schedule_factor_cap_refuses_before_building(monkeypatch, k):
    per_step = 3 * (1, 2, 10, 50)[k]
    assert len(trotter.schedule(3, k, 2, 1.0).factors) == 2 * per_step
    monkeypatch.setattr(trotter, "ScheduleFactor", _forbidden)
    limit = CAPS["schedule_factors"].limit
    r = limit // per_step + 1
    with pytest.raises(CapExceeded, match=f"above cap {limit}$"):
        trotter.schedule(3, k, r, 1.0)
    with pytest.raises(CapExceeded):
        trotter.schedule(3, k, 1 << 62, 1.0)


def test_commuting_terms_are_reproduced_exactly():
    d = dc.build([pauli_string("Z"), 2.0 * pauli_string("Z")])
    exact = exp_unitary(d.total(), 1.3)
    for k in (0, 1, 2):
        u = trotter.trotter_unitary(d, trotter.schedule(2, k, 2, 1.3))
        npt.assert_allclose(u, exact, atol=1e-12)


def test_first_order_bound_pinned_example():
    d = dc.build([pauli_string("Z"), pauli_string("X")])
    # ||[X, Z]|| = 2, so the pair bound at t = 1, r = 10 is 2 / 20
    assert trotter.error_bound(d, 0, 1.0, 10) == pytest.approx(0.1, rel=1e-12)


def _forbidden_commutator(a, b):
    raise AssertionError("a nested commutator was formed past the work cap")


FIVE_TERMS = (["ZZ", "XX", "YZ", "XI", "IX"], [1.0, 0.5, 0.3, 0.7, 0.4])


def test_nested_commutator_sum_pinned_example(monkeypatch):
    d = dc.build([pauli_string("Z"), pauli_string("X")])
    assert trotter.alpha_comm(d, 1) == pytest.approx(16.0, rel=1e-12)
    with pytest.raises(SpecError):
        trotter.alpha_comm(d, 0)
    # k = 3 was over the old order cap: 2 terms and the 5-term Pauli sum
    assert trotter.alpha_comm(d, 3) == alpha_comm_oracle(d, 3)
    five = dc.build([c * pauli_string(p) for p, c in zip(*FIVE_TERMS)])
    assert trotter.alpha_comm(five, 3) == alpha_comm_oracle(five, 3)
    # 2 terms and their 4 children are 6 nodes: a cap of 5 refuses the first level
    lower_cap(monkeypatch, "alpha_work", 5)
    monkeypatch.setattr(trotter, "commutator", _forbidden_commutator)
    with pytest.raises(CapExceeded, match="above cap 5$"):
        trotter.alpha_comm(d, 3)


def test_alpha_term_count_cap(monkeypatch):
    rng = np.random.default_rng(0)
    d = dc.build(random_decomposition_terms(rng, 1, 5))
    # 5 terms were over the old term-count cap
    assert trotter.alpha_comm(d, 1) == alpha_comm_oracle(d, 1)
    # 362 terms and their 362**2 children exceed the work cap at the first level
    wide = dc.build(random_decomposition_terms(rng, 1, 362))
    limit = CAPS["alpha_work"].limit
    assert 362 + 362**2 > limit
    monkeypatch.setattr(trotter, "commutator", _forbidden_commutator)
    with pytest.raises(CapExceeded, match=f"above cap {limit}$"):
        trotter.alpha_comm(wide, 1)


def _random_pauli_terms(rng, n, L):
    """Pauli strings with random weights, term 0 diagonal; repeats commute."""
    labels = ["".join(rng.choice(list("IZ"), n))]
    labels += ["".join(rng.choice(list("IXYZ"), n)) for _ in range(L - 1)]
    return [rng.uniform(0.2, 1.0) * pauli_string(label) for label in labels]


def _commuting_terms(rng, n, L):
    """Diagonal terms, so every nested commutator is exactly zero."""
    return [random_diagonal(rng, 2**n) for _ in range(L)]


# (L, k, n) over L 1-5, k 1-3, n 1-3 with at most 3,125 tuples each
ALPHA_CASES = [
    (1, 1, 1), (1, 3, 2), (2, 1, 3), (2, 2, 2), (2, 3, 1), (2, 3, 3), (3, 1, 2),
    (3, 2, 1), (3, 2, 3), (3, 3, 1), (4, 1, 3), (4, 2, 1), (5, 1, 2), (5, 2, 1),
]


@pytest.mark.parametrize("kind", ["pauli", "dense", "commuting"])
def test_alpha_comm_matches_the_tuple_loop(kind):
    build = {
        "pauli": _random_pauli_terms,
        "dense": random_decomposition_terms,
        "commuting": _commuting_terms,
    }[kind]
    for case, (L, k, n) in enumerate(ALPHA_CASES):
        rng = np.random.default_rng(4000 + case)
        d = dc.build(build(rng, n, L))
        got = trotter.alpha_comm(d, k)
        assert got == alpha_comm_oracle(d, k), (L, k, n)
        if kind == "commuting":
            assert got == 0.0


def _random_pauli_document(rng, n, L):
    """The draws of _random_pauli_terms, as a Pauli-string document."""
    labels = ["".join(rng.choice(list("IZ"), n))]
    labels += ["".join(rng.choice(list("IXYZ"), n)) for _ in range(L - 1)]
    return {"n": n, "terms": [{"pauli": p, "coeff": rng.uniform(0.2, 1.0)} for p in labels]}


def test_symplectic_alpha_comm_matches_the_tuple_loop(monkeypatch):
    """Pauli documents take the symplectic sum: no matrix commutator is formed,
    and it meets the tuple loop within 4e-15 relative (worst seen 1.5e-15)."""
    for case, (L, k, n) in enumerate(ALPHA_CASES):
        doc = _random_pauli_document(np.random.default_rng(4000 + case), n, L)
        d = dc.decomposition_from_json(doc)
        # the "pauli" instances of test_alpha_comm_matches_the_tuple_loop
        dense = _random_pauli_terms(np.random.default_rng(4000 + case), n, L)
        assert all(np.array_equal(a, b) for a, b in zip(d.terms, dense, strict=True))
        want = alpha_comm_oracle(d, k)
        with monkeypatch.context() as patch:
            patch.setattr(trotter, "commutator", _forbidden_commutator)
            got = trotter.alpha_comm(d, k)
        assert got == pytest.approx(want, rel=4e-15, abs=0.0), (L, k, n)
    five = dc.decomposition_from_json(
        {"n": 2, "terms": [{"pauli": p, "coeff": c} for p, c in zip(*FIVE_TERMS)]}
    )
    for k in (1, 2, 3):
        assert trotter.alpha_comm(five, k) == pytest.approx(alpha_comm_oracle(five, k), rel=4e-15)


def test_alpha_comm_slices_give_the_same_bits(monkeypatch):
    rng = np.random.default_rng(17)
    cases = [
        dc.build(random_decomposition_terms(rng, 2, 4)),
        dc.build(_random_pauli_terms(rng, 3, 5)),
        dc.build([c * pauli_string(p) for p, c in zip(*FIVE_TERMS)]),
    ]
    whole = [trotter.alpha_comm(d, k) for d in cases for k in (1, 2)]
    # one matrix per slice: every level is expanded one parent at a time
    monkeypatch.setattr(trotter, "_SLICE_ENTRIES", 1)
    assert [trotter.alpha_comm(d, k) for d in cases for k in (1, 2)] == whole
    monkeypatch.setattr(trotter, "_SLICE_ENTRIES", 3 * 16 * 16)
    assert [trotter.alpha_comm(d, k) for d in cases for k in (1, 2)] == whole


@pytest.mark.parametrize("k", [0, 1, 2])
def test_bound_dominates_measured_error(k):
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        d = dc.build(random_decomposition_terms(rng, 2, 2, scale=0.5))
        sched = trotter.schedule(2, k, 10, 1.0)
        measured = trotter.measured_error(d, sched)
        assert measured <= trotter.error_bound(d, k, 1.0, 10) + 1e-12


def test_measured_error_scales_at_the_designed_order():
    rng = np.random.default_rng(7)
    d = dc.build(random_decomposition_terms(rng, 2, 2))
    # slope 1 at k = 0 and 2k above it; r is chosen per k so that the
    # smallest error (1.2e-2, 9.6e-5, 8.8e-8, 1.9e-10) stays well above rounding
    for k, expect, rs in ((0, 1.0, (8, 16, 32)), (1, 2.0, (8, 16, 32)),
                          (2, 4.0, (4, 8, 16)), (3, 6.0, (2, 4, 8))):
        errs = [trotter.measured_error(d, trotter.schedule(2, k, r, 1.0)) for r in rs]
        assert min(errs) > 1e-10
        slopes = np.diff(np.log2(errs))
        assert np.all(np.abs(-slopes - expect) < 0.35)


def test_unitary_matches_explicit_product():
    rng = np.random.default_rng(11)
    d = dc.build(random_decomposition_terms(rng, 2, 3))
    sched = trotter.schedule(3, 1, 2, 0.9)
    u = np.eye(4, dtype=complex)
    for f in sched.factors:
        u = exp_unitary(d.terms[f.term], f.weight * sched.t / sched.r) @ u
    npt.assert_allclose(trotter.trotter_unitary(d, sched), u, atol=1e-13)
    assert spectral_norm(u @ u.conj().T - np.eye(4)) < 1e-12
