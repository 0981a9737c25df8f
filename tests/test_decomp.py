from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathint import decomp as dc
from pathint import short_time as sh
from pathint import trotter
from pathint.errors import SpecError
from support import (
    class_edges,
    pauli_string,
    random_decomposition_terms,
    tilted_example_pair,
)


def two_term_schedule(L: int = 2) -> trotter.TrotterSchedule:
    return trotter.schedule(L, 1, 1, 1.0)


def test_build_rejects_non_diagonal_leading_term():
    with pytest.raises(SpecError, match=r"\(0, 1\)"):
        dc.build([pauli_string("X"), pauli_string("Z")])


def test_build_rejects_dimension_mismatch():
    with pytest.raises(SpecError):
        dc.build([pauli_string("Z"), pauli_string("ZZ")])


def test_build_example_eigenbases_as_sets():
    d = dc.build([pauli_string("ZZ"), pauli_string("ZX")])
    comp = np.eye(4)
    got = np.abs(d.eigensystems[0].vectors)
    # columns are computational basis vectors in some cluster order
    assert np.allclose(sorted(got.argmax(axis=0)), [0, 1, 2, 3])
    npt.assert_allclose(got @ got.T, comp, atol=1e-12)
    got1 = np.abs(d.eigensystems[1].vectors)
    # second basis is |z>|±>: magnitudes 1/sqrt(2) on exactly two entries
    npt.assert_allclose(np.sort(got1, axis=0)[2:], np.full((2, 4), 1 / np.sqrt(2)), atol=1e-12)


def test_sparsity_examples():
    zzx = dc.build([pauli_string("ZZ"), pauli_string("ZX")])
    assert dc.sparsity(zzx, two_term_schedule()) == 2
    zxy = dc.build([pauli_string("Z"), pauli_string("X"), pauli_string("Y")])
    assert dc.sparsity(zxy, trotter.schedule(3, 1, 1, 1.0)) == 2
    # Degenerate X.X spectrum: the deterministic gauge picks the sparse
    # (|00> +- |11>)/sqrt(2), (|01> +- |10>)/sqrt(2) combinations, so each
    # state couples to exactly two computational states.
    zzxx = dc.build([pauli_string("ZZ"), pauli_string("XX")])
    assert dc.sparsity(zzxx, two_term_schedule()) == 2
    # Lifting the degeneracy restores the dense product eigenbasis |+->|+->
    # and with it full coupling to the computational basis.
    dense = dc.build([pauli_string("ZZ"), pauli_string("XX") + 0.5 * pauli_string("XI")])
    assert dc.sparsity(dense, two_term_schedule()) == 4


def test_sparsity_trivial_cases():
    single = dc.build([pauli_string("Z")])
    assert dc.sparsity(single, trotter.schedule(1, 0, 1, 1.0)) == 1
    diag_pair = dc.build([pauli_string("Z"), np.diag([0.3, -0.2]).astype(complex)])
    assert dc.sparsity(diag_pair, two_term_schedule()) == 1
    ov = dc.ScheduleOverlaps(diag_pair, two_term_schedule())
    assert ov.d == 1
    for m in range(4):
        npt.assert_array_equal(ov.pair_for_step(m).genuine, np.eye(2, dtype=bool))


def cell_colors(overlaps: dc.ScheduleOverlaps, m: int) -> dict[tuple[int, int], tuple[int, int]]:
    """Edge (j, q) -> its color (c1, c2), read from the step's select cells."""
    enc = sh.BlockEncoding(overlaps, m, 8)
    return {
        edge: divmod(k, enc.d_pad)
        for k in range(len(enc.cells.perm))
        for edge in class_edges(enc.cells, k)
    }


def test_partner_enumeration_pinned_values():
    # Worked two-qubit example in its pinned state enumeration: source state 2
    # couples to targets 2 and 3 on the step from the diagonal to the mixed
    # term.  Edge j -> q takes color (rank of q among j's partners, rank of j
    # among q's partners).
    d = dc.build(tilted_example_pair())
    ov = dc.ScheduleOverlaps(d, two_term_schedule())
    assert ov.d == 2
    assert cell_colors(ov, 0) == {
        (0, 0): (0, 0), (0, 1): (1, 0), (1, 0): (0, 1), (1, 1): (1, 1),
        (2, 2): (0, 0), (2, 3): (1, 0), (3, 2): (0, 1), (3, 3): (1, 1),
    }


def test_missing_partners_are_not_padded():
    # Eigenbasis of the second term splits into an identity block and a mixed
    # block, so two source states have one genuine partner.  Their missing
    # second partner is left out: six edges, not a 2-regular eight.
    e = np.eye(4, dtype=complex)
    basis = [e[0], e[1], (e[2] + e[3]) / np.sqrt(2), (e[2] - e[3]) / np.sqrt(2)]
    h0 = np.diag(np.arange(4.0, dtype=complex))
    h1 = sum(float(i) * np.outer(v, v.conj()) for i, v in enumerate(basis))
    d = dc.build([h0, np.asarray(h1)])
    ov = dc.ScheduleOverlaps(d, two_term_schedule())
    assert ov.d == 2
    assert cell_colors(ov, 0) == {
        (0, 0): (0, 0), (1, 1): (0, 0),
        (2, 2): (0, 0), (2, 3): (1, 0), (3, 2): (0, 1), (3, 3): (1, 1),
    }


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 2), st.integers(2, 3))
def test_cells_color_exactly_the_genuine_edges(seed, n, L):
    rng = np.random.default_rng(seed)
    d = dc.build(random_decomposition_terms(rng, n, L))
    sched = trotter.schedule(L, 1, 1, 1.0)
    ov = dc.ScheduleOverlaps(d, sched)
    for m in range(sched.M):
        enc = sh.BlockEncoding(ov, m, 4)
        classes = [class_edges(enc.cells, k) for k in range(len(enc.cells.perm))]
        for k, edges in enumerate(classes):
            # a matching: no two edges share a source or a target
            assert len({j for j, _ in edges}) == len({q for _, q in edges}) == len(edges)
            if edges:
                assert k // enc.d_pad < ov.d and k % enc.d_pad < ov.d
        routed = [edge for edges in classes for edge in edges]
        q, j = np.nonzero(ov.pair_for_step(m).genuine)
        assert len(routed) == len(set(routed))
        assert set(routed) == set(zip(j.tolist(), q.tolist()))


def test_rounding_halves_to_even_and_clamps():
    assert dc.round_to_bits(2.5 / 16, 4) == 2
    assert dc.round_to_bits(3.5 / 16, 4) == 4
    assert dc.round_to_bits(1.0, 4) == 15
    assert dc.round_to_bits(0.0, 4) == 0
    # pinned magnitude: overlap 1/sqrt(2) at eight bits rounds to 181
    assert dc.round_to_bits(1 / np.sqrt(2), 8) == 181


def test_overlap_tables_are_unitary():
    rng = np.random.default_rng(3)
    d = dc.build(random_decomposition_terms(rng, 2, 2))
    ov = dc.ScheduleOverlaps(d, two_term_schedule())
    for m in range(ov.schedule.M):
        u = ov.pair_for_step(m).overlap
        npt.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-10)


def test_json_loading_with_pauli_shorthand(tmp_path):
    doc = {
        "n": 2,
        "terms": [
            {"pauli": "ZZ", "coeff": 0.5},
            [[[0.0, 0.0]] * 4 for _ in range(4)],
        ],
    }
    doc["terms"][1] = [
        [[float(np.real(v)), float(np.imag(v))] for v in row]
        for row in pauli_string("XX")
    ]
    d = dc.decomposition_from_json(doc)
    npt.assert_allclose(d.terms[0], 0.5 * pauli_string("ZZ"))
    npt.assert_allclose(d.terms[1], pauli_string("XX"))
    path = tmp_path / "decomp.json"
    import json

    from pathint import cli

    path.write_text(json.dumps(doc))
    d2 = cli._decomposition_from_param(str(path))
    npt.assert_allclose(d2.terms[0], d.terms[0])


def test_json_rejects_unknown_fields():
    with pytest.raises(SpecError, match="unknown fields"):
        dc.decomposition_from_json({"n": 1, "terms": [{"pauli": "Z"}], "extra": 1})
    with pytest.raises(SpecError):
        dc.decomposition_from_json({"n": 1, "terms": [{"pauli": "Q"}]})
    with pytest.raises(SpecError):
        dc.decomposition_from_json({"n": 2, "terms": [{"pauli": "Z"}]})
