from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathint import decomp as dc
from pathint import linalg
from pathint import short_time as sh
from pathint import trotter
from pathint.errors import SpecError
from pathint.linalg import hermitian_eig, spectral_norm
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
    assert dc.ScheduleOverlaps(zzx, two_term_schedule()).d == 2
    zxy = dc.build([pauli_string("Z"), pauli_string("X"), pauli_string("Y")])
    assert dc.ScheduleOverlaps(zxy, trotter.schedule(3, 1, 1, 1.0)).d == 2
    # Degenerate X.X spectrum: the deterministic gauge picks the sparse
    # (|00> +- |11>)/sqrt(2), (|01> +- |10>)/sqrt(2) combinations, so each
    # state couples to exactly two computational states.
    zzxx = dc.build([pauli_string("ZZ"), pauli_string("XX")])
    assert dc.ScheduleOverlaps(zzxx, two_term_schedule()).d == 2
    # Lifting the degeneracy restores the dense product eigenbasis |+->|+->
    # and with it full coupling to the computational basis.
    dense = dc.build([pauli_string("ZZ"), pauli_string("XX") + 0.5 * pauli_string("XI")])
    assert dc.ScheduleOverlaps(dense, two_term_schedule()).d == 4


def test_sparsity_trivial_cases():
    single = dc.build([pauli_string("Z")])
    assert dc.ScheduleOverlaps(single, trotter.schedule(1, 0, 1, 1.0)).d == 1
    diag_pair = dc.build([pauli_string("Z"), np.diag([0.3, -0.2]).astype(complex)])
    assert dc.ScheduleOverlaps(diag_pair, two_term_schedule()).d == 1
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


# ---------------------------------------------------------------------------
# closed-form eigensystems of Pauli-string terms

# the nine short-wide benchmark decompositions, with their k and B
SHORT_WIDE = (
    (["ZZZZ", "XIXI", "IYIY", "XXXX"], 2, 8),
    (["ZZII", "XXII", "IYZI", "IIXX"], 2, 8),
    (["ZZIII", "XXIII", "IIYZI"], 2, 8),
    (["ZIZII", "XXIII", "IIYYI"], 2, 8),
    (["ZZIII", "XXIII", "IIYZI", "IIIXX"], 1, 8),
    (["ZZIIII", "XXIIII", "IIYZII"], 1, 8),
    (["ZIZIII", "XXIIII", "IIYYII"], 1, 8),
    (["ZZIIII", "XXIIII", "IIYZII", "IIIIXX"], 0, 8),
    (["ZZIIII", "XXIIII", "IIYZII", "IIIIXX"], 1, 8),
)
WIDE_COEFFS = (0.73, 0.52, -0.41, 0.6)
PAULI_LABELS = [
    "".join(p) for n in (1, 2, 3) for p in itertools.product("IXYZ", repeat=n)
] + sorted({label for labels, _, _ in SHORT_WIDE for label in labels})


def pauli_doc(labels, coeffs) -> dict:
    return {"n": len(labels[0]), "terms": [{"pauli": p, "coeff": c} for p, c in zip(labels, coeffs)]}


@pytest.mark.parametrize("coeff", [0.73, -0.41])
def test_pauli_terms_get_the_hermitian_eig_gauge(coeff):
    for label in PAULI_LABELS:
        d = dc.decomposition_from_json(pauli_doc(["I" * len(label), label], [1.0, coeff]))
        got, ref = d.eigensystems[1], hermitian_eig(d.terms[1])
        npt.assert_array_equal(np.sign(got.values), np.sign(ref.values))
        npt.assert_allclose(got.values, ref.values, rtol=0, atol=1e-15)
        npt.assert_allclose(got.vectors, ref.vectors, rtol=0, atol=1e-15)


def _forbidden(*args, **kwargs):
    raise AssertionError("a Pauli-string term went through the dense eigensolver")


def test_pauli_documents_build_without_eigh(monkeypatch):
    monkeypatch.setattr(dc, "hermitian_eig", _forbidden)
    monkeypatch.setattr(dc.np.linalg, "eigh", _forbidden)
    monkeypatch.setattr(linalg, "_refix_cluster", _forbidden)
    for labels, _, _ in SHORT_WIDE:
        d = dc.decomposition_from_json(pauli_doc(labels, WIDE_COEFFS))
        assert len(d.eigensystems) == len(labels)


def test_other_terms_keep_hermitian_eig(monkeypatch):
    seen = []

    def counted(m):
        seen.append(m)
        return hermitian_eig(m)

    monkeypatch.setattr(dc, "hermitian_eig", counted)
    zero = np.zeros((2, 2), dtype=complex)
    two_magnitudes = np.diag([1.0, 2.0]).astype(complex)
    dense = pauli_string("X") + 0.5 * pauli_string("Z")
    # a Pauli string given as a dense matrix is a dense term too
    terms = (zero, two_magnitudes, dense, -0.41 * pauli_string("Y"))
    d = dc.build(list(terms))
    assert len(seen) == 4
    assert d.paulis is None
    for got, term in zip(d.eigensystems, terms):
        ref = hermitian_eig(term)
        npt.assert_array_equal(got.values, ref.values)
        npt.assert_array_equal(got.vectors, ref.vectors)


@pytest.mark.parametrize("coeff", [0.73, -0.41])
def test_pauli_matrices_from_masks_match_the_kron_products(coeff):
    for label in PAULI_LABELS:
        got = dc.operator_from_json(pauli_doc([label], [coeff]))
        npt.assert_array_equal(got, coeff * pauli_string(label))


def test_documents_keep_masks_only_when_every_term_is_a_pauli_string():
    d = dc.decomposition_from_json(pauli_doc(["ZI", "XY", "IZ"], [1.0, -0.5, 0.25]))
    assert d.paulis == ((0b00, 0b10, 1.0), (0b11, 0b01, 0.5), (0b00, 0b01, 0.25))
    built = dc.build([dc.PauliTerm(2, 0b00, 0b10, 1.0), dc.PauliTerm(2, 0b11, 0b01, -0.5)])
    assert built.paulis == d.paulis[:2]
    mixed = dc.build([dc.PauliTerm(2, 0b00, 0b10, 1.0), pauli_string("XY")])
    assert mixed.paulis is None


NOT_HERMITIAN = [[[0.0, 0.0], [1.0, 0.0]], [[2.0, 0.0], [0.0, 0.0]]]


def test_dense_terms_that_are_not_hermitian_are_refused():
    doc = {"n": 1, "terms": [{"pauli": "Z"}, NOT_HERMITIAN]}
    for read in (dc.decomposition_from_json, dc.operator_from_json):
        with pytest.raises(SpecError, match="term 1: matrix is not Hermitian"):
            read(doc)
    with pytest.raises(SpecError, match="term 1"):
        dc.build([pauli_string("Z"), np.array([[0.0, 1.0], [2.0, 0.0]])])


def test_operator_documents_are_sums_in_any_term_order():
    forward = pauli_doc(["Z", "X"], [1.0, 0.45])
    backward = pauli_doc(["X", "Z"], [0.45, 1.0])
    with pytest.raises(SpecError, match="term 0 must be diagonal"):
        dc.decomposition_from_json(backward)
    total = dc.decomposition_from_json(forward).total()
    for doc in (forward, backward):
        assert dc.operator_from_json(doc).tobytes() == total.tobytes()


def test_bits_stop_where_rounding_is_exact():
    assert 24 < dc.MAX_BITS <= 62
    for bits in (dc.MAX_BITS, dc.MAX_BITS + 1):
        exact = dc.round_to_bits(1.0, bits) == (1 << bits) - 1
        assert exact == (bits == dc.MAX_BITS)  # one bit more rounds 1.0 out of range
    assert dc.require_bits(dc.MAX_BITS, "B") == dc.MAX_BITS
    with pytest.raises(SpecError, match=f"at most {dc.MAX_BITS}"):
        dc.require_bits(dc.MAX_BITS + 1, "B")


@pytest.mark.parametrize(("labels", "k", "bits"), SHORT_WIDE)
def test_simulate_reads_closed_forms_like_hermitian_eig(labels, k, bits):
    d = dc.decomposition_from_json(pauli_doc(labels, WIDE_COEFFS))
    dense = dataclasses.replace(d, eigensystems=tuple(hermitian_eig(t) for t in d.terms))
    got, ref = (sh.simulate(x, k, 2, 0.6, bits) for x in (d, dense))
    for name in ("d", "p", "M", "rounding_bound", "trotter_bound", "queries"):
        assert getattr(got, name) == getattr(ref, name), name
    # measured_error is a distance between unitaries, so it moves by at most
    # the unitaries' own distance: a few ulps of 1, whatever its size
    assert spectral_norm(got.unitary - ref.unitary) <= 1e-13
    assert abs(got.measured_error - ref.measured_error) <= 1e-14
