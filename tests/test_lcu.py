from __future__ import annotations

import math

import numpy as np
import pytest

from pathint import decomp as dc
from pathint import lcu
from pathint import long_time as lt
from pathint import short_time as sh
from pathint.errors import CAPS, CapExceeded, InvariantViolation
from pathint.linalg import qft_matrix, spectral_norm
from pathint.trotter import schedule

from support import (
    amplified_svd_oracle,
    applied_amplification,
    average_oracle,
    pauli_string,
    random_decomposition_terms,
    random_smooth_system,
    route_oracle,
)


def test_replica_average_is_the_mean_of_the_weight_rule():
    for bits in (3, 6):
        width = 1 << bits
        replicas = np.arange(width)
        for thr in (0, 1, 2, 5, width - 1, width):
            explicit = np.mean(np.where(lcu.replica_flip(replicas, thr), -1.0, 1.0))
            assert lcu.replica_average(thr, bits) == explicit


def test_cells_must_be_permutations():
    perm, phase, thr = lcu.blank_cells(2, 2)
    perm[1, 0] = perm[1, 1]
    with pytest.raises(InvariantViolation):
        lcu.SignedPermutationCells(perm, phase, thr, 2, 1)


def test_route_writes_the_edge_rule():
    dim, carried = 3, np.exp(-1.1j)
    j = np.arange(dim)
    to = (j + 1) % dim
    amp = np.array([0.0, 0.3, 1.0]) * np.exp(0.4j * (j + 1))
    for bits in (3, 6):
        perm, phase, thr = lcu.blank_cells(1, dim)
        lcu.route(perm, phase, thr, bits, np.zeros(dim, dtype=int), j, to, amp, carried)
        avg = lcu.SignedPermutationCells(perm, phase, thr, bits, 1).average()
        want = np.zeros((2 * dim, 2 * dim), dtype=complex)
        for col in j[1:]:
            a = amp[col]
            kept = lcu.replica_average(dc.round_to_bits(abs(a), bits), bits)
            want[to[col], col] = kept * carried * a / abs(a)
        for col in j:
            assert perm[0, col] == to[col] and perm[0, dim + to[col]] == dim + col
        # the zero-amplitude edge (column 0) and the mirrored side-1 columns cancel
        assert not avg[:, 0].any() and not avg[:, dim:].any()
        assert np.max(np.abs(avg - want)) <= 1e-15


def test_route_refuses_a_shared_target():
    perm, phase, thr = lcu.blank_cells(1, 3)
    lcu.route(perm, phase, thr, 4, np.array([0, 0]), np.array([0, 2]), np.array([1, 1]),
              np.array([0.5, 0.5]), 1.0)
    with pytest.raises(InvariantViolation):
        lcu.SignedPermutationCells(perm, phase, thr, 4, 1)


def sylvester(n):
    out = np.ones((1, 1))
    while out.shape[0] < n:
        out = np.kron(out, [[1.0, 1.0], [1.0, -1.0]])
    return out / np.sqrt(n)


def test_hadamard_axes_is_the_normalized_sylvester_matrix():
    rng = np.random.default_rng(4)
    arr = rng.normal(size=(4, 8, 2)) + 1j * rng.normal(size=(4, 8, 2))
    before = arr.copy()
    for axes in ((0,), (1,), (0, 1), (1, 0, 2)):
        want = arr
        for axis in axes:
            mat = sylvester(arr.shape[axis])
            want = np.moveaxis(np.tensordot(mat, want, axes=(1, axis)), 0, axis)
        assert np.max(np.abs(lcu.hadamard_axes(arr, axes) - want)) <= 1e-12
    assert np.array_equal(arr, before)


def long_encodings(bits, frames=("Z",)):
    """Sine, linear and 3-level systems and interaction frames of 0.02 * gen.

    The 1-qubit frame couples with Z + 0.45 X, the 2-qubit frame with
    ZI + 0.5 IZ + 0.3 XX.
    """
    coupling = {"Z": pauli_string("Z") + 0.45 * pauli_string("X"),
                "ZI": pauli_string("ZI") + 0.5 * pauli_string("IZ") + 0.3 * pauli_string("XX")}
    systems = (
        lt.two_level_sweep(1.0, 0.2, shape="sine", grid=8),
        lt.two_level_sweep(1.0, 0.2, shape="linear", grid=8),
        random_smooth_system(np.random.default_rng(21), grid=32),
    ) + tuple(
        lt.interaction_frame(0.02 * pauli_string(gen), coupling[gen], 40.0, grid=64)
        for gen in frames
    )
    return [lt.PropagatorEncoding(ham, 40.0, 8, bits) for ham in systems]


def short_encodings(bits):
    decomps = [
        dc.build([pauli_string(label) for label in labels])
        for labels in (("Z", "X"), ("ZZ", "ZX"), ("ZZ", "XX", "YZ"))
    ]
    out = []
    for decomp in decomps:
        overlaps = dc.ScheduleOverlaps(decomp, schedule(decomp.term_count, 1, 1, 0.7))
        out += [sh.BlockEncoding(overlaps, m, bits) for m in range(overlaps.schedule.M)]
    return out


def edge_sum_decompositions():
    """The three decompositions above, a 5-qubit Pauli document of the
    short-wide shape and a dense-matrix decomposition."""
    wide = dc.decomposition_from_json({"n": 5, "terms": [
        {"pauli": "ZZIII", "coeff": 0.8}, {"pauli": "XXIII", "coeff": 0.45},
        {"pauli": "IIYZI", "coeff": 0.6},
    ]})
    dense = dc.build(random_decomposition_terms(np.random.default_rng(30), 2, 3))
    return [
        dc.build([pauli_string(label) for label in labels])
        for labels in (("Z", "X"), ("ZZ", "ZX"), ("ZZ", "XX", "YZ"))
    ] + [wide, dense]


@pytest.mark.parametrize("bits", [3, 8, 12])
def test_edge_sum_is_the_cell_average(bits):
    """block() sums the step's edges; the cells' replica average over the
    subnormalization gives the same bits on every step, the final
    identity-pair step included."""
    for decomp in edge_sum_decompositions():
        for k in (0, 1, 2):
            overlaps = dc.ScheduleOverlaps(decomp, schedule(decomp.term_count, k, 1, 0.7))
            for m in range(overlaps.schedule.M):
                enc = sh.BlockEncoding(overlaps, m, bits)
                want = enc.cells.average()[: enc.dim, : enc.dim] / enc.subnormalization
                assert np.array_equal(enc.block(), want)


def test_closed_form_block_is_the_walked_block():
    for bits in (3, 6):
        for enc in long_encodings(bits) + short_encodings(bits):
            walked = lcu.system_block(enc.apply_w, enc.size, enc.dim)
            assert np.max(np.abs(enc.block() - walked)) <= 1e-15


def test_block_applies_no_select(monkeypatch):
    def refuse(self, vec, adjoint=False):
        raise AssertionError("block() applied the select")

    monkeypatch.setattr(lcu.SignedPermutationCells, "apply", refuse)
    for enc in long_encodings(4)[:1] + short_encodings(4)[:1]:
        assert enc.block().shape == (enc.dim, enc.dim)


def test_system_block_refuses_a_register_above_the_cap():
    def walk(vec):
        raise AssertionError("walked a register above the cap")

    amplitudes = CAPS["walk_register"].limit // np.dtype(complex).itemsize
    with pytest.raises(CapExceeded):
        lcu.system_block(walk, amplitudes + 1, 2)


def test_system_block_refuses_an_output_above_the_cap():
    def walk(vec):
        raise AssertionError("walked into a block above the cap")

    amplitudes = CAPS["walk_register"].limit // np.dtype(complex).itemsize
    side = math.isqrt(amplitudes) + 1
    with pytest.raises(CapExceeded):
        lcu.system_block(walk, side, side)


@pytest.fixture
def pinned_to_the_loops(monkeypatch):
    """Check every lcu.route and average call against the per-edge and
    per-cell loops of tests/support.py, bit for bit; returns the call log."""
    calls = []
    route, average = lcu.route, lcu.SignedPermutationCells.average

    def checked_route(perm, phase, thr, bits, *edges):
        want = perm.copy(), phase.copy(), thr.copy()
        route_oracle(*want, bits, zip(*np.broadcast_arrays(*edges)))
        route(perm, phase, thr, bits, *edges)
        for got, expect in zip((perm, phase, thr), want):
            assert np.array_equal(got, expect)
        calls.append("route")

    def checked_average(self, weights=1.0):
        out = average(self, weights)
        assert (out == average_oracle(self, weights)).all()
        calls.append("average")
        return out

    monkeypatch.setattr(lcu, "route", checked_route)
    monkeypatch.setattr(lcu.SignedPermutationCells, "average", checked_average)
    return calls


@pytest.mark.parametrize("bits", [3, 8])
def test_short_cells_match_the_loops(pinned_to_the_loops, bits):
    for enc in short_encodings(bits):
        enc.cells.average()
    # one encoding per factor of the k = 1, r = 1 schedules: 4 + 4 + 6
    assert pinned_to_the_loops.count("route") == pinned_to_the_loops.count("average") == 14


@pytest.mark.parametrize("bits", [8, 12])
def test_long_cells_match_the_loops(pinned_to_the_loops, bits):
    for enc in long_encodings(bits, frames=("Z", "ZI")):
        enc.block()
    assert pinned_to_the_loops.count("route") == 2 * pinned_to_the_loops.count("average") == 10


@pytest.mark.parametrize("bits", [3, 8])
def test_random_edges_match_the_loops(pinned_to_the_loops, bits):
    """Random signed permutations with zero amplitudes and exact rounding ties."""
    rng = np.random.default_rng(600 + bits)
    cells, dim = 6, 8
    perm, phase, thr = lcu.blank_cells(cells, dim)
    k = np.repeat(np.arange(cells), dim)
    j = np.tile(np.arange(dim), cells)
    to = np.concatenate([rng.permutation(dim) for _ in range(cells)])
    amp = rng.uniform(0, 1, k.size) * np.exp(2j * np.pi * rng.uniform(size=k.size))
    amp[rng.uniform(size=k.size) < 0.2] = 0.0
    # |amp| = (2m+1)/2^(B+1) exactly on the four axis directions
    ties = rng.uniform(size=k.size) < 0.3
    odd = 2 * rng.integers(0, 1 << bits, ties.sum()) + 1
    amp[ties] = odd / 2.0 ** (bits + 1) * rng.choice([1, -1, 1j, -1j], ties.sum())
    carried = np.exp(2j * np.pi * rng.uniform(size=k.size))
    lcu.route(perm, phase, thr, bits, k, j, to, amp, carried)
    # every tie went to the even neighbor, or to the clamp 2^B - 1 from 2^B - 1/2
    tied = thr[k, j][ties]
    assert ((tied % 2 == 0) | (tied == (1 << bits) - 1)).all()
    weights = rng.uniform(size=cells)
    lcu.SignedPermutationCells(perm, phase, thr, bits, cells).average(weights)
    assert pinned_to_the_loops == ["route", "average"]


@pytest.mark.parametrize("m", [1, 3, 7, 9, 27, 101, 403, 1609])
def test_amplified_block_matches_the_svd_oracle_on_random_blocks(m):
    """The degrees of d_pad = 1, 2, 4, 8, 16 and 32, plus 3 and 9; 1609 is
    prime, so one ladder runs over all eleven of its bits."""
    rng = np.random.default_rng(m)
    for dim in (2, 16, 64):
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        for top in (0.058, 0.5, 0.9, 1.0):
            block = a * (top / spectral_norm(a))
            # one ulp of sigma moves either form by the map's slope times
            # 1e-16, and the slope is m / cos(arcsin sigma) below one and
            # about m^2 at one; the bound allows ten ulps
            slope = m / math.sqrt(1.0 - top * top) if top < 1.0 else m * m
            got = lcu.amplified_block(block, (m - 1) // 2)
            want = amplified_svd_oracle(block, (m - 1) // 2)
            assert np.max(np.abs(got - want)) <= max(1e-13, slope * 1e-15)


def test_amplified_block_measures_what_the_schur_bound_does_not_clear(monkeypatch):
    """A scaled Fourier matrix has every singular value 0.9 and Schur bound
    0.9 * sqrt(dim), so its norm is measured, and it passes."""
    block = 0.9 * qft_matrix(4)
    measured = []

    def counted(a):
        measured.append(a)
        return spectral_norm(a)

    monkeypatch.setattr(lcu, "spectral_norm", counted)
    for p in (3, 13):
        want = amplified_svd_oracle(block, p)
        assert np.max(np.abs(lcu.amplified_block(block, p) - want)) <= 1e-13
    assert len(measured) == 2


@pytest.mark.parametrize("unit", [np.eye(4), qft_matrix(4)])
def test_amplified_block_refuses_a_singular_value_above_one(unit):
    """Schur bounds 1 + 1e-6 and 4 (1 + 1e-6): both are measured, and refused."""
    with pytest.raises(InvariantViolation, match="singular value above one"):
        lcu.amplified_block((1 + 1e-6) * unit, 13)


# ---------------------------------------------------------------------------
# the one amplification of both encodings


def test_short_time_amplifies_with_the_shared_class():
    assert sh.AmplifiedStep is lcu.AmplifiedStep


@pytest.mark.parametrize(("shape", "r", "bits", "p"), [
    ("sine", 4, 4, 9), ("linear", 8, 5, 15), ("random", 4, 4, 32),
])
def test_long_time_closed_form_is_the_applied_amplification(shape, r, bits, p):
    """The reflections applied to the flagged long-time register agree with
    the odd polynomial of its block, and lift every column to weight one."""
    if shape == "random":
        ham = random_smooth_system(np.random.default_rng(21), grid=32)
    else:
        ham = lt.two_level_sweep(1.0, 0.2, shape=shape, grid=8)
    step = lcu.AmplifiedStep(lt.PropagatorEncoding(ham, 20.0, r, bits))
    assert step.p == p
    walked, walked_weight = applied_amplification(step)
    block, weight = step.amplified()
    assert np.max(np.abs(walked - block)) <= 1e-11
    assert walked_weight == pytest.approx(weight, abs=1e-11)
    assert weight >= 1.0 - 1e-12


def test_prep_commutes_through_the_side_flip():
    """PREP+ FLIP PREP = FLIP: the flagged branch of the amplified walk is
    a bare side flip only while PREP leaves the side axis alone."""
    rng = np.random.default_rng(17)
    for enc in long_encodings(4) + short_encodings(4):
        x = rng.normal(size=enc.shape) + 1j * rng.normal(size=enc.shape)
        x /= np.linalg.norm(x)
        flipped = np.flip(enc.prep(x), axis=-2)
        if isinstance(enc, lt.PropagatorEncoding):
            got = enc.prep(flipped, adjoint=True)
        else:
            got = enc.prep(flipped)
        assert np.max(np.abs(got - np.flip(x, axis=-2))) <= 1e-15


def test_amplified_applies_no_select(monkeypatch):
    def refuse(self, vec, adjoint=False):
        raise AssertionError("amplified() applied the select")

    monkeypatch.setattr(lcu.SignedPermutationCells, "apply", refuse)
    for enc in long_encodings(4)[:1] + short_encodings(4)[:1]:
        block, _ = lcu.AmplifiedStep(enc).amplified()
        assert block.shape == (enc.dim, enc.dim)
