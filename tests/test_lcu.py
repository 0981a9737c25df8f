from __future__ import annotations

import math

import numpy as np
import pytest

from pathint import decomp as dc
from pathint import lcu
from pathint import long_time as lt
from pathint import short_time as sh
from pathint.errors import CapExceeded, InvariantViolation
from pathint.trotter import schedule

from support import pauli_string, random_smooth_system


def test_replica_average_is_the_mean_of_the_weight_rule():
    for bits in (3, 6):
        width = 1 << bits
        replicas = np.arange(width)
        for thr in (0, 1, 2, 5, width - 1, width):
            explicit = np.mean(lcu.replica_weight(replicas, thr))
            assert lcu.replica_average(thr, bits) == explicit


def test_cells_must_be_permutations():
    perm, phase, thr = lcu.blank_cells(2, 2)
    perm[1, 0] = perm[1, 1]
    with pytest.raises(InvariantViolation):
        lcu.SignedPermutationCells(perm, phase, thr, 2, 1)


def test_route_writes_the_edge_rule():
    dim, carried = 3, np.exp(-1.1j)
    for bits in (3, 6):
        edges = [
            (0, j, (j + 1) % dim, mag * np.exp(0.4j * (j + 1)), carried)
            for j, mag in enumerate((0.0, 0.3, 1.0))
        ]
        perm, phase, thr = lcu.blank_cells(1, dim)
        lcu.route(perm, phase, thr, bits, edges)
        avg = lcu.SignedPermutationCells(perm, phase, thr, bits, 1).average()
        want = np.zeros((2 * dim, 2 * dim), dtype=complex)
        for _, j, to, amp, _ in edges[1:]:
            kept = lcu.replica_average(dc.round_to_bits(abs(amp), bits), bits)
            want[to, j] = kept * carried * amp / abs(amp)
        for _, j, to, _, _ in edges:
            assert perm[0, j] == to and perm[0, dim + to] == dim + j
        # the zero-amplitude edge (column 0) and the mirrored side-1 columns cancel
        assert not avg[:, 0].any() and not avg[:, dim:].any()
        assert np.max(np.abs(avg - want)) <= 1e-15


def test_route_refuses_a_shared_target():
    perm, phase, thr = lcu.blank_cells(1, 3)
    lcu.route(perm, phase, thr, 4, [(0, 0, 1, 0.5, 1.0), (0, 2, 1, 0.5, 1.0)])
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


def long_encodings(bits):
    systems = (
        lt.two_level_sweep(1.0, 0.2, shape="sine", grid=8),
        lt.two_level_sweep(1.0, 0.2, shape="linear", grid=8),
        random_smooth_system(np.random.default_rng(21), grid=32),
        lt.interaction_frame(
            0.02 * pauli_string("Z"), pauli_string("Z") + 0.45 * pauli_string("X"), 40.0, grid=64
        ),
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

    amplitudes = lcu.WALK_REGISTER_CAP // np.dtype(complex).itemsize
    with pytest.raises(CapExceeded):
        lcu.system_block(walk, amplitudes + 1, 2)


def test_system_block_refuses_an_output_above_the_cap():
    def walk(vec):
        raise AssertionError("walked into a block above the cap")

    amplitudes = lcu.WALK_REGISTER_CAP // np.dtype(complex).itemsize
    side = math.isqrt(amplitudes) + 1
    with pytest.raises(CapExceeded):
        lcu.system_block(walk, side, side)
