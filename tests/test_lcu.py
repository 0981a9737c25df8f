from __future__ import annotations

import numpy as np
import pytest

from pathint import lcu
from pathint.errors import InvariantViolation


def test_replica_average_is_the_mean_of_the_weight_rule():
    for bits in (3, 6):
        width = 1 << bits
        replicas = np.arange(width)
        for thr in (0, 1, 2, 5, width - 1, width):
            explicit = np.mean(lcu.replica_weight(replicas, thr))
            assert lcu.replica_average(thr, bits) == explicit


def test_cells_must_be_permutations():
    perm = lcu.folded_flip(2, 2)
    perm[1, 0] = perm[1, 1]
    phase = np.ones(perm.shape, dtype=complex)
    thr = np.zeros(perm.shape, dtype=np.int64)
    with pytest.raises(InvariantViolation):
        lcu.SignedPermutationCells(perm, phase, thr, 2, 1)


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
