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
