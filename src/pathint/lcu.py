"""Signed-permutation linear combination of unitaries.

Both path-sum encodings synthesize their target as an average of signed
permutations on a folded ``(side, state)`` register of 2N amplitudes.  A
cell is one such permutation: ``perm[col]`` is the output index of input
column ``col`` (columns 0..N-1 are side 0, N..2N-1 side 1), ``phase[col]``
its unit phase, and ``thr[col]`` its rounded B-bit magnitude.
Replica ``b`` weights a column by 1 while ``b < thr`` and by (-1)^b from
``thr`` upward, so the average over the 2^B replicas keeps the magnitude
``(thr - (thr & 1)) / 2^B``: a column with ``thr = 0`` cancels exactly and
``thr = 2^B`` passes with weight one.

The select register is viewed as ``(lead, 2^B, colors, 2N)`` with the
cells stacked in ``(lead, colors)`` order, so the leading axes and the
color axes together index the cells.  By the LCU lemma an encoding's
zero-ancilla block is the cell sum weighted by |PREP[k, 0]|^2 and averaged
over replicas (``SignedPermutationCells.average``); walking the register
(``system_block``) is the oracle the tests check it against.  ``route`` is
the one rule that writes a colored edge of either encoding into a cell.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .decomp import round_to_bits
from .errors import CapExceeded, InvariantViolation

# Bytes of the complex register a walk may allocate (2^24 amplitudes).  A
# walk's peak RSS grew 4.1-4.6x its register bytes (long-time sine sweep,
# r=8, bits 16 and 14), so about 1.2 GiB at the cap; the select's boolean
# replica table is 1/16 of the register, so this bounds it too.
WALK_REGISTER_CAP = 256 << 20


def replica_flip(b: np.ndarray | int, thr: np.ndarray | int) -> np.ndarray:
    """Does replica ``b`` negate a column of rounded magnitude ``thr``?"""
    return np.greater_equal(b, thr) & (np.mod(b, 2) == 1)


def replica_weight(b: np.ndarray | int, thr: np.ndarray | int) -> np.ndarray:
    """Sign that replica ``b`` gives a column of rounded magnitude ``thr``."""
    return np.where(replica_flip(b, thr), -1.0, 1.0)


def replica_average(thr: np.ndarray | int, bits: int) -> np.ndarray:
    """Closed form of ``replica_weight`` averaged over all 2^bits replicas."""
    return (thr - (thr & 1)) / float(1 << bits)


def blank_cells(cells: int, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Blank ``(perm, phase, thr)`` tables for ``cells`` cells on 2N columns.

    Every column moves to the other side with phase 1 and threshold 0, so
    it cancels in the replica average until an edge is routed through it.
    """
    perm = np.tile(np.concatenate([np.arange(dim) + dim, np.arange(dim)]), (cells, 1))
    return perm, np.ones(perm.shape, dtype=complex), np.zeros(perm.shape, dtype=np.int64)


def unit_phase(z: complex) -> complex:
    """z/|z|, or 1 when z is zero."""
    mag = abs(z)
    return z / mag if mag > 0 else 1.0


def route(
    perm: np.ndarray, phase: np.ndarray, thr: np.ndarray, bits: int, edges: Iterable[tuple]
) -> None:
    """Write colored edges into the select columns of ``(perm, phase, thr)``.

    The one edge rule of both encodings: edge ``(k, j, to, amp, carried)``
    maps column j of cell k to row ``to`` and the mirrored column N + ``to``
    to row N + j, with phase ``carried`` times amp/|amp| and threshold
    ``round_to_bits(|amp|, bits)`` on column j.  Two edges of one cell that
    share a target leave a row that is not a permutation, which
    ``SignedPermutationCells`` refuses.  The arithmetic is scalar, one edge
    at a time: numpy's vectorized complex abs and product can differ from
    it in the last bit.
    """
    dim = perm.shape[1] // 2
    for k, j, to, amp, carried in edges:
        perm[k, j] = to
        perm[k, dim + to] = dim + j
        phase[k, j] = carried * unit_phase(amp)
        thr[k, j] = round_to_bits(abs(amp), bits)


def hadamard_axes(arr: np.ndarray, axes: Sequence[int]) -> np.ndarray:
    """Tensor-Hadamard transform along each power-of-two axis in turn (normalized).

    The butterflies run in place on one C-ordered working copy, so the input
    is never modified.  Level h pairs index i with i + h within blocks of 2h
    as (top + bot, top - bot), and each axis ends with a division by the
    square root of its length.
    """
    out = arr.astype(np.result_type(arr, np.float64), order="C")
    for axis in axes:
        n = out.shape[axis]
        if n == 1:
            continue
        lead = math.prod(out.shape[:axis])
        v = out.reshape(lead, n, -1)
        spare = np.empty(v.size // 2, dtype=out.dtype)
        h = 1
        while h < n:
            pairs = v.reshape(lead, n // (2 * h), 2, -1)
            top, bot = pairs[:, :, 0], pairs[:, :, 1]
            diff = spare.reshape(top.shape)
            np.subtract(top, bot, out=diff)
            top += bot
            bot[...] = diff
            h *= 2
        out /= np.sqrt(n)
    return out


def system_block(walk: Callable[[np.ndarray], np.ndarray], size: int, dim: int) -> np.ndarray:
    """Zero-ancilla block of a walk, one basis column at a time.

    The register is flat with every ancilla index slower than the system
    index, so its first ``dim`` amplitudes are the zero-ancilla subspace.
    Refuses before allocating when the register or the ``dim`` x ``dim``
    output would exceed ``WALK_REGISTER_CAP`` bytes.
    """
    if max(size, dim * dim) * np.dtype(complex).itemsize > WALK_REGISTER_CAP:
        raise CapExceeded(f"walk of {size} amplitudes to a {dim}-column block exceeds the cap")
    out = np.empty((dim, dim), dtype=complex)
    for j in range(dim):
        column = np.zeros(size, dtype=complex)
        column[j] = 1.0
        out[:, j] = walk(column)[:dim]
    return out


class SignedPermutationCells:
    """Stacked select cells, each a signed permutation of the folded register.

    ``perm``, ``phase`` and ``thr`` have shape (cells, 2N); ``colors`` is the
    number of cells per leading index of the register view.
    """

    def __init__(
        self,
        perm: np.ndarray,
        phase: np.ndarray,
        thr: np.ndarray,
        bits: int,
        colors: int,
    ):
        columns = np.broadcast_to(np.arange(perm.shape[1]), perm.shape)
        if not np.array_equal(np.sort(perm, axis=1), columns):
            raise InvariantViolation("select cell is not a permutation")
        self.perm = perm
        self.phase = phase
        self.thr = thr
        self.bits = bits
        self.width = 1 << bits
        self.colors = colors

    @cached_property
    def _flip(self) -> np.ndarray:
        """Boolean (cells, 2^B, 2N) table of the replicas that negate a column."""
        b = np.arange(self.width)[None, :, None]
        return replica_flip(b, self.thr[:, None, :])

    def apply(self, vec: np.ndarray, adjoint: bool = False) -> np.ndarray:
        """Select: cell k acts on its (2^B, 2N) slice of the register."""
        cells, two_n = self.perm.shape
        v = vec.reshape(-1, self.width, self.colors, two_n)
        out = np.empty_like(v)
        for k in range(cells):
            lead, color = divmod(k, self.colors)
            block = v[lead, :, color]
            perm, flip = self.perm[k], self._flip[k]
            if adjoint:
                x = np.conj(self.phase[k]) * block[:, perm]
                np.negative(x, out=x, where=flip)
                out[lead, :, color] = x
            else:
                x = self.phase[k] * block
                np.negative(x, out=x, where=flip)
                out[lead, :, color][:, perm] = x
        return out.reshape(vec.shape)

    def average(self, weights: np.ndarray | float = 1.0) -> np.ndarray:
        """Replica-averaged sum of the cells, cell k scaled by ``weights[k]``.

        A dense (2N x 2N) matrix; with PREP's |PREP[k, 0]|^2 as the weights
        its side-0 block is the encoding's zero-ancilla block.
        """
        two_n = self.perm.shape[1]
        out = np.zeros((two_n, two_n), dtype=complex)
        cols = np.arange(two_n)
        weights = np.broadcast_to(weights, len(self.perm))
        for perm, phase, thr, w in zip(self.perm, self.phase, self.thr, weights):
            out[perm, cols] += w * replica_average(thr, self.bits) * phase
        return out
