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
over replicas (``SignedPermutationCells.average``), which is also the sum
of the routed edges alone, each at its replica average times its phase;
walking the register (``system_block``) is the oracle the tests check both
against.  ``edge_rule`` gives a colored edge of either encoding its phase
and threshold, and ``route`` writes edges into a cell with it.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .decomp import round_to_bits
from .errors import InvariantViolation, require_cap


def replica_flip(b: np.ndarray | int, thr: np.ndarray | int) -> np.ndarray:
    """Does replica ``b`` negate a column of rounded magnitude ``thr``?"""
    return np.greater_equal(b, thr) & (np.mod(b, 2) == 1)


def replica_average(thr: np.ndarray | int, bits: int) -> np.ndarray:
    """Closed form of the replica sign (-1 where ``replica_flip``, else 1)
    averaged over all 2^bits replicas."""
    return (thr - (thr & 1)) / float(1 << bits)


def blank_cells(cells: int, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Blank ``(perm, phase, thr)`` tables for ``cells`` cells on 2N columns.

    Every column moves to the other side with phase 1 and threshold 0, so
    it cancels in the replica average until an edge is routed through it.
    """
    perm = np.tile(np.concatenate([np.arange(dim) + dim, np.arange(dim)]), (cells, 1))
    return perm, np.ones(perm.shape, dtype=complex), np.zeros(perm.shape, dtype=np.int64)


def unit_phase(z: np.ndarray | complex) -> np.ndarray:
    """z/|z| elementwise, or 1 where z is zero.

    |z| is ``hypot(re, im)``, which is what builtin ``abs`` of one complex
    computes (``np.abs`` of a complex array can differ in the last bit),
    and z/|z| is numpy's complex division, as on one numpy complex scalar.
    """
    z = np.asarray(z, dtype=complex)
    mag = np.hypot(z.real, z.imag)
    return np.divide(z, mag, out=np.ones_like(z), where=mag > 0)


def _times(a: np.ndarray | complex, b: np.ndarray) -> np.ndarray:
    """a * b elementwise, written out in real arithmetic.

    This is the product of two numpy complex scalars bit for bit; the
    vectorized complex multiply can differ from it in the last bit.
    """
    a = np.asarray(a, dtype=complex)
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def edge_rule(
    amp: np.ndarray, carried: np.ndarray | complex, bits: int
) -> tuple[np.ndarray, np.ndarray]:
    """Phase and threshold of colored edges given as columns.

    The one edge rule of both encodings: an edge of amplitude ``amp`` that
    carries the phase ``carried`` gets phase ``carried`` times
    ``unit_phase(amp)`` and threshold ``round_to_bits(|amp|, bits)``.
    |amp| is ``hypot(re, im)`` and the phase product is written out in real
    arithmetic, so every entry has the bits of the same edge written as
    numpy scalars one at a time.
    """
    return _times(carried, unit_phase(amp)), round_to_bits(np.hypot(amp.real, amp.imag), bits)


def route(
    perm: np.ndarray, phase: np.ndarray, thr: np.ndarray, bits: int,
    k: np.ndarray, j: np.ndarray, to: np.ndarray, amp: np.ndarray, carried: np.ndarray | complex,
) -> None:
    """Write colored edges into the select columns of ``(perm, phase, thr)``.

    Edge ``(k, j, to, amp, carried)`` maps column j of cell k to row ``to``
    and the mirrored column N + ``to`` to row N + j, with the phase and
    threshold of ``edge_rule`` on column j.  Two edges of one cell that
    share a target leave a row that is not a permutation, which
    ``SignedPermutationCells`` refuses.
    """
    dim = perm.shape[1] // 2
    perm[k, j] = to
    perm[k, dim + to] = dim + j
    phase[k, j], thr[k, j] = edge_rule(amp, carried, bits)


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
    output, at 16 bytes an amplitude, would pass the ``walk_register`` cap;
    the select's boolean replica table is 1/16 of the register.
    """
    require_cap("walk_register", max(size, dim * dim) * 16, "walk register bytes")
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
        cells, two_n = self.perm.shape
        scale = np.broadcast_to(weights, cells)[:, None] * replica_average(self.thr, self.bits)
        cols = np.broadcast_to(np.arange(two_n), self.perm.shape)
        out = np.zeros((two_n, two_n), dtype=complex)
        # unbuffered, in cell order: the float sum of adding the cells one by one
        np.add.at(out, (self.perm, cols), scale * self.phase)
        return out
