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
color axes together index the cells.  ``edge_rule`` gives a colored edge
of either encoding its phase and threshold, and ``route`` writes edges
into a cell with it.  By the LCU lemma an encoding's zero-ancilla block is
the cell sum weighted by |PREP[k, 0]|^2 and averaged over replicas, in
which blank columns cancel: the weighted sum of the routed edges alone
(``edge_sum``), the one closed form of both encodings.  Cells are built
only to walk the register (``system_block``), the tests' oracle.

Oblivious amplitude amplification with p rounds (``rounds_for``) maps each
singular value sigma of an encoded block to sin((2p+1) arcsin sigma) (Berry
et al., PRL 114, 090502 (2015)).  That map is an odd polynomial, so
``amplified_block`` applies it as a singular value transformation (Gilyen,
Su, Low and Wiebe, arXiv:1806.01838) from matrix products alone, to one
block or a whole stack.  ``AmplifiedStep`` is the one amplification of both
encodings.  It asks of an encoding only ``apply_w(vec, adjoint)``,
``block()``, ``dim``, ``subnormalization``, ``size`` and a register
``shape`` whose second-to-last axis is the side qubit.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .decomp import round_to_bits
from .errors import InvariantViolation, SpecError, require_cap
from .linalg import spectral_norm


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


def edge_sum(
    out: np.ndarray, to: np.ndarray, j: np.ndarray, amp: np.ndarray,
    carried: np.ndarray | complex, bits: int,
) -> np.ndarray:
    """Add each edge j -> ``to`` into ``out`` at its replica average times
    its ``edge_rule`` phase: the side-0 block of the replica-averaged cells
    they route into.  Unbuffered and in edge order, so edges that share an
    entry each add their term.
    """
    phase, thr = edge_rule(amp, carried, bits)
    np.add.at(out, (to, j), replica_average(thr, bits) * phase)
    return out


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


def rounds_for(subnormalization: float) -> int:
    """Smallest p with sin(pi / (2(2p+1))) <= 1/a."""
    if subnormalization < 1:
        raise SpecError("subnormalization below one")
    p = 0
    while np.sin(np.pi / (2 * (2 * p + 1))) > 1.0 / subnormalization + 1e-15:
        p += 1
    return p


def flag_dilution(subnormalization: float) -> tuple[int, float]:
    """p = ``rounds_for(a)`` and a' = 1/sin(pi/(2(2p+1))), to which one flag qubit dilutes a."""
    p = rounds_for(subnormalization)
    return p, 1.0 / np.sin(np.pi / (2 * (2 * p + 1)))


def _odd_chebyshev(block: np.ndarray, m: int) -> np.ndarray:
    """``block`` with each singular value sigma mapped to T_m(sigma), m odd.

    The pair (T_k, T_k+1) climbs the bits of m by T_2k = 2 T_k^2 - 1 and
    T_2k+1 = 2 T_k T_k+1 - T_1, two products a bit.  Odd terms are
    U f(Sigma) V^H and even ones V g(Sigma) V^H, so an odd term goes on the
    left of a product and squares through its adjoint.  Leading axes stack blocks.
    """
    eye = np.eye(block.shape[-1])
    odd, even, k_parity = block, 2.0 * (block.conj().swapaxes(-1, -2) @ block) - eye, 1
    for bit in map(int, bin(m)[3:-1]):
        # the next even term squares T_k (bit 0) or T_k+1 (bit 1)
        square = odd.conj().swapaxes(-1, -2) @ odd if bit != k_parity else even @ even
        odd, even, k_parity = 2.0 * (odd @ even) - block, 2.0 * square - eye, bit
    return 2.0 * (odd @ even) - block


def amplified_block(block: np.ndarray, p: int) -> np.ndarray:
    """``block`` with each singular value sigma mapped to sin((2p+1) arcsin sigma).

    sin(m arcsin sigma) = (-1)^p T_m(sigma) for m = 2p+1, and T_ab = T_a o T_b,
    so the ladder runs once per odd prime factor of m: six products for
    27 = 3^3, four for 7, twelve for 101, twenty for 1609, over a whole
    (..., D, D) stack at once.  Each block's Schur bound sqrt(||A||_1 ||A||_inf)
    shows sigma <= 1 without a decomposition; only a block it does not clear is measured.
    """
    mags = np.abs(block)
    schur = np.sqrt(mags.sum(axis=-2).max(axis=-1) * mags.sum(axis=-1).max(axis=-1))
    del mags  # freed before the ladder's stack-sized temporaries
    if any(spectral_norm(a) > 1.0 + 1e-9 for a in block[schur > 1.0]):
        raise InvariantViolation("encoded block has singular value above one")
    out, m, f = block, 2 * p + 1, 3
    while m > 1:
        f = next((g for g in range(f, math.isqrt(m) + 1, 2) if m % g == 0), m)
        out, m = _odd_chebyshev(out, f), m // f
    return -out if p % 2 else out


class AmplifiedStep:
    """Flag-padded oblivious amplitude amplification around one block encoding.

    One flag qubit dilutes the encoded block from 1/a to exactly
    sin(pi/(2(2p+1))) so p reflection rounds rotate the success amplitude to
    one.  The flagged branch flips the side qubit, leaving the measured
    zero-ancilla subspace untouched.  ``amplified`` forms the result from the
    flagged block alone, as the polynomial sin((2p+1) arcsin sigma) of its
    singular values; ``_amplified_iterate`` applies the reflections to the
    register and is the oracle the tests pin it against.
    """

    def __init__(self, encoding):
        self.encoding = encoding
        self.p, self.a_prime = flag_dilution(encoding.subnormalization)
        ratio = min(1.0, encoding.subnormalization / self.a_prime)
        self._cos = np.sqrt(ratio)
        self._sin = np.sqrt(max(0.0, 1.0 - ratio))
        self.shape = (2,) + encoding.shape
        self.size = 2 * encoding.size

    def _rotate_flag(self, v: np.ndarray, adjoint: bool) -> np.ndarray:
        """Flag-axis rotation |0> -> cos|0> + sin|1>, or its adjoint."""
        c, s = self._cos, self._sin
        combine, lower = (np.add, -s) if adjoint else (np.subtract, s)
        out = np.empty_like(v)
        spare = np.empty_like(v[0])
        np.multiply(c, v[0], out=out[0])
        combine(out[0], np.multiply(s, v[1], out=spare), out=out[0])
        np.multiply(lower, v[0], out=out[1])
        np.add(out[1], np.multiply(c, v[1], out=spare), out=out[1])
        return out

    def apply_w(self, vec: np.ndarray, adjoint: bool = False) -> np.ndarray:
        """W' = (F+ x I)(|0><0| x W + |1><1| x FLIP)(F x I), F the flag rotation.

        The flagged branch is W with its select replaced by the side flip,
        PREP+ FLIP PREP.  PREP acts on the ancilla axes only and FLIP on the
        side axis only, so that is FLIP itself.  The adjoint takes W+.
        """
        v = self._rotate_flag(vec.reshape(self.shape), adjoint=False)
        v[0] = self.encoding.apply_w(v[0], adjoint=adjoint)
        v[1] = np.flip(v[1], axis=-2)
        v = self._rotate_flag(v, adjoint=True)
        return v.reshape(vec.shape)

    def apply_reflection(self, vec: np.ndarray) -> np.ndarray:
        """R = -(1 - 2 W' Pi W'+)(1 - 2 Pi); Pi keeps the first dim amplitudes."""
        dim = self.encoding.dim
        v = vec.reshape(-1).copy()
        v[:dim] -= 2.0 * v[:dim]
        u = self.apply_w(v, adjoint=True)
        u[dim:] = 0.0
        u = self.apply_w(u)
        u *= 2.0
        u -= v
        return u.reshape(vec.shape)

    def flagged_block(self) -> np.ndarray:
        """System block of the flag-padded encoding before amplification:
        the encoded block times a/a', without touching the register."""
        enc = self.encoding
        return enc.block() * enc.subnormalization / self.a_prime

    def _amplified_iterate(self) -> np.ndarray:
        def amplify(v: np.ndarray) -> np.ndarray:
            v = self.apply_w(v)
            for _ in range(self.p):
                v = self.apply_reflection(v)
            return v

        return system_block(amplify, self.size, self.encoding.dim)

    def _amplified_svd(self) -> np.ndarray:
        """Closed form of the reflection product on the encoded block.

        The reflections act as a rotation by 2*arcsin(sigma) in each
        singular-direction plane, so p rounds map every singular value of the
        flagged block to sin((2p+1) arcsin(sigma)): the odd polynomial of
        ``amplified_block``, formed from matrix products with no SVD.
        The name is older than that form and stays, because the benchmark's
        layer trace times this method; the unit tests check it against the
        applied reflections.
        """
        return amplified_block(self.flagged_block(), self.p)

    def amplified(self) -> tuple[np.ndarray, float]:
        """Amplified system block and the worst-column success weight.

        Returns the zero-ancilla block of R^p W' as the odd polynomial of
        the flagged block (``_amplified_svd``) together with the smallest
        squared norm retained in the measured subspace over basis columns.
        ``_amplified_iterate`` applies the reflections to the register; the
        tests pin this form against it.
        """
        out = self._amplified_svd()
        weights = np.sum(np.abs(out) ** 2, axis=0)
        return out, float(weights.min())
