from __future__ import annotations

from functools import partial

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathint import linalg
from pathint import long_time as lt
from pathint.errors import InvariantViolation, SpecError
from support import (
    PAULI_X,
    PAULI_Z,
    ode_propagator,
    pauli_string,
    propagator_self_check,
    random_hermitian,
    random_smooth_system,
)


def herm_strategy(dim: int):
    flat = st.lists(
        st.floats(-3, 3, allow_nan=False, width=32), min_size=2 * dim * dim, max_size=2 * dim * dim
    )
    return flat.map(
        lambda xs: (lambda a: (a + a.conj().T) / 2)(
            np.array(xs[: dim * dim]).reshape(dim, dim)
            + 1j * np.array(xs[dim * dim :]).reshape(dim, dim)
        )
    )


def test_rejects_non_hermitian():
    with pytest.raises(InvariantViolation):
        linalg.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eig_sorted_and_orthonormal():
    rng = np.random.default_rng(7)
    h = random_hermitian(rng, 8)
    eig = linalg.hermitian_eig(h)
    assert np.all(np.diff(eig.values) >= 0)
    npt.assert_allclose(eig.vectors.conj().T @ eig.vectors, np.eye(8), atol=1e-12)
    npt.assert_allclose((eig.vectors * eig.values) @ eig.vectors.conj().T, h, atol=1e-12)


def test_eig_gauge_deterministic_under_column_shuffle():
    # Degenerate spectrum: backend could return any rotation of each cluster.
    # The gauge must erase that freedom.
    zz = pauli_string("ZZ")
    a = linalg.hermitian_eig(zz)
    # build the same operator after a random unitary similarity inside the
    # degenerate eigenspaces: here just re-run on a permuted-congruent matrix
    b = linalg.hermitian_eig(zz.astype(complex))
    npt.assert_allclose(a.vectors, b.vectors, atol=1e-12)
    # eigenbasis of Z@Z in the fixed gauge is computational, cluster-sorted
    expect = np.zeros((4, 4), dtype=complex)
    expect[1, 0] = 1  # value -1 cluster: |01>, |10>
    expect[2, 1] = 1
    expect[0, 2] = 1  # value +1 cluster: |00>, |11>
    expect[3, 3] = 1
    npt.assert_allclose(a.vectors, expect, atol=1e-12)


def test_eig_example_diag():
    eig = linalg.hermitian_eig(np.diag([3.0, -4.0]))
    npt.assert_allclose(eig.values, [-4.0, 3.0])
    assert linalg.spectral_norm(np.diag([3.0, -4.0])) == pytest.approx(4.0)


@settings(max_examples=25, deadline=None)
@given(herm_strategy(3))
def test_exp_unitary_is_unitary(h):
    u = linalg.exp_unitary(h, 0.7)
    npt.assert_allclose(u.conj().T @ u, np.eye(3), atol=1e-10)


@settings(max_examples=25, deadline=None)
@given(herm_strategy(3), st.floats(-2, 2), st.floats(-2, 2))
def test_exp_unitary_semigroup(h, s, t):
    u = linalg.exp_unitary(h, s) @ linalg.exp_unitary(h, t)
    npt.assert_allclose(u, linalg.exp_unitary(h, s + t), atol=1e-9)


def test_exp_unitary_pauli_z_half():
    # exp(-i Z/2) has phases e^{-i/2}, e^{+i/2}
    u = linalg.exp_unitary(PAULI_Z, 0.5)
    npt.assert_allclose(u, np.diag([np.exp(-0.5j), np.exp(0.5j)]), atol=1e-12)


@pytest.mark.parametrize("h", [
    pauli_string("ZZ") + pauli_string("XX"),
    pauli_string("ZZIIII") + pauli_string("XXIIII") + pauli_string("IIYZII"),
    random_hermitian(np.random.default_rng(12), 8),
], ids=["zz-xx", "six-qubits", "dense"])
def test_exp_unitary_needs_no_gauge(h):
    """exp(-iHt) on degenerate spectra from one plain eigh: the same matrix
    as scipy's expm and as the gauge-fixed eigensystem, within 1e-13."""
    from scipy.linalg import expm

    eig = linalg.hermitian_eig(h)
    for t in (0.3, 1.1):
        got = linalg.exp_unitary(h, t)
        gauged = (eig.vectors * np.exp(-1j * eig.values * t)) @ eig.vectors.conj().T
        assert np.max(np.abs(got - expm(-1j * t * h))) <= 1e-13
        assert np.max(np.abs(got - gauged)) <= 1e-13


def test_qft_unitary_and_entries():
    for dim in (2, 3, 4, 8, 9):
        q = linalg.fourier_matrix(dim)
        npt.assert_allclose(q.conj().T @ q, np.eye(dim), atol=1e-12)
        npt.assert_allclose(q[1, 1], np.exp(2j * np.pi / dim) / np.sqrt(dim))


def test_spectral_norm_matches_svd():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    assert linalg.spectral_norm(a) == pytest.approx(np.linalg.svd(a)[1][0])


def chunks(drive):
    """A chunk source that samples ``drive`` anew on every call; the drives
    here are Hermitian by construction, so nothing checks them."""
    return partial(linalg.midpoint_eigensystem, drive)


def test_time_ordered_constant_matches_exp():
    h = 0.3 * PAULI_X + 0.9 * PAULI_Z

    def ham(s: np.ndarray) -> np.ndarray:
        return np.broadcast_to(h, np.shape(s) + h.shape)

    u = linalg.time_ordered_propagator(chunks(ham), 1.0, 256)
    npt.assert_allclose(u, linalg.exp_unitary(h, 1.0), atol=1e-8)


def test_time_ordered_linear_drive_example():
    # H(s) = s Z integrates to Z/2 and commutes at all times
    def ham(s: np.ndarray) -> np.ndarray:
        return np.multiply.outer(s, PAULI_Z)

    u = linalg.time_ordered_propagator(chunks(ham), 1.0, 512)
    npt.assert_allclose(u, linalg.exp_unitary(PAULI_Z, 0.5), atol=1e-7)


def test_midpoint_richardson_ratio():
    def ham(s: np.ndarray) -> np.ndarray:
        return np.multiply.outer(np.cos(s), PAULI_Z) + np.multiply.outer(np.sin(s), PAULI_X)

    ratio = propagator_self_check(chunks(ham), 2.0, 64)
    assert ratio >= 3.0


def test_converged_propagator_agrees_with_refined_midpoint():
    def ham(s: np.ndarray) -> np.ndarray:
        return np.multiply.outer(np.cos(s), PAULI_Z) + np.multiply.outer(
            0.7 * np.sin(2 * s), PAULI_X
        )

    ref = linalg.converged_propagator(chunks(ham), 1.5, tol=1e-10)
    fine = linalg.time_ordered_propagator(chunks(ham), 1.5, 1 << 14)
    npt.assert_allclose(ref, fine, atol=1e-7)
    npt.assert_allclose(ref.conj().T @ ref, np.eye(2), atol=1e-10)


def _drive(name):
    # the long-sim sweeps, h(s) = a Z + b f(s) X, written apart from pathint,
    # or a seeded 3-level system
    if name.startswith("3-level"):
        return random_smooth_system(np.random.default_rng(int(name[-1])), dim=3).h
    a, b = 1.0, 0.3 if name == "sine" else 0.2
    f = {"sine": lambda s: np.sin(np.pi * s), "linear": lambda s: s}[name]

    def ham(s):
        return a * PAULI_Z + np.multiply.outer(b * f(s), PAULI_X)

    return ham


@pytest.mark.parametrize("shape", ["sine", "linear", "3-level-0", "3-level-1"])
@pytest.mark.parametrize("total_time", [20.0, 40.0, 80.0])
def test_converged_propagator_matches_an_ode_oracle(shape, total_time):
    ham = _drive(shape)
    got = linalg.converged_propagator(chunks(ham), total_time, tol=1e-9)
    assert linalg.spectral_norm(got - ode_propagator(ham, total_time)) < 1e-9


@pytest.mark.parametrize("shape", ["sine", "linear"])
@pytest.mark.parametrize("total_time", [20.0, 80.0])
def test_once_extrapolated_midpoint_rule_is_fourth_order(shape, total_time):
    # the midpoint rule's error is even in the step, so after the h^2 term
    # is eliminated the next is h^4: each doubling cuts the differences of
    # the once-extrapolated values by 16
    source = chunks(_drive(shape))
    grids = [linalg.time_ordered_propagator(source, total_time, n) for n in (512, 1024, 2048, 4096)]
    once = [(4.0 * fine - coarse) / 3.0 for coarse, fine in zip(grids, grids[1:])]
    first, second = (linalg.spectral_norm(b - a) for a, b in zip(once, once[1:]))
    assert 12.0 <= first / second <= 20.0


@pytest.mark.parametrize("shape", ["sine", "linear"])
def test_converged_propagator_grids_with_two_eliminations(shape):
    # removing the h^4 term as well lets the sweeps converge on grids of at
    # most 512, 1024 and 2048 slices at T = 20, 40 and 80
    ham = _drive(shape)
    for total_time, finest in ((20.0, 512), (40.0, 1024), (80.0, 2048)):
        steps = []

        def counting(n, lo):
            steps.append(n)
            return linalg.midpoint_eigensystem(ham, n, lo)

        linalg.converged_propagator(counting, total_time)
        assert steps[:3] == [64, 128, 256] and max(steps) <= finest


@pytest.mark.parametrize("steps", [9, 4, 1])
def test_time_ordered_chunk_boundaries_match_the_slice_product(monkeypatch, steps):
    # with chunks of 4 slices, 9 steps compose chunks of 4, 4 and 1
    monkeypatch.setattr(linalg, "MIDPOINT_CHUNK", 4)
    ham = random_smooth_system(np.random.default_rng(5), dim=3, grid=8)
    total_time = 3.0
    want = np.eye(3, dtype=complex)
    for j in range(steps):
        want = linalg.exp_unitary(ham.h((j + 0.5) / steps), total_time / steps) @ want
    direct = linalg.time_ordered_propagator(chunks(partial(ham.sample, "h")), total_time, steps)
    assert linalg.spectral_norm(direct - want) < 1e-13
    tabled = linalg.time_ordered_propagator(ham.midpoint_eigensystem, total_time, steps)
    assert np.array_equal(tabled, direct)
    assert sorted(ham._midpoints) == [(steps, lo) for lo in range(0, steps, 4)]
    assert [len(chunk.values) for chunk in ham._midpoints.values()] == [
        min(4, steps - lo) for lo in range(0, steps, 4)
    ]


def constant_z() -> lt.TimeDependentHamiltonian:
    """h(s) = Z at construction; tests replace ``h`` afterwards."""
    return lt.TimeDependentHamiltonian(
        dim=2,
        h=lambda s: np.broadcast_to(PAULI_Z, np.shape(s) + (2, 2)),
        dh=lambda s: np.zeros(np.shape(s) + (2, 2), dtype=complex),
        grid=4,
    )


def test_time_ordered_checks_each_slice_at_its_own_scale():
    # a tiny skew part on a unit-scale slice, next to slices a hundred times larger
    skew = PAULI_Z + 1e-9 * np.array([[0, 1], [0, 0]])

    def drive(s: np.ndarray) -> np.ndarray:
        s = np.asarray(s)[..., None, None]
        return np.where(s > 0.5, 100.0 * PAULI_Z, np.where(s > 0.2, skew, PAULI_Z))

    with pytest.raises(InvariantViolation):
        linalg.check_hermitian(skew)
    ham = constant_z()
    ham.h = drive
    with pytest.raises(InvariantViolation, match="not Hermitian"):
        linalg.time_ordered_propagator(ham.midpoint_eigensystem, 1.0, 64)


def test_time_ordered_rejects_drive_ignoring_the_array():
    ham = constant_z()
    ham.h = lambda s: PAULI_Z
    with pytest.raises(SpecError, match=r"expected \(64, 2, 2\)"):
        linalg.time_ordered_propagator(ham.midpoint_eigensystem, 1.0, 64)
