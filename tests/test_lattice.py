"""Tests for the lattice propagator module.

The frozen expected values come from direct evaluation of the defining
formulas: Fourier-conjugated momentum, the quadratic action phase, and both
sides of Gauss-sum reciprocity summed term by term.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pathint.decomp import QueryCounter
from pathint.errors import CAPS, CapExceeded, SpecError
from pathint.lattice import (
    LatticeConfig,
    Potential,
    action_phase,
    brute_force_propagator,
    constant_potential,
    feasible_error_bound,
    feasible_error_check,
    gauss_sum_check,
    gaussian_packet,
    harmonic_potential,
    lagrangian_propagator,
    lagrangian_step,
    momentum_mode_mask,
    momentum_op,
    split_step_reference,
    square_well_potential,
    step_global_phase,
    trajectory,
    zero_potential,
)
from pathint.linalg import exp_unitary, fourier_matrix, spectral_norm


def harmonic_mid(cfg: LatticeConfig, omega: float = 0.8) -> Potential:
    return harmonic_potential(cfg.mass, omega, cfg.x_max / 2, cfg.x_max)


def test_config_binding_and_validation():
    cfg = LatticeConfig(n=5, x_max=6.0, mass=1.3, r=4)
    assert cfg.dim == 32
    assert cfg.delta_x == 6.0 / 32
    assert abs(cfg.tau * 2 * np.pi - cfg.mass * cfg.x_max * cfg.delta_x) < 1e-15
    assert cfg.total_time == 4 * cfg.tau
    for bad in (
        dict(n=0, x_max=1.0, mass=1.0, r=1),
        dict(n=3, x_max=0.0, mass=1.0, r=1),
        dict(n=3, x_max=1.0, mass=-1.0, r=1),
        dict(n=3, x_max=1.0, mass=1.0, r=0),
    ):
        with pytest.raises(SpecError):
            LatticeConfig(**bad)
    # a grid past 2^10 points is a dense size past the cap, not a bad document
    with pytest.raises(CapExceeded, match="grid exponent n 11 above cap 10$"):
        LatticeConfig(n=11, x_max=1.0, mass=1.0, r=1)


def test_config_refuses_geometry_that_is_not_finite():
    # 1e300 is finite, but tau = mass * x_max**2 / (2*pi * 2**n) overflows
    for bad in (
        (3, math.inf, 1.0, 2), (3, math.nan, 1.0, 2), (3, 1.0, math.inf, 2), (3, 1e300, 1.0, 2),
    ):
        with pytest.raises(SpecError):
            LatticeConfig(*bad)


def test_potential_bound_enforced():
    cfg = LatticeConfig(n=3, x_max=4.0, mass=1.0, r=1)
    lying = Potential(energy=lambda x: x * x, v_max=1.0)
    with pytest.raises(SpecError):
        lying.grid_values(cfg)
    well = square_well_potential(2.5, 1.0, 3.0)
    vals = well.grid_values(cfg)
    assert well.v_max == 2.5
    assert vals.min() == -2.5 and vals.max() == 0.0
    with pytest.raises(SpecError):
        square_well_potential(1.0, 2.0, 2.0)
    harm = harmonic_potential(1.0, 2.0, 1.0, 4.0)
    assert harm.v_max == pytest.approx(0.5 * 4.0 * 9.0)


def test_momentum_operator_eigenstructure():
    cfg = LatticeConfig(n=3, x_max=4.0, mass=1.0, r=1)
    p = momentum_op(cfg)
    assert spectral_norm(p - p.conj().T) < 1e-10
    f = fourier_matrix(8)
    for q in range(8):
        val = 2 * np.pi * q / cfg.x_max
        assert np.linalg.norm(p @ f[:, q] - val * f[:, q]) < 1e-10


def test_momentum_generates_cyclic_shift():
    for n in range(1, 9):
        cfg = LatticeConfig(n=n, x_max=5.0, mass=1.3, r=1)
        shift = exp_unitary(momentum_op(cfg), cfg.delta_x)
        target = np.roll(np.eye(cfg.dim), 1, axis=0)
        assert spectral_norm(shift - target) < 1e-10


def test_action_oracle_call_values():
    cfg = LatticeConfig(n=3, x_max=4.0, mass=1.0, r=1)
    pot = harmonic_mid(cfg)
    v = pot.grid_values(cfg)
    for q in range(8):
        got = action_phase(cfg, v, q, 0)
        want = np.exp(2j * np.pi * q * q / 16 - 1j * cfg.tau * v[q])
        assert abs(got - want) < 1e-12
    free = zero_potential().grid_values(cfg)
    rng = np.random.default_rng(11)
    for _ in range(100):
        q = int(rng.integers(8))
        assert action_phase(cfg, free, q, q) == pytest.approx(1.0)
        a, b = int(rng.integers(8)), int(rng.integers(8))
        assert abs(abs(action_phase(cfg, v, a, b)) - 1.0) < 1e-12


def test_walk_phases_are_the_oracle_table():
    # The walk's two queries are the table's column (q, 0) and row (0, q), so
    # one step equals the step formed from the whole action table, bit for bit.
    cfg = LatticeConfig(n=10, x_max=20.0, mass=1.3, r=1)
    psi = gaussian_packet(cfg, 9.0, 1.0, 0.6)
    q = np.arange(cfg.dim)
    for pot in (harmonic_mid(cfg), square_well_potential(0.9, 5.0, 15.0)):
        values = pot.grid_values(cfg)
        table = action_phase(cfg, values, q[:, None], q[None, :])
        want = table[0, :] * np.fft.fft(table[:, 0] * psi, norm="ortho")
        (block,) = trajectory(cfg, values, psi, 2)
        assert np.array_equal(block[1, 0], want)


def test_step_matches_free_propagator():
    cfg = LatticeConfig(n=6, x_max=12.0, mass=1.0, r=1)
    pot = zero_potential()
    u = lagrangian_propagator(cfg, pot)
    g = step_global_phase(cfg, pot)
    target = split_step_reference(cfg, pot)
    assert spectral_norm(u * g - target) < 1e-10


def test_step_matches_split_product_with_potential():
    cfg = LatticeConfig(n=4, x_max=8.0, mass=1.0, r=1)
    for pot in (
        harmonic_mid(cfg),
        square_well_potential(1.5, 2.0, 6.0),
        constant_potential(-0.9),
    ):
        u = lagrangian_propagator(cfg, pot)
        g = step_global_phase(cfg, pot)
        assert spectral_norm(u * g - split_step_reference(cfg, pot)) < 1e-10


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 6),
    omega=st.floats(0.1, 2.0),
    mass=st.floats(0.5, 2.0),
)
def test_step_identity_property(n, omega, mass):
    cfg = LatticeConfig(n=n, x_max=7.0, mass=mass, r=1)
    pot = harmonic_potential(mass, omega, cfg.x_max / 2, cfg.x_max)
    u = lagrangian_propagator(cfg, pot)
    g = step_global_phase(cfg, pot)
    assert spectral_norm(u * g - split_step_reference(cfg, pot)) < 1e-10


def test_split_steps_match_the_dense_split_step():
    # The reference half of the stacked walk against split_step_reference,
    # which exponentiates tau*P^2/2m by eigh.  Its rounding scales as
    # 2^n * eps * tau*p_max^2/2m, and that largest kinetic phase is
    # pi*(2^n - 1)^2/2^n for any geometry, so past n = 6 the oracle itself is
    # off by more than 1e-12 (6.9e-12 at n = 8).  The product F diag F^dag,
    # with F from fourier_matrix, holds the walk to 1e-12 at every n.  A stack
    # of states walks as each state alone, and a walk does not depend on
    # where its blocks break, bit for bit.
    eps = np.finfo(float).eps
    rng = np.random.default_rng(7)
    for n in range(1, 9):
        cfg = LatticeConfig(n=n, x_max=8.0, mass=1.0, r=1)
        three = LatticeConfig(n=n, x_max=8.0, mass=1.0, r=3)
        f = fourier_matrix(cfg.dim)
        kinetic = cfg.tau * cfg.momenta() ** 2 / (2.0 * cfg.mass)
        tol = max(1e-12, cfg.dim * eps * kinetic[-1])
        for pot in (
            zero_potential(),
            constant_potential(-0.9),
            harmonic_mid(cfg),
            square_well_potential(1.5, 2.0, 6.0),
        ):
            values = pot.grid_values(cfg)
            circuit, reference = [], []
            for column in np.eye(cfg.dim, dtype=complex):
                (block,) = trajectory(cfg, values, column, 2)
                assert np.array_equal(block[0], [column, column])
                circuit.append(block[1, 0])
                reference.append(block[1, 1])
            assert np.array_equal(lagrangian_propagator(cfg, pot), np.array(circuit).T)
            got = np.array(reference).T
            assert spectral_norm(got - split_step_reference(cfg, pot)) < tol
            explicit = (f * np.exp(-1j * kinetic)) @ f.conj().T * np.exp(-1j * cfg.tau * values)
            assert spectral_norm(got - explicit) < 1e-12
            psi = rng.normal(size=cfg.dim) + 1j * rng.normal(size=cfg.dim)
            psi /= np.linalg.norm(psi)
            want = np.linalg.matrix_power(explicit, 3) @ psi
            pairs = np.concatenate(list(trajectory(three, values, psi, 2)))
            assert pairs.shape == (4, 2, cfg.dim)
            assert np.linalg.norm(pairs[-1, 1] - want) < 1e-12
            (whole,) = trajectory(three, values, psi, 4)
            assert np.array_equal(pairs, whole)


def test_step_rejects_bad_states():
    cfg = LatticeConfig(n=3, x_max=4.0, mass=1.0, r=1)
    pot = zero_potential()
    with pytest.raises(SpecError):
        lagrangian_step(cfg, pot, np.ones(8))
    with pytest.raises(SpecError):
        lagrangian_step(cfg, pot, np.zeros(4))


def test_nan_and_vanishing_states_are_refused():
    # abs(nan - 1) > tol is False, so the norm rule must be written to fail on NaN
    cfg = LatticeConfig(n=3, x_max=4.0, mass=1.0, r=1)
    with pytest.raises(SpecError, match="normalized"):
        lagrangian_step(cfg, zero_potential(), np.full(8, np.nan))
    for center, width in ((np.nan, 1.0), (1.0, np.nan), (1e3, 0.01)):
        with pytest.raises(SpecError, match="normalize"):
            gaussian_packet(cfg, center, width, 0.0)


def test_propagator_matches_split_power():
    cfg = LatticeConfig(n=6, x_max=12.0, mass=1.0, r=8)
    pot = harmonic_mid(cfg)
    u = lagrangian_propagator(cfg, pot)
    g = step_global_phase(cfg, pot) ** cfg.r
    ref = np.linalg.matrix_power(split_step_reference(cfg, pot), 8)
    assert spectral_norm(u * g - ref) < 1e-9
    assert spectral_norm(u.conj().T @ u - np.eye(64)) < 1e-10


def test_propagator_work_cap():
    cfg = LatticeConfig(n=10, x_max=12.0, mass=1.0, r=65)
    with pytest.raises(CapExceeded):
        lagrangian_propagator(cfg, zero_potential())


def test_brute_force_path_sum_agreement():
    cfg = LatticeConfig(n=2, x_max=4.0, mass=1.0, r=3)
    pot = harmonic_mid(cfg, omega=1.0)
    brute = brute_force_propagator(cfg, pot)
    stepped = lagrangian_propagator(cfg, pot) * step_global_phase(cfg, pot) ** cfg.r
    assert spectral_norm(brute - stepped) < 1e-8
    ref = np.linalg.matrix_power(split_step_reference(cfg, pot), 3)
    assert spectral_norm(brute - ref) < 1e-10


def test_brute_force_cap():
    cfg = LatticeConfig(n=4, x_max=4.0, mass=1.0, r=6)
    with pytest.raises(CapExceeded):
        brute_force_propagator(cfg, zero_potential())


def test_brute_force_cap_refuses_long_paths_without_forming_their_count(monkeypatch):
    class NoPower(int):
        def __pow__(self, other, mod=None):
            raise AssertionError("formed (2^n)^(r-1)")

    monkeypatch.setattr(LatticeConfig, "dim", property(lambda cfg: NoPower(2**cfg.n)))
    cfg = LatticeConfig(n=10, x_max=4.0, mass=1.0, r=10**6)
    limit = CAPS["brute_force_paths"].limit
    with pytest.raises(CapExceeded, match=rf"interior path count 2\^64\+ above cap {limit}$"):
        brute_force_propagator(cfg, zero_potential())


def test_constant_potential_is_global_phase():
    cfg = LatticeConfig(n=5, x_max=6.0, mass=1.0, r=4)
    level = 0.7
    shifted = lagrangian_propagator(cfg, constant_potential(level))
    shifted = shifted * step_global_phase(cfg, constant_potential(level)) ** cfg.r
    free = lagrangian_propagator(cfg, zero_potential())
    free = free * step_global_phase(cfg, zero_potential()) ** cfg.r
    assert spectral_norm(shifted - free * np.exp(-1j * level * cfg.total_time)) < 1e-10


def test_query_accounting():
    cfg = LatticeConfig(n=4, x_max=8.0, mass=1.0, r=5)
    pot = harmonic_mid(cfg)
    counter = QueryCounter()
    lagrangian_propagator(cfg, pot, counter=counter)
    assert counter.counts == {"action": 10, "qft": 5}
    counter = QueryCounter()
    state = gaussian_packet(cfg, cfg.x_max / 2, 0.8, 0.0)
    lagrangian_step(cfg, pot, state, counter=counter)
    assert counter.counts == {"action": 2, "qft": 1}


def test_norm_drift_over_100_steps():
    cfg = LatticeConfig(n=5, x_max=6.0, mass=1.0, r=1)
    pot = harmonic_mid(cfg)
    rng = np.random.default_rng(5)
    psi = rng.normal(size=32) + 1j * rng.normal(size=32)
    psi = psi / np.linalg.norm(psi)
    for _ in range(100):
        psi = lagrangian_step(cfg, pot, psi)
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-11


def test_gauss_sum_frozen_examples():
    lhs, rhs = gauss_sum_check(-1, 0, 8)
    assert lhs == pytest.approx(np.sqrt(8) * np.exp(-1j * np.pi / 4), abs=1e-12)
    assert abs(lhs - rhs) < 1e-12
    lhs, rhs = gauss_sum_check(1, 0, 2)
    assert lhs == pytest.approx(1 + 1j, abs=1e-12)
    assert rhs == pytest.approx(1 + 1j, abs=1e-12)


def test_gauss_sum_preconditions():
    with pytest.raises(SpecError):
        gauss_sum_check(0, 2, 4)
    with pytest.raises(SpecError):
        gauss_sum_check(3, 0, 0)
    with pytest.raises(SpecError):
        gauss_sum_check(2, 1, 3)


def test_gauss_sum_cap_refuses_before_allocating(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a Gauss sum above the cap allocated its terms")

    monkeypatch.setattr(np, "arange", forbidden)
    limit = CAPS["gauss_terms"].limit
    for a, c in ((1, limit + 2), (-limit - 2, 1), (1, -(1 << 63))):
        with pytest.raises(CapExceeded, match=f"above cap {limit}$"):
            gauss_sum_check(a, 0, c)


def test_gauss_reciprocity_fuzz():
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 200:
        a = int(rng.integers(-64, 65))
        c = int(rng.integers(-64, 65))
        if a == 0 or c == 0:
            continue
        b = int(rng.integers(-64, 65))
        if (a * c + b) % 2 != 0:
            b += 1
        lhs, rhs = gauss_sum_check(a, b, c)
        assert abs(lhs - rhs) <= 1e-9 * np.sqrt(abs(c))
        checked += 1


def packet_in_well(r: int) -> tuple[LatticeConfig, Potential, np.ndarray]:
    cfg = LatticeConfig(n=7, x_max=24.0, mass=1.0, r=r)
    pot = harmonic_potential(1.0, 0.3, 12.0, 24.0)
    boost = 18 * 2 * np.pi / 24.0
    psi = gaussian_packet(cfg, center=12.0, width=1.1, momentum=boost)
    return cfg, pot, psi


def test_feasible_check_free_potential_is_exact():
    cfg, _, psi = packet_in_well(8)
    measured, _ = feasible_error_check(cfg, zero_potential(), 10.0, psi)
    assert measured <= 1e-10


def test_feasible_check_harmonic_margin():
    cfg, pot, psi = packet_in_well(8)
    measured, bound = feasible_error_check(cfg, pot, 10.0, psi)
    assert measured <= bound / 2
    counter = QueryCounter()
    feasible_error_check(cfg, pot, 10.0, psi, counter=counter)
    assert counter.counts == {"action": 16, "qft": 8}


def test_feasible_check_rejects_cutoff_violation():
    cfg, pot, psi = packet_in_well(8)
    with pytest.raises(SpecError):
        feasible_error_check(cfg, pot, 2.0, psi)
    with pytest.raises(SpecError):
        feasible_error_check(cfg, pot, 10.0, 2.0 * psi)


def test_feasible_bound_scales_inversely_in_r():
    fixed_time = 5.7
    cols = [feasible_error_bound(fixed_time, r, 1.0, 6.5, 10.0, 24.0) for r in (8, 16, 32)]
    assert cols[0] / cols[1] == pytest.approx(2.0, rel=1e-12)
    assert cols[1] / cols[2] == pytest.approx(2.0, rel=1e-12)


def test_momentum_mode_mask():
    cfg = LatticeConfig(n=4, x_max=8.0, mass=1.0, r=1)
    mask = momentum_mode_mask(cfg, 2.0)
    modes = 2 * np.pi * np.arange(16) / 8.0
    assert np.array_equal(mask, modes <= 2.0)
