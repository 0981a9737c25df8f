"""Tests for the slow-sweep truncated propagator and its block encoding.

The independent oracle here is nested quadrature: the p-transition path
sums are evaluated directly on a fine grid and compared against both the
converged reference propagator and the closed-form truncation.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pathint import decomp as dc
from pathint import lcu
from pathint import long_time as lt
from pathint.decomp import QueryCounter
from pathint.errors import CAPS, CapExceeded, InvariantViolation, SpecError
from pathint.linalg import converged_propagator, midpoint_eigensystem, spectral_norm
from support import (
    lower_cap,
    pauli_string,
    random_hermitian,
    random_smooth_system,
    smooth_eigensystem_oracle,
)


def sine_family(grid: int = 8) -> lt.TimeDependentHamiltonian:
    return lt.two_level_sweep(1.0, 0.2, shape="sine", grid=grid)


def linear_family(grid: int = 8) -> lt.TimeDependentHamiltonian:
    return lt.two_level_sweep(1.0, 0.2, shape="linear", grid=grid)


def constant_system() -> lt.TimeDependentHamiltonian:
    diag = np.diag([-1.0, 1.0]).astype(complex)
    return lt.TimeDependentHamiltonian(
        dim=2,
        h=lambda s: np.broadcast_to(diag, np.shape(s) + (2, 2)),
        dh=lambda s: np.zeros(np.shape(s) + (2, 2), dtype=complex),
        grid=8,
    )


# ---------------------------------------------------------------------------
# construction and validation


def test_constant_sweep_is_pure_phase():
    ham = constant_system()
    got = lt.truncated_propagator(ham, 17.0, r=8)
    want = np.diag(np.exp(-1j * 17.0 * np.array([-1.0, 1.0])))
    assert spectral_norm(got - want) < 1e-12
    assert lt.longtime_error(ham, 17.0, r=8) < 1e-8


def test_derivative_mismatch_rejected():
    sz = np.diag([1.0, -1.0]).astype(complex)
    with pytest.raises(SpecError):
        lt.TimeDependentHamiltonian(
            dim=2,
            h=lambda s: np.multiply.outer(1.0 + s, sz),
            dh=lambda s: np.broadcast_to(1.02 * sz, np.shape(s) + (2, 2)),
            grid=8,
        )


def test_degenerate_sweep_rejected():
    eye = np.eye(2, dtype=complex)
    with pytest.raises(SpecError):
        lt.TimeDependentHamiltonian(
            dim=2,
            h=lambda s: np.broadcast_to(eye, np.shape(s) + (2, 2)),
            dh=lambda s: np.zeros(np.shape(s) + (2, 2), dtype=complex),
            grid=8,
        )


@pytest.mark.parametrize("wrong", ["h", "dh"])
def test_wrong_drive_shape_rejected(wrong):
    # one callable ignores the array of s, the other has the wrong dimension
    good = lt.two_level_sweep(1.0, 0.2, shape="linear")
    bad = {"h": lambda s: good.h(0.5), "dh": lambda s: np.zeros((3, 3))}[wrong]
    drives = {"h": good.h, "dh": good.dh, wrong: bad}
    with pytest.raises(SpecError, match=r"expected \(\d+, 2, 2\)"):
        lt.TimeDependentHamiltonian(dim=2, grid=8, **drives)


def _frame(gen: str, coupling: dict[str, float]) -> lt.TimeDependentHamiltonian:
    coup = sum(c * pauli_string(label) for label, c in coupling.items())
    return lt.interaction_frame(0.02 * pauli_string(gen), coup, 40.0)


@pytest.mark.parametrize(
    "make",
    [
        lambda: lt.two_level_sweep(1.0, 0.3, shape="sine"),
        lambda: lt.two_level_sweep(1.0, 0.2, shape="linear"),
        lambda: _frame("Z", {"Z": 1.0, "X": 0.45}),
        lambda: _frame("ZI", {"ZI": 1.0, "IZ": 0.5, "XX": 0.3}),
        lambda: random_smooth_system(np.random.default_rng(11)),
    ],
    ids=["sine", "linear", "frame1q", "frame2q", "random"],
)
def test_batched_drive_matches_pointwise(make):
    ham = make()
    grid = np.concatenate([np.linspace(0.0, 1.0, 129), (np.arange(64) + 0.5) / 64])
    for fn in (ham.h, ham.dh):
        stack = fn(grid)
        assert stack.shape == (len(grid), ham.dim, ham.dim)
        for i, s in enumerate(grid):
            assert np.array_equal(stack[i], fn(float(s)))


def test_sample_is_shaped_by_s():
    ham = lt.two_level_sweep(1.0, 0.2, shape="sine")
    assert ham.sample("h", 0.3).shape == (2, 2)
    assert ham.sample("dh", np.zeros((3, 4))).shape == (3, 4, 2, 2)
    assert np.array_equal(ham.sample("h", 0.3), ham.h(0.3))


def test_drive_past_float_range_rejected():
    good = lt.two_level_sweep(1.0, 0.2, shape="linear")

    def h(s):  # past float range above s = 1/2
        return good.h(s) * np.where(np.asarray(s) > 0.5, np.inf, 1.0)[..., None, None]

    with pytest.raises(SpecError, match=r"h\(s\) is not finite"):
        lt.TimeDependentHamiltonian(dim=2, h=h, dh=good.dh, grid=8)
    # the commutator of a frame overflows; the construction's first dh
    # sample refuses it, with no floating-point warning
    z, x = pauli_string("Z"), pauli_string("X")
    with pytest.raises(SpecError, match=r"dh\(s\) is not finite"):
        lt.interaction_frame(1e160 * z, z + 1e160 * x, 30.0, grid=16)


@pytest.mark.parametrize("bad", ["shape", "hermitian", "nan"])
def test_adiabatic_bounds_refuse_a_bad_derivative_sample(bad):
    # dh is right at the construction's five probes, but not at s = 1/2, a
    # point of the bounds' 129-point grid
    good = lt.two_level_sweep(1.0, 0.2, shape="linear")

    def dh(s):
        out = np.array(good.dh(s))
        at = np.asarray(s) == 0.5
        if not at.any():
            return out
        if bad == "shape":
            return out[..., :1, :]
        out[at] = {"hermitian": [[0.0, 1.0], [-1.0, 0.0]], "nan": np.nan}[bad]
        return out

    ham = lt.TimeDependentHamiltonian(dim=2, h=good.h, dh=dh, grid=8)
    with pytest.raises((SpecError, InvariantViolation)):
        lt.adiabatic_bounds(ham)


def test_spectral_gap_is_the_least_pairwise_distance():
    rng = np.random.default_rng(5)
    for dim in (2, 3, 5):
        values = rng.normal(size=(50, dim)) * 10.0 ** rng.integers(-3, 4, size=(50, 1))
        values[7, 1] = values[7, 0]  # one exact tie
        pairs = np.abs(values[:, :, None] - values[:, None, :])
        pairs[:, np.arange(dim), np.arange(dim)] = np.inf
        gap, floor = lt.spectral_gap(values)
        assert gap == np.min(pairs) and gap == 0.0
        assert lt.spectral_gap(values[:7])[0] == np.min(pairs[:7])
        assert floor == lt.GAP_FLOOR * max(1.0, float(np.max(np.abs(values))))


def test_sweep_validation():
    with pytest.raises(SpecError):
        lt.two_level_sweep(1.0, 0.2, shape="step")
    with pytest.raises(SpecError):
        lt.truncated_propagator(sine_family(), 20.0, r=3)


# ---------------------------------------------------------------------------
# transition rates and the transported gauge


def test_pinned_transition_rate():
    # h(s) = diag(1,-1) + 0.1 s offdiag; at s=0 the rate from the ground
    # level into the excited one is 0.1 / gap = 0.05 exactly.
    ham = lt.two_level_sweep(1.0, 0.1, shape="linear", grid=8)
    _, rates = ham.frames(8)
    assert abs(rates[0, 1, 0] - 0.05) < 1e-9


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_transition_rate_antisymmetry(seed):
    ham = random_smooth_system(np.random.default_rng(seed), grid=16)
    _, rates = ham.frames(16)
    assert np.max(np.abs(rates + np.swapaxes(rates, 1, 2).conj())) < 1e-9


def test_smooth_eigensystem_gauge():
    ham = random_smooth_system(np.random.default_rng(5), grid=48)
    eigsys = lt.smooth_eigensystem(ham, np.linspace(0.0, 1.0, 49))
    overlaps = np.einsum("iaj,iaj->ij", eigsys.vectors[:-1].conj(), eigsys.vectors[1:])
    assert np.all(np.real(overlaps) > 0)
    assert float(np.max(np.abs(np.imag(overlaps)))) < 1e-12
    assert eigsys.diagonal_rate_defect() < 1e-9
    # tracked values agree with pointwise spectra as multisets
    for i, s in enumerate(eigsys.s_grid):
        point = np.linalg.eigvalsh(ham.h(float(s)))
        assert np.allclose(np.sort(eigsys.values[i]), point, atol=1e-10)


def collapsing_system() -> lt.TimeDependentHamiltonian:
    sz = np.diag([1.0, -1.0]).astype(complex)
    return lt.TimeDependentHamiltonian(
        dim=2,
        h=lambda s: np.multiply.outer(s - 0.375, sz),
        dh=lambda s: np.broadcast_to(sz, np.shape(s) + (2, 2)),
        grid=4,
    )


def test_smooth_eigensystem_detects_collapse():
    with pytest.raises(InvariantViolation):
        lt.smooth_eigensystem(collapsing_system(), np.linspace(0.0, 1.0, 513))


TRACKED = {
    "sine": lambda: lt.two_level_sweep(1.0, 0.2, shape="sine"),
    "linear": lambda: lt.two_level_sweep(1.0, 0.2, shape="linear"),
    "random": lambda: random_smooth_system(np.random.default_rng(7), dim=3),
    "frame1q": lambda: _frame("Z", {"Z": 1.0, "X": 0.45}),
    "frame2q": lambda: _frame("ZI", {"ZI": 1.0, "IZ": 0.5, "XX": 0.3}),
}


@pytest.mark.parametrize("panels", [16, 256, 2048])
@pytest.mark.parametrize("name", sorted(TRACKED))
def test_smooth_eigensystem_matches_the_greedy_oracle(name, panels):
    ham = TRACKED[name]()
    s_grid = np.linspace(0.0, 1.0, panels + 1)
    got = lt.smooth_eigensystem(ham, s_grid)
    want = smooth_eigensystem_oracle(ham, s_grid)
    assert np.array_equal(got.values, want.values)
    # the running phase product and the loop's per-step phases agree to
    # rounding; 5.7e-15 is the largest gap seen over these cases
    assert np.max(np.abs(got.vectors - want.vectors)) < 1e-13


@pytest.mark.parametrize("name", sorted(TRACKED))
def test_bounds_gap_is_the_tracked_gap(name):
    # the bounds read plain eigh spectra; tracking them would give the same
    # values in another order, so the same least level distance, bit for bit
    ham = TRACKED[name]()
    tracked = lt.smooth_eigensystem(ham, np.linspace(0.0, 1.0, 129))
    assert lt.adiabatic_bounds(ham).gap_min == lt.spectral_gap(tracked.values)[0]


def test_bounds_refuse_a_gap_that_closes_on_their_grid():
    # the levels cross exactly at s = 48/128, a point of the 129-point grid
    with pytest.raises(InvariantViolation, match="spectral gap collapsed"):
        lt.adiabatic_bounds(collapsing_system())


def test_smooth_eigensystem_follows_curves_out_of_eigh_order():
    # h(s) = (s - 0.51) Z + 1e-3 X: a narrow avoided crossing that the
    # 16-panel grid steps over, so one step's match swaps the columns
    sz = np.diag([1.0, -1.0]).astype(complex)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    ham = lt.TimeDependentHamiltonian(
        dim=2,
        h=lambda s: np.multiply.outer(s - 0.51, sz) + 1e-3 * sx,
        dh=lambda s: np.broadcast_to(sz, np.shape(s) + (2, 2)),
        grid=16,
    )
    got = lt.smooth_eigensystem(ham, np.linspace(0.0, 1.0, 17))
    want = smooth_eigensystem_oracle(ham)
    assert np.array_equal(got.values, want.values)
    assert np.max(np.abs(got.vectors - want.vectors)) < 1e-13
    # past the crossing the curves keep their Z eigenvectors, so their
    # labels no longer ascend with eigh's
    assert int(np.sum(got.values[:, 0] > got.values[:, 1])) == 8


def fast_rotation() -> lt.TimeDependentHamiltonian:
    """A 3-level frame turned so far per panel that some row's largest
    matching weight is below 1/2."""
    gen = random_hermitian(np.random.default_rng(3), 3)
    ham = lt.interaction_frame(gen, np.diag([-1.0, 0.0, 1.0]).astype(complex), 4.0, grid=4)
    _, raw = np.linalg.eigh(ham.h(np.linspace(0.0, 1.0, 5)))
    weight = np.abs(np.swapaxes(raw[:-1].conj(), 1, 2) @ raw[1:]) ** 2
    assert float(np.min(np.max(weight, axis=2))) < 0.5
    return ham


@pytest.mark.parametrize(
    "make, s_grid",
    [(collapsing_system, np.linspace(0.0, 1.0, 513)), (fast_rotation, np.linspace(0.0, 1.0, 5))],
    ids=["collapse", "fast-rotation"],
)
def test_smooth_eigensystem_refuses_what_the_oracle_refuses(make, s_grid):
    ham = make()
    messages = []
    for track in (lt.smooth_eigensystem, smooth_eigensystem_oracle):
        with pytest.raises(InvariantViolation) as info:
            track(ham, s_grid)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def test_frames_are_shared_across_total_times_and_read_only(monkeypatch):
    calls = []
    original = lt.smooth_eigensystem

    def counting(ham, s_grid):
        calls.append(len(s_grid))
        return original(ham, s_grid)

    monkeypatch.setattr(lt, "smooth_eigensystem", counting)
    ham = sine_family()
    fresh = [lt.truncation(sine_family(), t, r=16) for t in (20.0, 40.0)]
    assert calls == [17, 17]
    shared = [lt.truncation(ham, t, r=16) for t in (20.0, 40.0)]
    encs = [lt.PropagatorEncoding(ham, 40.0, 16, bits) for bits in (4, 6)]
    assert calls == [17, 17, 17]
    for a, b in zip(shared, fresh):
        for name in ("rates", "phase", "eta_start", "eta_end", "zeta", "correction"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
    assert all(enc.truncation.eigsys is shared[0].eigsys for enc in encs)
    eigsys, rates = ham.frames(16)
    for arr in (eigsys.s_grid, eigsys.values, eigsys.vectors, rates):
        assert not arr.flags.writeable
    with pytest.raises(ValueError):
        eigsys.values[0, 0] = 0.0


def direct(ham: lt.TimeDependentHamiltonian):
    """A chunk source that samples and diagonalizes ``ham`` anew on every
    call, keeping nothing."""
    return partial(midpoint_eigensystem, partial(ham.sample, "h"))


def _three_level_system() -> lt.TimeDependentHamiltonian:
    return random_smooth_system(np.random.default_rng(23), dim=3, grid=16)


@pytest.mark.parametrize(
    "make", [sine_family, linear_family, _three_level_system], ids=["sine", "linear", "3-level"]
)
def test_reference_from_the_midpoint_table_is_the_direct_one(make):
    ham = make()
    grids = []
    for total_time in (20.0, 80.0):
        tabled = converged_propagator(ham.midpoint_eigensystem, total_time)
        assert np.array_equal(tabled, converged_propagator(direct(ham), total_time))
        grids.append(sorted(ham._midpoints))
    # T = 80 reads the grids T = 20 stored, and refines past them
    assert grids[1][: len(grids[0])] == grids[0] and len(grids[1]) > len(grids[0])


def test_midpoint_table_arrays_are_read_only():
    ham = sine_family()
    lt.longtime_error(ham, 20.0, r=64)
    assert ham._midpoints
    for chunk in ham._midpoints.values():
        assert all(not arr.flags.writeable for arr in chunk)
        # the kept frame is not a view holding the whole eigenvector stack
        assert chunk.last.base is None
    chunk = ham.midpoint_eigensystem(64, 0)
    assert chunk.values.shape == (64, 2) and chunk.overlaps.shape == (64, 2, 2)
    assert chunk.last.shape == (2, 2)
    for arr, index in zip(chunk, ((0, 0), (0, 0, 0), (0, 0))):
        with pytest.raises(ValueError):
            arr[index] = 0.0


def test_midpoint_table_stores_nothing_past_the_panel_cap(monkeypatch):
    # a 2-level chunk of k slices holds 2k values, 4k overlap entries and
    # a 4-entry frame, so this limit admits the 64- and 128-slice grids and
    # no later one
    lower_cap(monkeypatch, "panel_entries", (6 * 64 + 4) + (6 * 128 + 4) + 5)
    calls = []
    original = lt.midpoint_eigensystem

    def counting(sample, steps, lo):
        calls.append((steps, lo))
        return original(sample, steps, lo)

    monkeypatch.setattr(lt, "midpoint_eigensystem", counting)
    ham = sine_family()
    first = [converged_propagator(ham.midpoint_eigensystem, t) for t in (20.0, 80.0)]
    assert sorted(ham._midpoints) == [(64, 0), (128, 0)]
    # past the limit, each grid is sampled and diagonalized on every call
    assert calls.count((64, 0)) == 1 and calls.count((256, 0)) == 2
    for t, got in zip((20.0, 80.0), first):
        assert np.array_equal(got, converged_propagator(direct(ham), t))
        assert np.array_equal(got, converged_propagator(ham.midpoint_eigensystem, t))
    assert sorted(ham._midpoints) == [(64, 0), (128, 0)]


def test_panel_cap_refuses_before_sampling(monkeypatch):
    # the cap itself admits criterion 08's finest grid and 8192 panels
    for panels in (int(np.ceil(2.0 * 160.0**1.5)), 8192):
        assert (panels + 1) * 4 <= CAPS["panel_entries"].limit
    lower_cap(monkeypatch, "panel_entries", 4 * 65)
    calls = []
    monkeypatch.setattr(lt, "smooth_eigensystem", lambda *args: calls.append(args))
    ham = lt.two_level_sweep(1.0, 0.2, shape="sine", grid=64)
    with pytest.raises(CapExceeded):
        lt.two_level_sweep(1.0, 0.2, shape="sine", grid=65)
    with pytest.raises(CapExceeded):
        lt.truncation(ham, 20.0, r=65)
    with pytest.raises(CapExceeded):
        lt.jump_term(ham, 20.0, 1, panels=65)
    with pytest.raises(CapExceeded):
        lt.longtime_error(ham, 20.0, r=65)
    assert calls == []


def test_interaction_frame_spectrum_static():
    gen = 0.7 * pauli_string("ZI") + 0.4 * pauli_string("IX")
    coupling = (
        pauli_string("ZI")
        + 0.45 * pauli_string("IZ")
        + 0.2 * pauli_string("XX")
    )
    total_time = 6.0
    ham = lt.interaction_frame(gen, coupling, total_time, grid=12)
    want = np.linalg.eigvalsh(coupling)
    for s in (0.0, 0.3, 0.77, 1.0):
        got = np.linalg.eigvalsh(ham.h(s))
        assert np.max(np.abs(got - want)) < 1e-10
    lim = 2.0 * spectral_norm(gen) * spectral_norm(coupling) * total_time
    assert spectral_norm(np.asarray(ham.dh(0.3))) <= lim + 1e-9


def _random_frame(dim: int, built_at: float) -> lt.TimeDependentHamiltonian:
    # a weak random generator and a gapped tridiagonal coupling
    rng = np.random.default_rng(dim)
    gen = 0.05 * random_hermitian(rng, dim)
    off = np.diag(rng.uniform(0.2, 0.5, dim - 1), 1)
    coupling = np.diag(np.arange(dim, dtype=float)) + off + off.T
    return lt.interaction_frame(gen, coupling.astype(complex), built_at)


@pytest.mark.parametrize(
    "dim, built_at, total_time",
    [(2, 30.0, 30.0), (2, 80.0, 80.0), (4, 30.0, 30.0), (4, 80.0, 80.0), (2, 30.0, 50.0)],
)
def test_interaction_frame_exact_propagator_is_the_converged_one(dim, built_at, total_time):
    ham = _random_frame(dim, built_at)
    exact = ham.exact_propagator(total_time)
    ref = converged_propagator(ham.midpoint_eigensystem, total_time, tol=1e-11)
    assert spectral_norm(exact - ref) < 1e-9
    assert spectral_norm(exact.conj().T @ exact - np.eye(dim)) < 1e-12


def test_interaction_frame_rejects_degenerate_coupling():
    gen = pauli_string("XI")
    with pytest.raises(SpecError):
        lt.interaction_frame(gen, pauli_string("ZZ"), 5.0)


# ---------------------------------------------------------------------------
# the truncated propagator against nested-quadrature path sums


def test_truncation_matches_path_sum_series():
    ham = sine_family()
    total_time = 20.0
    trunc = lt.truncation(ham, total_time, r=2048)
    label, eigsys = trunc.label(), trunc.eigsys
    ref = converged_propagator(ham.midpoint_eigensystem, total_time, tol=1e-11)
    exact_label = eigsys.vectors[-1].conj().T @ ref @ eigsys.vectors[0]

    weights = lt._trapezoid_weights(2048)
    phase = np.exp(-1j * total_time * (weights @ eigsys.values))
    series = np.diag(phase).astype(complex)
    for jumps in (1, 2, 3):
        series = series + np.diag(phase) @ lt.jump_term(
            ham, total_time, jumps, panels=4096
        )
    # three path-sum terms reproduce the exact evolution to the next order
    assert spectral_norm(exact_label - series) < 5e-6
    # the closed-form truncation keeps the boundary part of the one-jump term
    one = lt.jump_term(ham, total_time, 1, panels=4096)
    kept = label - np.diag(np.diag(label))
    assert spectral_norm(np.diag(phase) @ one - kept) < 1e-4
    assert spectral_norm(label - exact_label) < 1e-4


def test_offdiagonal_magnitudes_bounded():
    ham = sine_family()
    total_time = 15.0
    trunc = lt.truncation(ham, total_time, r=64)
    label, eigsys = trunc.label(), trunc.eigsys
    rate_max = float(np.max(np.abs(ham.frames(32)[1][:, 1, 0])))
    gap_min = float(np.min(eigsys.values[:, 1] - eigsys.values[:, 0]))
    lim = 2.0 * rate_max / (total_time * gap_min) * 1.05
    assert abs(label[0, 1]) <= lim
    assert abs(label[1, 0]) <= lim


def test_unitarity_defect_decays():
    ham = sine_family()
    defects = {}
    for total_time in (10.0, 80.0):
        v = lt.truncated_propagator(ham, total_time, r=256)
        defects[total_time] = spectral_norm(v.conj().T @ v - np.eye(2))
        assert defects[total_time] < 2.0 / total_time
    assert defects[80.0] < defects[10.0] / 5.0


def test_longtime_error_scaling():
    ham = linear_family()
    times = np.array([20.0, 40.0, 80.0, 160.0])
    errs = []
    for total_time in times:
        r = max(512, int(np.ceil(2.0 * total_time**1.5)))
        errs.append(lt.longtime_error(ham, total_time, r=r))
    errs = np.array(errs)
    slope = np.polyfit(np.log(times), np.log(errs), 1)[0]
    assert -2.3 < slope < -1.7
    # monotone decay along the geometric sweep, 10 percent slack
    assert np.all(errs[1:] <= 1.1 * errs[:-1])


def test_r_sweep_reaches_quadrature_floor():
    ham = linear_family()
    total_time = 20.0
    errs = {r: lt.longtime_error(ham, total_time, r=r) for r in (8, 16, 32, 512)}
    floor = errs[512]
    excess = [errs[r] - floor for r in (8, 16, 32)]
    assert excess[0] > 0 and excess[1] > 0 and excess[2] > 0
    # trapezoid error quarters per grid doubling until the truncation floor
    assert 2.5 < excess[0] / excess[1] < 6.0
    assert 2.5 < excess[1] / excess[2] < 6.0


def test_precondition_refuses_fast_sweeps():
    ham = lt.two_level_sweep(0.5, 0.2, shape="sine", grid=8)
    with pytest.raises(SpecError):
        lt.longtime_error(ham, 20.0, r=64)


# ---------------------------------------------------------------------------
# derivative bounds and transition-count bounds


def test_adiabatic_bounds_frozen_values():
    bounds = lt.adiabatic_bounds(sine_family())
    assert abs(bounds.gap_min - 2.0) < 1e-6
    assert abs(bounds.max_drive - 0.2 * np.pi) < 1e-3
    assert abs(bounds.drive_ratio - 0.1 * np.pi**3) < 0.01
    assert abs(bounds.jump_constant - 0.6935) < 0.01


def test_jump_bounds_formula():
    bounds = lt.AdiabaticBounds(
        gap_min=2.0,
        drive_ratio=1.0,
        jump_constant=0.7,
        max_drive=0.6,
    )
    even, odd = lt.jump_bounds(bounds, 10.0, 1)
    assert abs(even - 0.7 / 20.0) < 1e-15
    assert abs(odd - even * 0.7 / 6.0) < 1e-15
    even2, odd2 = lt.jump_bounds(bounds, 10.0, 2)
    assert abs(even2 - 0.7**2 / (2.0 * 400.0)) < 1e-15
    assert abs(odd2 - even2 * 0.7 / 6.0) < 1e-15
    with pytest.raises(SpecError):
        lt.jump_bounds(bounds, 10.0, 0)
    with pytest.raises(SpecError):
        lt.jump_bounds(bounds, -1.0, 1)
    silent = lt.AdiabaticBounds(
        gap_min=2.0, drive_ratio=0.0, jump_constant=0.0, max_drive=0.0
    )
    assert lt.jump_bounds(silent, 10.0, 3) == (0.0, 0.0)


@pytest.mark.parametrize(
    "make",
    [sine_family, linear_family, lambda: _frame("Z", {"Z": 1.0, "X": 0.45})],
    ids=["sine", "linear", "frame"],
)
def test_jump_estimate_is_the_sum_long_sim_printed(make):
    bounds = make().bounds
    for total_time in (20.0, 30.0, 80.0):
        _, odd1 = lt.jump_bounds(bounds, total_time, 1)
        even2, odd2 = lt.jump_bounds(bounds, total_time, 2)
        assert lt.jump_estimate(bounds, total_time) == odd1 + even2 + odd2


def test_bounds_past_float_range_are_refused():
    # the gap of a 1e300 splitting cubed leaves float range
    with pytest.raises(SpecError, match="past float range"):
        lt.two_level_sweep(1e300, 1.0, shape="linear").bounds
    ham = linear_family()
    with pytest.raises(SpecError, match="past float range"):
        lt.longtime_error(ham, 1e300, r=64)
    with pytest.raises(SpecError, match="too short"):
        lt.longtime_error(ham, 1e-300, r=64)


def test_jump_dominance():
    cases = [sine_family()]
    for seed in (100, 101):
        cases.append(random_smooth_system(np.random.default_rng(seed), grid=32))
    total_time = 20.0
    for ham in cases:
        bounds = lt.adiabatic_bounds(ham)
        even, odd = lt.jump_bounds(bounds, total_time, 1)
        two = spectral_norm(lt.jump_term(ham, total_time, 2, panels=1024))
        three = spectral_norm(lt.jump_term(ham, total_time, 3, panels=1024))
        assert two <= even
        assert three <= odd


def test_jump_term_validation():
    with pytest.raises(SpecError):
        lt.jump_term(sine_family(), 20.0, 0)
    with pytest.raises(SpecError):
        lt.jump_term(sine_family(), 20.0, 2, panels=4)


# ---------------------------------------------------------------------------
# the block encoding


def walked_block(enc):
    """The zero-ancilla block read off the register walk, the oracle for block()."""
    return lcu.system_block(enc.apply_w, enc.size, enc.dim)


def cell_thresholds(enc):
    """Select-cell thresholds indexed [step, branch, color1, color2, column]."""
    return enc.cells.thr.reshape(enc.r + 1, 4, enc.d, enc.d, 2 * enc.dim)


def test_encoding_block_identity():
    for ham in (sine_family(), random_smooth_system(np.random.default_rng(21), grid=32)):
        enc = lt.PropagatorEncoding(ham, 20.0, r=8, bits=6)
        got = walked_block(enc) * enc.subnormalization
        want = enc.rounded_target()
        assert spectral_norm(got - want) < 1e-9
        assert spectral_norm(got - want) < 1e-12


def test_encoding_block_past_the_walk_cap():
    enc = lt.PropagatorEncoding(sine_family(), 20.0, r=8, bits=24)
    assert enc.size * 16 > CAPS["walk_register"].limit
    got = enc.block() * enc.subnormalization
    assert spectral_norm(got - enc.rounded_target()) < 1e-9


def test_encoding_exact_target_is_the_propagator():
    for ham in (sine_family(), random_smooth_system(np.random.default_rng(21), grid=32)):
        enc = lt.PropagatorEncoding(ham, 20.0, r=8, bits=6)
        label = lt.truncation(ham, 20.0, r=8).label()
        assert np.array_equal(enc.exact_target(), label)


def test_encoding_bit_convergence():
    ham = sine_family()
    defects = {}
    for bits in (12, 16):
        enc = lt.PropagatorEncoding(ham, 20.0, r=8, bits=bits)
        defect = spectral_norm(walked_block(enc) * enc.subnormalization - enc.exact_target())
        bound = 6.0 * (enc.r + 3) * enc.d**2 * 2.0 ** (-bits)
        assert defect <= bound
        defects[bits] = defect
    assert defects[16] < defects[12] / 5.0


def test_encoding_constant_system():
    ham = constant_system()
    enc = lt.PropagatorEncoding(ham, 17.0, r=8, bits=6)
    assert enc.d == 1
    got = walked_block(enc) * enc.subnormalization
    want = np.diag(np.exp(-1j * 17.0 * np.array([-1.0, 1.0])))
    assert spectral_norm(got - want) < 1e-12
    # nothing but the zero-transition branch carries weight
    thr = cell_thresholds(enc)
    for ell in range(enc.r + 1):
        for p in (1, 2):
            assert int(np.sum(thr[ell, p, 0, 0])) == 0


def test_encoding_interior_one_jump_is_zero():
    enc = lt.PropagatorEncoding(sine_family(), 20.0, r=8, bits=8)
    thr = cell_thresholds(enc)
    for ell in range(1, enc.r):
        for c1 in range(enc.d):
            for c2 in range(enc.d):
                assert int(np.sum(thr[ell, 1, c1, c2])) == 0
    # the boundaries do carry one-jump weight at this precision
    edge_weight = 0
    for ell in (0, enc.r):
        for c1 in range(enc.d):
            for c2 in range(enc.d):
                edge_weight += int(np.sum(thr[ell, 1, c1, c2]))
    assert edge_weight > 0


def test_encoding_subnormalization_scaling():
    ham = sine_family()
    for r in (8, 16, 32):
        enc = lt.PropagatorEncoding(ham, 20.0, r=r, bits=4)
        assert enc.subnormalization == 1 + 2 * (r + 1) * enc.d**2
    three = lt.PropagatorEncoding(
        random_smooth_system(np.random.default_rng(21), grid=32), 20.0, r=8, bits=4
    )
    assert three.d == 2
    assert three.subnormalization == 1 + 2 * 9 * 4


def test_encoding_counts_queries():
    counter = QueryCounter()
    enc = lt.PropagatorEncoding(sine_family(), 20.0, r=8, bits=4, counter=counter)
    assert counter.counts == {}
    enc.block()
    assert counter.counts == {}
    walked_block(enc)
    want = {name: cost * enc.dim for name, cost in lt.LONGTIME_SELECT_BUDGET.items()}
    assert counter.counts == want


def test_encoding_walk_is_unitary():
    enc = lt.PropagatorEncoding(sine_family(), 20.0, r=8, bits=5)
    rng = np.random.default_rng(3)
    vec = rng.normal(size=enc.shape) + 1j * rng.normal(size=enc.shape)
    vec = vec / np.linalg.norm(vec)
    walked = enc.apply_w(vec)
    assert abs(np.linalg.norm(walked) - 1.0) < 1e-12
    back = enc.apply_w(walked, adjoint=True)
    assert np.linalg.norm(back - vec) < 1e-12


def test_encoding_validation_and_cap():
    ham = sine_family()
    with pytest.raises(CapExceeded):
        walked_block(lt.PropagatorEncoding(ham, 20.0, r=8, bits=24))
    with pytest.raises(SpecError):
        lt.PropagatorEncoding(ham, 20.0, r=3, bits=6)
    with pytest.raises(SpecError):
        lt.PropagatorEncoding(ham, 20.0, r=8, bits=0)
    with pytest.raises(SpecError, match=f"magnitude precision must be at most {dc.MAX_BITS}"):
        lt.PropagatorEncoding(ham, 20.0, r=8, bits=dc.MAX_BITS + 1)
    with pytest.raises(SpecError):
        lt.PropagatorEncoding(ham, 0.0, r=8, bits=6)
