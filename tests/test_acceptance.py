"""Acceptance gate: one test per release criterion, one verdict line each.

Every test times its own body against the stated wall-clock budget and
prints ``criterion NN <label>: PASS`` or ``FAIL`` so a plain pytest run
doubles as the acceptance report.  Instances are pinned by seed; nothing
here depends on test ordering.
"""

from __future__ import annotations

import functools
import json
import time

import numpy as np

from pathint import cli
from pathint import decomp as dc
from pathint import lattice as lat
from pathint import lcu
from pathint import long_time as lt
from pathint import short_time as sh
from pathint import trotter
from pathint.errors import CAPS
from pathint.linalg import exp_unitary, spectral_norm
from pathint.trotter import schedule, trotter_unitary

from support import (
    applied_amplification,
    average_oracle,
    class_edges,
    pauli_string,
    projected_step,
    random_decomposition_terms,
    random_smooth_system,
)


def criterion(number: int, label: str, budget_s: float):
    """Wrap a test body with timing, the budget check, and the verdict line."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
                elapsed = time.perf_counter() - start
                if elapsed >= budget_s:
                    raise AssertionError(
                        f"runtime {elapsed:.2f}s exceeds the {budget_s:.0f}s budget"
                    )
            except BaseException:
                print(f"criterion {number:02d} {label}: FAIL")
                raise
            print(f"criterion {number:02d} {label}: PASS ({elapsed:.2f}s)")

        return wrapper

    return deco


# ---------------------------------------------------------------------------
# shared instances

BITS_GRID = (4, 6, 8, 10, 12)


def zx_pair() -> dc.Decomposition:
    """One-qubit X plus Z, with the diagonal term listed first."""
    return dc.build([pauli_string("Z"), pauli_string("X")])


def rounding_instances() -> list[dc.Decomposition]:
    """The worked two-qubit pair plus ten random instances, degree <= 4."""
    out = [dc.build([pauli_string("ZZ"), pauli_string("ZX")])]
    rng = np.random.default_rng(42)
    while len(out) < 11:
        out.append(dc.build(random_decomposition_terms(rng, 2, 2)))
    return out


@criterion(1, "path sum identity", 10.0)
def test_criterion_01_path_sum_matches_stepped_product():
    rng = np.random.default_rng(20260822)
    checks = 0
    while checks < 20:
        n = int(rng.integers(1, 3))
        terms = int(rng.integers(1, 3))
        k = int(rng.integers(0, 2))
        r = int(rng.integers(1, 3))
        decomp = dc.build(random_decomposition_terms(rng, n, terms))
        sched = schedule(terms, k, r, float(rng.uniform(0.2, 1.0)))
        if decomp.dim**sched.M > CAPS["path_sum"].limit:
            continue
        got = sh.path_sum_propagator(decomp, sched)
        assert spectral_norm(got - trotter_unitary(decomp, sched)) <= 1e-10
        checks += 1


@criterion(2, "transition graph coloring", 5.0)
def test_criterion_02_coloring_is_a_covering_matching():
    rng = np.random.default_rng(31)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        terms = int(rng.integers(1, 4))
        k = int(rng.integers(0, 2))
        r = int(rng.integers(1, 4))
        decomp = dc.build(random_decomposition_terms(rng, n, terms))
        sched = schedule(terms, k, r, 1.0)
        m = int(rng.integers(0, sched.M))
        overlaps = dc.ScheduleOverlaps(decomp, sched)
        cells = sh.BlockEncoding(overlaps, m, 4).cells
        classes = [class_edges(cells, c) for c in range(len(cells.perm))]
        # within one color class no two edges may touch the same row or
        # the same column of the overlap table
        for edges in classes:
            lefts = [j for j, q in edges]
            rights = [q for j, q in edges]
            assert len(set(lefts)) == len(edges)
            assert len(set(rights)) == len(edges)
        # and every genuine overlap must carry a color
        colored = set().union(*classes)
        table = overlaps.pair_for_step(m)
        for j in range(decomp.dim):
            for q in range(decomp.dim):
                if abs(table.overlap[q, j]) > decomp.zero_tol:
                    assert (j, q) in colored


@criterion(3, "rounded step defect", 30.0)
def test_criterion_03_rounding_defect_bound_and_halving():
    for decomp in rounding_instances():
        sched = schedule(decomp.term_count, 0, 1, 1.0)
        d = dc.ScheduleOverlaps(decomp, sched).d
        assert d <= 4
        overlaps = dc.ScheduleOverlaps(decomp, sched)
        exact = sh.transition_operator(overlaps, 0)
        defects = []
        for bits in BITS_GRID:
            defect = spectral_norm(projected_step(overlaps, 0, bits) - exact)
            assert defect <= sh.synthesis_defect_bound(d, bits)
            defects.append(defect)
        assert defects[-1] > 0
        # average halving rate per extra bit across the whole grid; single
        # consecutive pairs can plateau when two rounding residues coincide
        span = BITS_GRID[-1] - BITS_GRID[0]
        rate = (defects[0] / defects[-1]) ** (1.0 / span)
        assert 1.5 <= rate <= 2.5


@criterion(4, "encoded block identity", 30.0)
def test_criterion_04_projected_encoding_reproduces_the_step():
    for decomp in rounding_instances():
        overlaps = dc.ScheduleOverlaps(decomp, schedule(decomp.term_count, 0, 1, 1.0))
        dim = decomp.dim
        for bits in BITS_GRID:
            enc = sh.BlockEncoding(overlaps, 0, bits)
            synth = average_oracle(enc.cells)[:dim, :dim]
            got = lcu.system_block(enc.apply_w, enc.size, dim)
            assert np.max(np.abs(got - synth / enc.subnormalization)) <= 1e-10


@criterion(5, "amplified step accuracy", 60.0)
def test_criterion_05_amplified_block_and_success_weight():
    for decomp in rounding_instances():
        sched = schedule(decomp.term_count, 0, 1, 1.0)
        d = dc.ScheduleOverlaps(decomp, sched).d
        overlaps = dc.ScheduleOverlaps(decomp, sched)
        exact = sh.transition_operator(overlaps, 0)
        for bits in BITS_GRID:
            step = sh.AmplifiedStep(sh.BlockEncoding(overlaps, 0, bits))
            # the applied reflections on registers of up to 2^17 amplitudes;
            # the largest walk (2^20 amplitudes) takes about 13 s, so those
            # check the singular-value form
            iterate = step.size <= 1 << 17
            block, weight = applied_amplification(step) if iterate else step.amplified()
            assert spectral_norm(block - exact) <= sh.amplified_defect_bound(d, bits)
            assert weight >= sh.success_weight_bound(d, bits)


@criterion(6, "short time envelope", 120.0)
def test_criterion_06_end_to_end_error_and_r_scaling():
    decomp = zx_pair()
    bits = 12
    t = 1.5
    dominated = []
    for r in (4, 8, 16, 32):
        res = sh.simulate(decomp, k=1, r=r, t=t, bits=bits)
        envelope = 4.0 * (res.M * res.d * res.d / float(1 << bits) + res.trotter_bound)
        assert res.measured_error <= envelope
        if res.trotter_bound > res.rounding_bound:
            dominated.append((r, res.measured_error))
    assert len(dominated) >= 2
    rs = np.log([p[0] for p in dominated])
    errs = np.log([p[1] for p in dominated])
    slope = float(np.polyfit(rs, errs, 1)[0])
    assert -2.3 < slope < -1.7


@criterion(7, "product formula bound", 30.0)
def test_criterion_07_bound_dominates_measured_error():
    for seed in range(20):
        rng = np.random.default_rng(5000 + seed)
        terms = int(rng.integers(2, 4))
        decomp = dc.build(random_decomposition_terms(rng, 2, terms, scale=0.5))
        for k in (0, 1):
            sched = schedule(terms, k, 10, 1.0)
            measured = trotter.measured_error(decomp, sched)
            assert measured <= trotter.error_bound(decomp, k, 1.0, 10)


@criterion(8, "slow sweep scaling", 120.0)
def test_criterion_08_longtime_error_quadratic_in_total_time():
    ham = lt.two_level_sweep(1.0, 0.2, shape="linear", grid=8)
    assert lt.adiabatic_bounds(ham).gap_min >= 1.0
    times = (20.0, 40.0, 80.0, 160.0)
    errs = []
    for total_time in times:
        r = max(512, int(np.ceil(2.0 * total_time**1.5)))
        errs.append(lt.longtime_error(ham, total_time, r=r))
    slope = float(np.polyfit(np.log(times), np.log(errs), 1)[0])
    assert -2.3 < slope < -1.7


@criterion(9, "rate matrix symmetry", 30.0)
def test_criterion_09_rates_antisymmetric_with_zero_diagonal():
    for seed in range(10):
        ham = random_smooth_system(np.random.default_rng(800 + seed), dim=3, grid=16)
        for r in (16, 64):
            # the rates every truncation and encoding reads, at every grid point
            eigsys, rates = ham.frames(r)
            assert eigsys.diagonal_rate_defect() < 1e-9
            assert np.max(np.abs(rates + np.swapaxes(rates, 1, 2).conj())) < 1e-9


@criterion(10, "lattice step exactness", 120.0)
def test_criterion_10_phase_corrected_propagator_and_path_sum():
    for n, x_max in ((4, 8.0), (6, 12.0), (8, 16.0)):
        cfg = lat.LatticeConfig(n=n, x_max=x_max, mass=1.0, r=16)
        harmonic = lat.harmonic_potential(1.0, 0.5, x_max / 2.0, x_max)
        well = lat.square_well_potential(0.9, x_max / 4.0, 3.0 * x_max / 4.0)
        for pot in (harmonic, well):
            counter = dc.QueryCounter()
            u = lat.lagrangian_propagator(cfg, pot, counter=counter)
            u = u * lat.step_global_phase(cfg, pot) ** cfg.r
            ref = np.linalg.matrix_power(lat.split_step_reference(cfg, pot), cfg.r)
            assert spectral_norm(u - ref) <= 1e-9
            assert counter.counts["action"] == 2 * cfg.r
    small = lat.LatticeConfig(n=2, x_max=4.0, mass=1.0, r=3)
    pot = lat.harmonic_potential(1.0, 0.7, 2.0, 4.0)
    brute = lat.brute_force_propagator(small, pot)
    ref = np.linalg.matrix_power(lat.split_step_reference(small, pot), small.r)
    assert spectral_norm(brute - ref) <= 1e-8


@criterion(11, "quadratic sum reciprocity", 10.0)
def test_criterion_11_reciprocity_on_seeded_triples():
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 200:
        a = int(rng.integers(-40, 41))
        b = int(rng.integers(-40, 41))
        c = int(rng.integers(-40, 41))
        if a == 0 or c == 0 or (a * c + b) % 2 != 0:
            continue
        lhs, rhs = lat.gauss_sum_check(a, b, c)
        assert abs(lhs - rhs) <= 1e-9 * np.sqrt(abs(c))
        checked += 1


@criterion(12, "shift generator", 10.0)
def test_criterion_12_momentum_exponential_is_the_cyclic_shift():
    for n in range(1, 9):
        cfg = lat.LatticeConfig(n=n, x_max=5.0, mass=1.0, r=1)
        shift = exp_unitary(lat.momentum_op(cfg), cfg.delta_x)
        target = np.roll(np.eye(cfg.dim), 1, axis=0)
        assert spectral_norm(shift - target) <= 1e-10


@criterion(13, "bandlimited step bound", 120.0)
def test_criterion_13_cutoff_povm_error_and_bound_scaling():
    p_max = 10.0
    pot = lat.harmonic_potential(1.0, 0.3, 12.0, 24.0)
    for r in (8, 16, 32):
        cfg = lat.LatticeConfig(n=7, x_max=24.0, mass=1.0, r=r)
        psi = lat.gaussian_packet(cfg, 12.0, 1.1, 18.0 * 2.0 * np.pi / 24.0)
        measured, bound = lat.feasible_error_check(cfg, pot, p_max, psi)
        assert measured <= bound
    # the bound formula at a fixed total time drops exactly as 1/r
    cols = [
        lat.feasible_error_bound(1.0, r, 1.0, pot.v_max, p_max, 24.0)
        for r in (8, 16, 32)
    ]
    assert abs(cols[0] / cols[1] - 2.0) < 1e-12
    assert abs(cols[1] / cols[2] - 2.0) < 1e-12


ZX_JSON = '{"n": 1, "terms": [{"pauli": "Z", "coeff": 1.0}, {"pauli": "X", "coeff": 1.0}]}'

CLI_CASES = [
    (
        "trotter",
        lambda out: [
            "trotter-error", "--decomp", ZX_JSON, "--k", "1",
            "--r-list", "2,4", "--t", "0.5", "--seed", "11", "--out", out,
        ],
    ),
    (
        "short",
        lambda out: [
            "short-sim", "--decomp", ZX_JSON, "--k", "1", "--r", "2",
            "--t", "0.3", "--bits", "6", "--seed", "11", "--out", out,
        ],
    ),
    (
        "long",
        lambda out: [
            "long-sim", "--system", "sweep:sine:1.0,0.2",
            "--T-sweep", "20", "--r", "64", "--seed", "11", "--out", out,
        ],
    ),
    (
        "lagrangian",
        lambda out: [
            "lagrangian-sim", "--n", "5", "--xmax", "16.0", "--mass", "1.0",
            "--r", "6", "--potential", "harmonic:0.4,8.0",
            "--initial", "gaussian:8.0,1.2,0.8", "--seed", "11", "--out", out,
        ],
    ),
    (
        "gauss",
        lambda out: [
            "gauss-check", "--count", "20", "--max-coeff", "30",
            "--seed", "11", "--out", out,
        ],
    ),
]


@criterion(14, "deterministic replay", 60.0)
def test_criterion_14_every_cli_kind_replays_byte_identical(tmp_path):
    for name, argv_fn in CLI_CASES:
        out = tmp_path / f"{name}.csv"
        manifest_path = tmp_path / f"{name}.csv.manifest.json"
        payloads = []
        hashes = []
        for _ in range(2):
            assert cli.main(argv_fn(str(out))) == 0
            payloads.append(out.read_bytes())
            hashes.append(json.loads(manifest_path.read_text())["spec_hash"])
        assert payloads[0] == payloads[1], f"{name} rerun differs"
        assert hashes[0] == hashes[1]
