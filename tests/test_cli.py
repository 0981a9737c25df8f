"""Tests for the experiment runner CLI."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pathint import cli, trotter
from pathint.decomp import MAX_BITS, decomposition_from_json
from pathint.errors import CAPS, CapExceeded, InvariantViolation
from support import (
    alpha_comm_oracle,
    dense_document,
    forbid_allocation,
    lagrangian_csv_oracle,
    lower_cap,
)

ZX_DECOMP = '{"n": 1, "terms": [{"pauli": "Z", "coeff": 1.0}, {"pauli": "X", "coeff": 1.0}]}'
COMMUTING_DECOMP = (
    '{"n": 1, "terms": [{"pauli": "Z", "coeff": 1.0}, {"pauli": "Z", "coeff": 0.5}]}'
)


def read_rows(path) -> tuple[list[str], list[list[float]]]:
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, rows


def test_spec_round_trip():
    spec = cli.ExperimentSpec(
        kind="gauss-check",
        params={"count": 4, "max_coeff": 9},
        seed=123456789,
        output="out.csv",
    )
    wire = json.loads(json.dumps(dataclasses.asdict(spec)))
    assert cli.spec_from_dict(wire) == spec


def test_spec_validation_rejects_bad_documents():
    good = {
        "kind": "gauss-check",
        "params": {"count": 2, "max_coeff": 4},
        "seed": 0,
        "output": "x.csv",
    }
    cli.spec_from_dict(good)
    from pathint.errors import SpecError

    cases = [
        dict(good, extra=1),
        {k: v for k, v in good.items() if k != "seed"},
        dict(good, kind="mystery"),
        dict(good, seed=-1),
        dict(good, seed=2**64),
        dict(good, seed=True),
        dict(good, output=""),
        dict(good, params={"count": 2, "max_coeff": 4, "zzz": 1}),
        dict(good, params={"count": 2}),
        dict(good, params=[1, 2]),
    ]
    for doc in cases:
        with pytest.raises(SpecError):
            cli.spec_from_dict(doc)


def test_gauss_check_deterministic_and_within_tolerance(tmp_path):
    out = tmp_path / "g.csv"
    argv = [
        "gauss-check", "--count", "10", "--max-coeff", "32",
        "--seed", "7", "--out", str(out),
    ]
    assert cli.main(argv) == 0
    first = out.read_bytes()
    assert cli.main(argv) == 0
    assert out.read_bytes() == first
    header, rows = read_rows(out)
    assert header[:4] == ["index", "a", "b", "c"]
    assert len(rows) == 10
    for row in rows:
        a, b, c = int(row[1]), int(row[2]), int(row[3])
        assert a != 0 and c != 0 and (a * c + b) % 2 == 0
        abs_diff, tol = row[8], row[9]
        assert abs_diff <= 1e-9
        assert abs_diff <= tol
    manifest = json.loads((tmp_path / "g.csv.manifest.json").read_text())
    assert set(manifest) == {"spec_hash", "version", "wall_clock_seconds"}
    assert manifest["spec_hash"] == cli.spec_hash(
        cli.spec_from_dict(
            {
                "kind": "gauss-check",
                "params": {"count": 10, "max_coeff": 32},
                "seed": 7,
                "output": str(out),
            }
        )
    )


def asdict_hash(spec: cli.ExperimentSpec) -> str:
    """The manifest hash as first written, over ``dataclasses.asdict``."""
    canon = json.dumps(dataclasses.asdict(spec), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def test_spec_hash_is_the_asdict_hash(tmp_path, monkeypatch):
    from test_readme import readme_decomposition, readme_examples

    nested = cli.spec_from_dict({
        "kind": "short-sim",
        "params": {
            "decomp": json.loads(FIVE_TERM_DECOMP), "k": 1, "r": 2, "t": 0.5, "bits": 6,
            "sweep": {"param": "r", "values": [2, 4]},
        },
        "seed": 2**63 + 5,
        "output": "nested é.csv",
    })
    specs = [nested]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "decomp.json").write_text(readme_decomposition())
    specs += [cli._spec_from_args(cli._parse(argv)) for argv in readme_examples()]
    for spec in specs:
        assert cli.spec_hash(spec) == asdict_hash(spec)
    assert len({cli.spec_hash(spec) for spec in specs}) == 6


def test_trotter_error_sweep(tmp_path):
    out = tmp_path / "t.csv"
    code = cli.main([
        "trotter-error", "--decomp", ZX_DECOMP, "--k", "1",
        "--r-list", "2,4,8", "--t", "0.5", "--out", str(out),
    ])
    assert code == 0
    header, rows = read_rows(out)
    assert header == ["k", "r", "bound", "measured"]
    assert [int(row[1]) for row in rows] == [2, 4, 8]
    for row in rows:
        assert row[3] <= row[2]
    assert rows[0][3] > rows[1][3] > rows[2][3]


def test_short_sim_commuting_decomposition(tmp_path):
    out = tmp_path / "s.csv"
    code = cli.main([
        "short-sim", "--decomp", COMMUTING_DECOMP, "--k", "1", "--r", "2",
        "--t", "0.4", "--bits", "8", "--out", str(out),
    ])
    assert code == 0
    header, rows = read_rows(out)
    assert header == [
        "k", "r", "B", "d", "M", "measured_error", "bound",
        "queries_O_ind", "queries_O_IM", "queries_O_IP", "queries_O_EP",
    ]
    (row,) = rows
    assert row[5] <= row[6]
    assert all(q > 0 for q in row[7:])


def test_short_sim_sweep_over_bits(tmp_path):
    out = tmp_path / "sw.csv"
    code = cli.main([
        "short-sim", "--decomp", ZX_DECOMP, "--k", "1", "--r", "2",
        "--t", "0.3", "--bits", "6", "--sweep", "bits:4,6,8", "--out", str(out),
    ])
    assert code == 0
    _, rows = read_rows(out)
    assert [int(row[2]) for row in rows] == [4, 6, 8]
    meas = [row[5] for row in rows]
    assert meas[0] > meas[1] > meas[2]
    for row in rows:
        assert row[5] <= row[6]


def test_short_sim_rounding_error_falls_at_least_at_first_order(tmp_path):
    # the rounding charge d^2/2^B assumes first order: two more bits cut the
    # error by 4 at least.  B stays well above the k = 2, r = 8 Trotter floor
    # (1.1e-6 here), which B = 14 would near.
    out = tmp_path / "bits.csv"
    decomp = json.dumps({"n": 1, "terms": [{"pauli": "Z", "coeff": 1.0},
                                           {"pauli": "X", "coeff": 0.6}]})
    assert cli.main([
        "short-sim", "--decomp", decomp, "--k", "2", "--r", "8", "--t", "1",
        "--bits", "6", "--sweep", "bits:6,8,10,12", "--out", str(out),
    ]) == 0
    _, rows = read_rows(out)
    assert [int(row[2]) for row in rows] == [6, 8, 10, 12]
    meas = [row[5] for row in rows]
    assert all(coarse >= 4.0 * fine for coarse, fine in zip(meas, meas[1:]))


def test_short_sim_at_twenty_bits(tmp_path):
    out = tmp_path / "b20.csv"
    code = cli.main([
        "short-sim", "--decomp", ZX_DECOMP, "--k", "1", "--r", "2",
        "--t", "0.3", "--bits", "20", "--out", str(out),
    ])
    assert code == 0
    _, rows = read_rows(out)
    assert [int(row[2]) for row in rows] == [20]
    assert rows[0][5] <= rows[0][6]


FIVE_TERM_DECOMP = json.dumps({
    "n": 2,
    "terms": [
        {"pauli": p, "coeff": c}
        for p, c in zip(["ZZ", "XX", "YZ", "XI", "IX"], [1.0, 0.5, 0.3, 0.7, 0.4])
    ],
})


def test_short_sim_five_terms_bound_from_the_tuple_loop(tmp_path):
    out = tmp_path / "five.csv"
    k, r, t, bits = 1, 2, 0.5, 8
    code = cli.main([
        "short-sim", "--decomp", FIVE_TERM_DECOMP, "--k", str(k), "--r", str(r),
        "--t", str(t), "--bits", str(bits), "--out", str(out),
    ])
    assert code == 0
    (line,) = out.read_text().strip().split("\n")[1:]
    row = line.split(",")
    d = int(row[3])
    # simulate's rounding charge, term_count * 5**k * r * d^2 / 2^B
    rounding = 5 * 5**k * r * d * d / float(1 << bits)
    decomp = decomposition_from_json(json.loads(FIVE_TERM_DECOMP))
    trotter_term = alpha_comm_oracle(decomp, k) * t ** (2 * k + 1) / r ** (2 * k)
    assert float(row[6]) == 4.0 * (rounding + trotter_term)
    assert float(row[5]) <= float(row[6])


# the same terms as dense matrices, which alpha_comm sums level by level
FIVE_TERM_DENSE = json.dumps(dense_document(json.loads(FIVE_TERM_DECOMP)))


def test_trotter_error_under_the_alpha_cap_writes_pinned_bytes(tmp_path):
    out = tmp_path / "five.csv"
    code = cli.main([
        "trotter-error", "--decomp", FIVE_TERM_DENSE, "--k", "3",
        "--r-list", "1,2,4", "--t", "0.5", "--out", str(out),
    ])
    assert code == 0
    assert out.read_bytes() == (
        b"k,r,bound,measured\n"
        b"3,1,22.501980000000007,9.0456426740309913e-07\n"
        b"3,2,0.35159343750000011,1.3362683609203811e-08\n"
        b"3,4,0.0054936474609375016,2.0595540358602595e-10\n"
    )


def test_trotter_error_on_pauli_terms_takes_the_symplectic_sum(tmp_path):
    """The Pauli document of the test above: the same measured column, and
    the bound of the symplectic sum, within 4e-15 of the dense one."""
    out = tmp_path / "five.csv"
    code = cli.main([
        "trotter-error", "--decomp", FIVE_TERM_DECOMP, "--k", "3",
        "--r-list", "1,2,4", "--t", "0.5", "--out", str(out),
    ])
    assert code == 0
    rows = [line.split(",") for line in out.read_text().splitlines()]
    assert rows[0] == ["k", "r", "bound", "measured"]
    assert [row[:2] + row[3:] for row in rows[1:]] == [
        ["3", "1", "9.0456426740309913e-07"],
        ["3", "2", "1.3362683609203811e-08"],
        ["3", "4", "2.0595540358602595e-10"],
    ]
    dense = [22.501980000000007, 0.35159343750000011, 0.0054936474609375016]
    for row, want in zip(rows[1:], dense):
        assert float(row[2]) == pytest.approx(want, rel=4e-15)


# 8 two-qubit terms whose alpha_comm at k = 3 would form 131,720 nested
# commutators as dense matrices, past the alpha_work cap
EIGHT_TERM_DECOMP = json.dumps({
    "n": 2,
    "terms": [
        {"pauli": p, "coeff": 1.0} for p in ["IZ", "ZX", "XZ", "IX", "XX", "YX", "YI", "ZY"]
    ],
})
EIGHT_TERM_DENSE = json.dumps(dense_document(json.loads(EIGHT_TERM_DECOMP)))


def test_bound_past_the_alpha_cap_is_an_empty_cell(tmp_path):
    decomp = decomposition_from_json(json.loads(EIGHT_TERM_DENSE))
    with pytest.raises(CapExceeded, match="nested commutators 131720 above cap"):
        trotter.error_bound(decomp, 3, 0.1, 1)
    out = tmp_path / "t.csv"
    code = cli.main([
        "trotter-error", "--decomp", EIGHT_TERM_DENSE, "--k", "3",
        "--r-list", "1,2", "--t", "0.1", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "k,r,bound,measured"
    cells = [line.split(",") for line in lines[1:]]
    assert [row[:3] for row in cells] == [["3", "1", ""], ["3", "2", ""]]
    assert 0 < float(cells[1][3]) < float(cells[0][3])
    out = tmp_path / "s.csv"
    code = cli.main([
        "short-sim", "--decomp", EIGHT_TERM_DENSE, "--k", "3", "--r", "1",
        "--t", "0.1", "--bits", "8", "--out", str(out),
    ])
    assert code == 0
    (row,) = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert row[6] == "" and float(row[5]) > 0
    assert all(int(q) > 0 for q in row[7:])


def test_bound_on_pauli_terms_past_the_alpha_cap_is_finite(tmp_path):
    """The Pauli document of the test above takes the symplectic sum, which
    has no work cap: both kinds write a finite bound of at least measured."""
    decomp = decomposition_from_json(json.loads(EIGHT_TERM_DECOMP))
    assert trotter.error_bound(decomp, 3, 0.1, 1) > 0
    out = tmp_path / "t.csv"
    code = cli.main([
        "trotter-error", "--decomp", EIGHT_TERM_DECOMP, "--k", "3",
        "--r-list", "1,2", "--t", "0.1", "--out", str(out),
    ])
    assert code == 0
    _, rows = read_rows(out)
    assert [row[:2] for row in rows] == [[3, 1], [3, 2]]
    assert all(row[3] <= row[2] < np.inf for row in rows)
    out = tmp_path / "s.csv"
    code = cli.main([
        "short-sim", "--decomp", EIGHT_TERM_DECOMP, "--k", "3", "--r", "1",
        "--t", "0.1", "--bits", "8", "--out", str(out),
    ])
    assert code == 0
    (row,) = read_rows(out)[1]
    assert row[5] <= row[6] < np.inf


def test_a_run_computes_alpha_comm_once_per_k(tmp_path, monkeypatch):
    """alpha_comm, or its work-cap refusal, does not depend on t or r."""
    calls = []
    alpha_comm = trotter.alpha_comm

    def counting(decomp, k):
        calls.append(k)
        return alpha_comm(decomp, k)

    monkeypatch.setattr(trotter, "alpha_comm", counting)
    out = tmp_path / "t.csv"
    code = cli.main([
        "trotter-error", "--decomp", EIGHT_TERM_DENSE, "--k", "3",
        "--r-list", "1,2,4,8", "--t", "0.1", "--out", str(out),
    ])
    assert code == 0 and calls == [3]
    calls.clear()
    code = cli.main([
        "short-sim", "--decomp", ZX_DECOMP, "--k", "1", "--r", "1", "--t", "0.3",
        "--bits", "6", "--sweep", "r:1,2,3", "--out", str(out),
    ])
    assert code == 0 and calls == [1]
    calls.clear()
    code = cli.main([
        "short-sim", "--decomp", ZX_DECOMP, "--k", "1", "--r", "2", "--t", "0.3",
        "--bits", "6", "--sweep", "k:1,2,1,2", "--out", str(out),
    ])
    assert code == 0 and calls == [1, 2]


def test_long_sim_builtin_sweep(tmp_path):
    out = tmp_path / "l.csv"
    code = cli.main([
        "long-sim", "--system", "sweep:sine:1.0,0.2", "--T-sweep", "20,30",
        "--r", "64", "--out", str(out),
    ])
    assert code == 0
    header, rows = read_rows(out)
    assert header == ["T", "r", "measured_error", "truncation_bound"]
    for row in rows:
        assert row[2] <= row[3]


def test_long_sim_computes_bounds_once_per_system(tmp_path, monkeypatch):
    from pathint import long_time

    calls = []
    original = long_time.adiabatic_bounds

    def counting(ham):
        calls.append(ham)
        return original(ham)

    monkeypatch.setattr(long_time, "adiabatic_bounds", counting)
    code = cli.main([
        "long-sim", "--system", "sweep:sine:1.0,0.2", "--T-sweep", "20,30",
        "--r", "64", "--out", str(tmp_path / "l.csv"),
    ])
    assert code == 0
    # the builtin sweep is one Hamiltonian for every T, so one call serves
    # both the bound column and longtime_error's precondition at each T
    assert len(calls) == 1


def count_tracking(monkeypatch) -> list[int]:
    """Grid sizes of every long_time.smooth_eigensystem call from now on."""
    from pathint import long_time

    calls = []
    original = long_time.smooth_eigensystem

    def counting(ham, s_grid):
        calls.append(len(s_grid))
        return original(ham, s_grid)

    monkeypatch.setattr(long_time, "smooth_eigensystem", counting)
    return calls


def test_long_sim_tracks_a_sweep_once_for_every_total_time(tmp_path, monkeypatch):
    calls = count_tracking(monkeypatch)
    argv = [
        "long-sim", "--system", "sweep:linear:1.0,0.2", "--T-sweep", "20,30,40,60,80",
        "--r", "512", "--out",
    ]
    assert cli.main(argv + [str(tmp_path / "shared.csv")]) == 0
    # one track, for the frames every truncation reads; the bounds track none
    assert calls == [513]
    # the same run with a fresh Hamiltonian, so fresh frames, for each T
    original = cli._system_builder
    monkeypatch.setattr(cli, "_system_builder", lambda value: lambda t: original(value)(t))
    assert cli.main(argv + [str(tmp_path / "fresh.csv")]) == 0
    assert calls == [513] * (1 + 5)
    assert (tmp_path / "shared.csv").read_bytes() == (tmp_path / "fresh.csv").read_bytes()


def test_long_sim_interaction_frame_tracks_once_per_total_time(tmp_path, monkeypatch):
    calls = count_tracking(monkeypatch)
    system = json.dumps({
        "family": "interaction-frame",
        "generator": {"n": 1, "terms": [{"pauli": "Z", "coeff": 0.02}]},
        "coupling": {"n": 1, "terms": [{"pauli": "Z", "coeff": 1.0},
                                        {"pauli": "X", "coeff": 0.45}]},
    })
    code = cli.main([
        "long-sim", "--system", system, "--T-sweep", "30,40", "--r", "64",
        "--out", str(tmp_path / "if.csv"),
    ])
    assert code == 0
    # the frame's drift scales with T, so each T is a new Hamiltonian
    assert calls == [65, 65]


def count_midpoint_grids(monkeypatch) -> list[tuple[object, int, int]]:
    """(Hamiltonian, steps, chunk start) of every midpoint grid long_time
    samples and diagonalizes from now on."""
    from pathint import long_time

    calls = []
    original = long_time.midpoint_eigensystem

    def counting(sample, steps, lo):
        # the sampler is the bound ``sample`` of the Hamiltonian it reads
        calls.append((sample.func.__self__, steps, lo))
        return original(sample, steps, lo)

    monkeypatch.setattr(long_time, "midpoint_eigensystem", counting)
    return calls


def test_long_sim_diagonalizes_each_midpoint_grid_once_for_every_total_time(
    tmp_path, monkeypatch
):
    calls = count_midpoint_grids(monkeypatch)
    argv = [
        "long-sim", "--system", "sweep:sine:1.0,0.3", "--T-sweep", "20,30,40,60,80",
        "--r", "512", "--out",
    ]
    assert cli.main(argv + [str(tmp_path / "shared.csv")]) == 0
    grids = [(steps, lo) for _, steps, lo in calls]
    assert len({id(ham) for ham, _, _ in calls}) == 1
    assert len(grids) == len(set(grids)) and (64, 0) in grids
    # a fresh Hamiltonian per T samples every grid its T needs again
    original = cli._system_builder
    monkeypatch.setattr(cli, "_system_builder", lambda value: lambda t: original(value)(t))
    calls.clear()
    assert cli.main(argv + [str(tmp_path / "fresh.csv")]) == 0
    assert [(steps, lo) for _, steps, lo in calls].count((64, 0)) == 5
    assert len({id(ham) for ham, _, _ in calls}) == 5
    assert {(steps, lo) for _, steps, lo in calls} == set(grids)
    assert (tmp_path / "shared.csv").read_bytes() == (tmp_path / "fresh.csv").read_bytes()


def test_every_drive_read_goes_through_sample(tmp_path, monkeypatch):
    # h and dh count the calls whose caller is not TimeDependentHamiltonian.sample
    import sys

    from pathint import long_time

    ham = long_time.two_level_sweep(1.0, 0.3, shape="sine")
    sample = long_time.TimeDependentHamiltonian.sample.__code__
    outside = []

    def counted(name):
        drive = getattr(ham, name)

        def read(s):
            if sys._getframe(1).f_code is not sample:
                outside.append(name)
            return drive(s)

        return read

    ham.h, ham.dh = counted("h"), counted("dh")
    monkeypatch.setattr(cli, "_system_builder", lambda value: lambda total_time: ham)
    assert cli.main([
        "long-sim", "--system", "sweep:sine:1.0,0.3", "--T-sweep", "20,40,80",
        "--r", "512", "--out", str(tmp_path / "l.csv"),
    ]) == 0
    long_time.PropagatorEncoding(ham, 40.0, 8, 8).block()
    assert ham._midpoints and ham._frames
    assert outside == []


def test_long_sim_interaction_frame_samples_no_midpoint_grid(tmp_path, monkeypatch):
    calls = count_midpoint_grids(monkeypatch)
    from pathint import long_time

    monkeypatch.setattr(long_time, "converged_propagator", None)
    system = json.dumps({
        "family": "interaction-frame",
        "generator": {"n": 1, "terms": [{"pauli": "Z", "coeff": 0.02}]},
        "coupling": {"n": 1, "terms": [{"pauli": "Z", "coeff": 1.0},
                                        {"pauli": "X", "coeff": 0.45}]},
    })
    code = cli.main([
        "long-sim", "--system", system, "--T-sweep", "30,40", "--r", "64",
        "--out", str(tmp_path / "if.csv"),
    ])
    assert code == 0
    # each T's frame is measured against its closed-form propagator: no
    # midpoint grid is sampled, and the converged rule is not called
    assert calls == []


@pytest.mark.parametrize(
    "system, r",
    [
        ("sweep:sine:1.0,0.2", "300"),
        ('{"family": "sweep", "shape": "sine", "a": 1.0, "b": 0.2, "grid": 300}', None),
    ],
    ids=["r", "grid"],
)
def test_long_sim_panel_cap_exits_three_before_sampling(
    tmp_path, monkeypatch, capsys, system, r
):
    lower_cap(monkeypatch, "panel_entries", 4 * 257)
    calls = count_tracking(monkeypatch)
    argv = ["long-sim", "--system", system, "--T-sweep", "20", "--out", str(tmp_path / "c.csv")]
    if r is not None:
        argv += ["--r", r]
    assert cli.main(argv) == 3
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1 and json.loads(err[0])["error"] == "cap"
    assert calls == []
    assert not (tmp_path / "c.csv").exists()


def test_lagrangian_sim_trajectory(tmp_path):
    out = tmp_path / "traj.csv"
    code = cli.main([
        "lagrangian-sim", "--n", "5", "--xmax", "8", "--mass", "1",
        "--r", "6", "--potential", "harmonic:0.8,4.0",
        "--initial", "gaussian:4.0,0.9,0.0", "--out", str(out),
    ])
    assert code == 0
    header, rows = read_rows(out)
    assert header == ["step", "norm", "fidelity", "position_mean", "momentum_mean"]
    assert len(rows) == 7
    for row in rows:
        assert abs(row[1] - 1.0) < 1e-12
        assert abs(row[2] - 1.0) < 1e-9
    basis = cli.main([
        "lagrangian-sim", "--n", "3", "--xmax", "4", "--mass", "1",
        "--r", "2", "--potential", "zero", "--initial", "basis:3",
        "--out", str(tmp_path / "b.csv"),
    ])
    assert basis == 0


LAGRANGIAN_ARGS = [
    "lagrangian-sim", "--xmax", "12", "--mass", "1", "--potential", "harmonic:0.5,6.0",
    "--initial", "gaussian:6.0,1.0,0.5",
]


def test_lagrangian_sim_forms_no_dense_operator(tmp_path, monkeypatch):
    from pathint import lattice

    def refuse(*args, **kwargs):
        raise AssertionError("lagrangian-sim formed a dense operator")

    for name in ("exp_unitary", "kinetic_op", "split_step_reference"):
        monkeypatch.setattr(lattice, name, refuse)
    out = tmp_path / "big.csv"
    assert cli.main(LAGRANGIAN_ARGS + ["--n", "10", "--r", "8", "--out", str(out)]) == 0
    _, rows = read_rows(out)
    assert len(rows) == 9
    assert all(abs(row[2] - 1.0) < 1e-9 for row in rows)


def test_lagrangian_sim_builds_step_phases_once(tmp_path, monkeypatch):
    from pathint import lattice

    calls = []
    original = lattice.action_phase

    def counting(cfg, values, q_from, q_to):
        calls.append(cfg)
        return original(cfg, values, q_from, q_to)

    monkeypatch.setattr(lattice, "action_phase", counting)
    out = tmp_path / "long.csv"
    assert cli.main(LAGRANGIAN_ARGS + ["--n", "5", "--r", "50", "--out", str(out)]) == 0
    # one phase row per oracle query of a step, not one per step
    assert len(calls) == 2


def test_lagrangian_sim_makes_two_transforms_per_step(tmp_path, monkeypatch):
    # the circuit and its reference share one stacked forward transform per
    # step; the reference adds one inverse, and each block one forward
    # transform for the momentum column
    calls = {"fft": 0, "ifft": 0}
    for name in calls:
        def counting(*args, _original=getattr(np.fft, name), _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counting)
    r = 50
    assert cli._BLOCK_AMPLITUDES // 2**5 >= r + 1  # one block holds every row
    out = tmp_path / "long.csv"
    assert cli.main(LAGRANGIAN_ARGS + ["--n", "5", "--r", str(r), "--out", str(out)]) == 0
    assert calls == {"fft": r + 1, "ifft": r}


# The first state to lose norm is row 1: inside the default block, alone in
# a one-row block, and last in a two-row block.  With r = 2 it is also the
# last state the check covers, as the input of the last step.
@pytest.mark.parametrize("rows", [None, 1, 2], ids=["mid-block", "block-start", "block-end"])
def test_lagrangian_sim_refuses_a_step_that_loses_norm(tmp_path, monkeypatch, capsys, rows):
    from pathint import lattice

    if rows is not None:
        monkeypatch.setattr(cli, "_BLOCK_AMPLITUDES", rows * 2**5)
    original = lattice.action_phase

    def lossy(cfg, values, q_from, q_to):
        return 0.99 * original(cfg, values, q_from, q_to)

    monkeypatch.setattr(lattice, "action_phase", lossy)
    out = tmp_path / "lossy.csv"
    assert cli.main(LAGRANGIAN_ARGS + ["--n", "5", "--r", "2", "--out", str(out)]) == 2
    doc = json.loads(capsys.readouterr().err.strip())
    assert doc["error"] == "spec"
    assert doc["module"] == "pathint.lattice"
    assert doc["message"] == "lagrangian_step expects a normalized state"
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--potential", "harmonic:0.5,6.0", "--initial", "gaussian:nan,1.0,0.0"],
    ["--potential", "harmonic:nan,6.0", "--initial", "gaussian:6.0,1.0,0.5"],
    ["--potential", "well:nan,3,8", "--initial", "gaussian:6.0,1.0,0.5"],
], ids=["initial", "harmonic", "well"])
def test_lagrangian_sim_refuses_nan(tmp_path, capsys, flags):
    out = tmp_path / "nan.csv"
    argv = ["lagrangian-sim", "--n", "5", "--xmax", "12", "--mass", "1", "--r", "3", *flags]
    assert cli.main(argv + ["--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "spec"
    assert not out.exists()


def _block_cases():
    """Block sizes of 1 row, 3 rows and the default, with r + 1 rows either
    filling the last block or spilling one or two rows into the next."""
    for rows in (1, 3, None):
        for n in (1, 5, 7):
            block = rows or max(1, cli._BLOCK_AMPLITUDES // 2**n)
            for r in sorted({max(1, block - 1), block, block + 1}):
                yield pytest.param(rows, n, r, id=f"rows{rows or 'default'}-n{n}-r{r}")


@pytest.mark.parametrize("rows,n,r", _block_cases())
def test_lagrangian_sim_blocks_match_the_row_loop(tmp_path, monkeypatch, rows, n, r):
    if rows is not None:
        monkeypatch.setattr(cli, "_BLOCK_AMPLITUDES", rows * 2**n)
    out = tmp_path / "traj.csv"
    for potential in ("zero", "harmonic:0.5,6.0", "well:2.0,3.5,7.5"):
        for initial in ("gaussian:6.0,1.0,0.5", f"basis:{2**n // 3}"):
            params = {
                "n": n, "xmax": 12.0, "mass": 1.0, "r": r,
                "potential": potential, "initial": initial,
            }
            argv = ["lagrangian-sim", "--out", str(out)]
            for name, value in params.items():
                argv += [f"--{name}", str(value)]
            assert cli.main(argv) == 0
            assert out.read_bytes() == lagrangian_csv_oracle(params)


def test_spec_file_with_overrides(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "kind": "gauss-check",
        "params": {"count": 3, "max_coeff": 8},
        "seed": 11,
        "output": str(tmp_path / "a.csv"),
    }))
    assert cli.main(["gauss-check", "--spec", str(spec_path)]) == 0
    assert (tmp_path / "a.csv").exists()
    moved = tmp_path / "b.csv"
    assert cli.main(["gauss-check", "--spec", str(spec_path), "--out", str(moved)]) == 0
    assert moved.exists()
    assert cli.main(["long-sim", "--spec", str(spec_path)]) == 2


def test_exit_codes(tmp_path, capsys):
    assert cli.main([
        "gauss-check", "--count", "0", "--max-coeff", "4",
        "--out", str(tmp_path / "x.csv"),
    ]) == 2
    err = capsys.readouterr().err.strip()
    doc = json.loads(err)
    assert doc["error"] == "spec" and "\n" not in err

    assert cli.main([
        "short-sim", "--decomp", ZX_DECOMP, "--k", "4", "--r", "2",
        "--t", "0.3", "--bits", "6", "--out", str(tmp_path / "x.csv"),
    ]) == 3
    doc = json.loads(capsys.readouterr().err.strip())
    assert doc["error"] == "cap"
    assert doc["module"] == "pathint.trotter"
    assert doc["message"] == f"order index 4 above cap {CAPS['schedule_order'].limit}"


def test_invariant_failures_exit_four(tmp_path, capsys, monkeypatch):
    def boom(params, seed):
        raise InvariantViolation("synthetic trip")

    kind = cli._KIND_TABLE["gauss-check"]
    monkeypatch.setitem(cli._KIND_TABLE, "gauss-check", dataclasses.replace(kind, runner=boom))
    code = cli.main([
        "gauss-check", "--count", "1", "--max-coeff", "2",
        "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 4
    doc = json.loads(capsys.readouterr().err.strip())
    assert doc["error"] == "invariant"


def test_malformed_inline_flags(tmp_path):
    out = str(tmp_path / "x.csv")
    bad_invocations = [
        ["gauss-check", "--count", "3", "--max-coeff", "4"],
        ["trotter-error", "--decomp", ZX_DECOMP, "--k", "1", "--r-list", "2,x",
         "--t", "0.5", "--out", out],
        ["short-sim", "--decomp", ZX_DECOMP, "--k", "1", "--r", "2", "--t", "0.3",
         "--bits", "6", "--sweep", "gamma:1,2", "--out", out],
        ["long-sim", "--system", "sweep:sine:1.0", "--T-sweep", "20", "--out", out],
        ["lagrangian-sim", "--n", "3", "--xmax", "4", "--mass", "1", "--r", "2",
         "--potential", "mystery:1", "--initial", "basis:0", "--out", out],
        ["lagrangian-sim", "--n", "3", "--xmax", "4", "--mass", "1", "--r", "2",
         "--potential", "zero", "--initial", "basis:9", "--out", out],
    ]
    for argv in bad_invocations:
        assert cli.main(argv) == 2


@pytest.mark.parametrize("argv", [
    ["short-sim", "--k", "abc"],
    ["long-sim", "--r", "3.5"],
    ["short-sim", "--bogus", "1"],
    ["--bogus", "1"],
    [],
    ["--"],
], ids=["k-not-int", "r-fraction", "unknown-flag", "unknown-flag-first", "empty",
        "end-of-options-only"])
def test_unparsable_flags_exit_2_with_one_json_line(capsys, argv):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    error = json.loads(captured.err)
    assert error["error"] == "spec"
    if "--bogus" in argv:
        # the unknown flag is named, not the value after it
        assert "--bogus" in error["message"] and "invalid choice" not in error["message"]
    if argv == ["--"]:
        # the marker is not read as the subcommand
        assert "invalid choice" not in error["message"]


def test_leading_end_of_options_marker_is_dropped(tmp_path):
    argv = flag_argv("short-sim", INVOCATIONS["short-sim"][0])
    csvs = []
    for name, prefix in (("plain", []), ("marked", ["--"])):
        out = tmp_path / f"{name}.csv"
        assert cli.main(prefix + argv + ["--out", str(out)]) == 0
        csvs.append(out.read_bytes())
    assert csvs[0] == csvs[1]


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: pathint")


def test_long_sim_interaction_frame_system(tmp_path):
    # the frame's drift scales with total time, so the generator must be
    # weak for the slow-sweep expansion to stay controlled at T = 40
    system = json.dumps({
        "family": "interaction-frame",
        "generator": {"n": 1, "terms": [{"pauli": "Z", "coeff": 0.02}]},
        "coupling": {"n": 1, "terms": [{"pauli": "Z", "coeff": 1.0},
                                        {"pauli": "X", "coeff": 0.45}]},
        "grid": 64,
    })
    out = tmp_path / "if.csv"
    code = cli.main([
        "long-sim", "--system", system, "--T-sweep", "40", "--r", "64",
        "--out", str(out),
    ])
    assert code == 0
    header, rows = read_rows(out)
    assert header == ["T", "r", "measured_error", "truncation_bound"]
    assert rows[0][2] <= rows[0][3]


# The criterion-14 invocations, flag by flag, each beside the experiment
# document written out by hand.  Lists from flags are floats where the flag
# parser reads numbers, so T_sweep is [20.0], not [20].
ZX_DOC = {"n": 1, "terms": [{"pauli": "Z", "coeff": 1.0}, {"pauli": "X", "coeff": 1.0}]}
INVOCATIONS = {
    "trotter-error": (
        {"--decomp": ZX_DECOMP, "--k": "1", "--r-list": "2,4", "--t": "0.5"},
        {"decomp": ZX_DOC, "k": 1, "r_list": [2, 4], "t": 0.5},
    ),
    "short-sim": (
        {"--decomp": ZX_DECOMP, "--k": "1", "--r": "2", "--t": "0.3", "--bits": "6"},
        {"decomp": ZX_DOC, "k": 1, "r": 2, "t": 0.3, "bits": 6},
    ),
    "long-sim": (
        {"--system": "sweep:sine:1.0,0.2", "--T-sweep": "20", "--r": "64"},
        {"system": "sweep:sine:1.0,0.2", "T_sweep": [20.0], "r": 64},
    ),
    "lagrangian-sim": (
        {"--n": "5", "--xmax": "16.0", "--mass": "1.0", "--r": "6",
         "--potential": "harmonic:0.4,8.0", "--initial": "gaussian:8.0,1.2,0.8"},
        {"n": 5, "xmax": 16.0, "mass": 1.0, "r": 6,
         "potential": "harmonic:0.4,8.0", "initial": "gaussian:8.0,1.2,0.8"},
    ),
    "gauss-check": (
        {"--count": "20", "--max-coeff": "30"},
        {"count": 20, "max_coeff": 30},
    ),
}
OPTIONAL_FLAGS = {("long-sim", "--r")}
REQUIRED_FLAGS = [
    (kind, flag)
    for kind, (flags, _) in INVOCATIONS.items()
    for flag in flags
    if (kind, flag) not in OPTIONAL_FLAGS
]


def flag_argv(kind: str, flags: dict[str, str]) -> list[str]:
    return [kind] + [word for pair in flags.items() for word in pair]


@pytest.mark.parametrize("kind", sorted(INVOCATIONS))
def test_inline_flags_match_the_written_document(tmp_path, kind):
    flags, params = INVOCATIONS[kind]
    out = tmp_path / "x.csv"
    manifest = tmp_path / "x.csv.manifest.json"
    assert cli.main(flag_argv(kind, flags) + ["--seed", "11", "--out", str(out)]) == 0
    from_flags = out.read_bytes(), json.loads(manifest.read_text())["spec_hash"]
    out.unlink()
    manifest.unlink()
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(
        {"kind": kind, "params": params, "seed": 11, "output": str(out)}
    ))
    assert cli.main([kind, "--spec", str(spec_path)]) == 0
    assert (out.read_bytes(), json.loads(manifest.read_text())["spec_hash"]) == from_flags


@pytest.mark.parametrize("kind", ["short-sim", "trotter-error", "long-sim"])
def test_csv_bytes_do_not_depend_on_blas_threads(tmp_path, kind):
    """One and two BLAS threads write the same CSV.  Each run is a new
    process, since the thread count is read when numpy loads."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    csvs = []
    for threads in ("1", "2"):
        out = tmp_path / f"x{threads}.csv"
        env = dict(
            os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
            PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        )
        argv = flag_argv(kind, INVOCATIONS[kind][0]) + ["--out", str(out)]
        subprocess.run([sys.executable, "-m", "pathint.cli", *argv], env=env, check=True,
                       timeout=60)
        csvs.append(out.read_bytes())
    assert csvs[0] == csvs[1]


def test_cli_import_leaves_scipy_out():
    """A fresh process that imports the CLI loads no scipy, whose import
    time would land in every run's set-up."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    ))
    probe = "import sys, pathint.cli; print([m for m in sys.modules if m.startswith('scipy')])"
    done = subprocess.run([sys.executable, "-c", probe], env=env, check=True, timeout=60,
                          capture_output=True, text=True)
    assert done.stdout.strip() == "[]"


def test_required_flags_cover_every_document_parameter():
    for kind, (flags, _) in INVOCATIONS.items():
        required = {flag for k, flag in REQUIRED_FLAGS if k == kind}
        assert set(flags) == {"--" + p.replace("_", "-") for p in INVOCATIONS[kind][1]}
        assert required == {
            p.flag for p in cli._KIND_TABLE[kind].params if not p.optional
        }


@pytest.mark.parametrize(("kind", "flag"), REQUIRED_FLAGS)
def test_each_required_flag_is_checked(tmp_path, capsys, kind, flag):
    flags = dict(INVOCATIONS[kind][0])
    del flags[flag]
    assert cli.main(flag_argv(kind, flags) + ["--out", str(tmp_path / "x.csv")]) == 2
    doc = json.loads(capsys.readouterr().err.strip())
    assert doc["error"] == "spec"
    assert doc["message"] == f"missing required flag {flag} (or use --spec)"
    assert not (tmp_path / "x.csv").exists()


# Document numbers of the wrong type, each inside an otherwise valid
# criterion-14 document: a string where a number belongs, a fraction where
# an integer belongs, a boolean where a step count belongs, or a list or a
# number where a sweep shape's name belongs.  Then numbers
# that are not finite, written as JSON NaN and Infinity or given as flags;
# a case whose keys are flags changes the criterion-14 flags instead.
SWEEP_SYSTEM = {"family": "sweep", "shape": "sine", "a": 1.0, "b": 0.2}
FRAME_SYSTEM = {
    "family": "interaction-frame",
    "generator": {"n": 1, "terms": [{"pauli": "Z", "coeff": 0.02}]},
    "coupling": {"n": 1, "terms": [{"pauli": "Z", "coeff": 1.0}, {"pauli": "X", "coeff": 0.45}]},
}
BAD_NUMBERS = {
    "sweep-value": ("short-sim", {"sweep": {"param": "bits", "values": ["x"]}}),
    "sweep-fractional-bits": ("short-sim", {"sweep": {"param": "bits", "values": [2.9]}}),
    "system-a": ("long-sim", {"system": dict(SWEEP_SYSTEM, a="x")}),
    "system-b": ("long-sim", {"system": dict(SWEEP_SYSTEM, b="x")}),
    "system-grid": ("long-sim", {"system": dict(SWEEP_SYSTEM, grid="x")}),
    "system-shape-list": ("long-sim", {"system": dict(SWEEP_SYSTEM, shape=[1])}),
    "system-shape-number": ("long-sim", {"system": dict(SWEEP_SYSTEM, shape=3)}),
    "frame-grid": ("long-sim", {"system": dict(FRAME_SYSTEM, grid="x")}),
    "potential-level": ("lagrangian-sim", {"potential": {"name": "constant", "level": "x"}}),
    "decomp-n": ("short-sim", {"decomp": dict(ZX_DOC, n="x")}),
    "decomp-fractional-n": ("short-sim", {"decomp": dict(ZX_DOC, n=1.7)}),
    "decomp-coeff": ("short-sim", {"decomp": {"n": 1, "terms": [{"pauli": "Z", "coeff": "x"}]}}),
    "decomp-zero-tol": ("short-sim", {"decomp": dict(ZX_DOC, zero_tol="x")}),
    "r-list-boolean": ("trotter-error", {"r_list": [True]}),
    "flag-t-nan": ("short-sim", {"--t": "nan"}),
    "flag-t-inf": ("trotter-error", {"--t": "inf"}),
    "flag-T-sweep-inf": ("long-sim", {"--T-sweep": "20,inf"}),
    "flag-initial-nan": ("lagrangian-sim", {"--initial": "gaussian:nan,1.0,0.0"}),
    # finite geometry whose timestep overflows
    "flag-tau-overflow": ("lagrangian-sim", {
        "--n": "3", "--xmax": "1e300", "--mass": "1", "--r": "2",
        "--potential": "zero", "--initial": "basis:0",
    }),
}
for word, value in (("nan", float("nan")), ("infinity", float("inf"))):
    BAD_NUMBERS.update({
        f"t-{word}": ("short-sim", {"t": value}),
        f"xmax-{word}": ("lagrangian-sim", {"xmax": value}),
        f"mass-{word}": ("lagrangian-sim", {"mass": value}),
        f"T-sweep-{word}": ("long-sim", {"T_sweep": [20.0, value]}),
        f"sweep-t-{word}": ("short-sim", {"sweep": {"param": "t", "values": [0.3, value]}}),
        f"system-a-{word}": ("long-sim", {"system": dict(SWEEP_SYSTEM, a=value)}),
        f"potential-level-{word}": (
            "lagrangian-sim", {"potential": {"name": "constant", "level": value}},
        ),
        f"decomp-coeff-{word}": (
            "short-sim", {"decomp": {"n": 1, "terms": [{"pauli": "Z", "coeff": value}]}},
        ),
        f"decomp-zero-tol-{word}": ("short-sim", {"decomp": dict(ZX_DOC, zero_tol=value)}),
    })


def main_with(tmp_path, kind: str, change: dict) -> int:
    """cli.main on the kind's criterion-14 invocation, changed: its flags
    when every key of ``change`` is a flag, else its document."""
    flags, params = INVOCATIONS[kind]
    out = tmp_path / "x.csv"
    spec_path = tmp_path / "spec.json"
    if all(key.startswith("--") for key in change):
        argv = flag_argv(kind, dict(flags, **change)) + ["--out", str(out)]
    else:
        spec_path.write_text(json.dumps(
            {"kind": kind, "params": dict(params, **change), "seed": 0, "output": str(out)}
        ))
        argv = [kind, "--spec", str(spec_path)]
    return cli.main(argv)


@pytest.mark.parametrize("case", sorted(BAD_NUMBERS))
def test_document_numbers_are_checked(tmp_path, capsys, case):
    assert main_with(tmp_path, *BAD_NUMBERS[case]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "spec"
    assert not (tmp_path / "x.csv").exists()


# Terms a document may not hold: a dense term that is not Hermitian, in a
# decomposition or in either operator of an interaction frame; and
# magnitude bits past exact rounding, given once or in a sweep.
NOT_HERMITIAN = {"n": 1, "terms": [[[[0, 0], [1, 0]], [[2, 0], [0, 0]]]]}
TOO_MANY_BITS = MAX_BITS + 1
NOT_HERMITIAN_TERM = "term 0: matrix is not Hermitian"
BITS_MESSAGE = f"must be at most {MAX_BITS}"
BAD_TERMS = {
    "decomp-not-hermitian": ("trotter-error", {
        "decomp": {"n": 1, "terms": [{"pauli": "Z"}] + NOT_HERMITIAN["terms"]},
    }, "term 1: matrix is not Hermitian"),
    "generator-not-hermitian": (
        "long-sim", {"system": dict(FRAME_SYSTEM, generator=NOT_HERMITIAN)}, NOT_HERMITIAN_TERM,
    ),
    "coupling-not-hermitian": (
        "long-sim", {"system": dict(FRAME_SYSTEM, coupling=NOT_HERMITIAN)}, NOT_HERMITIAN_TERM,
    ),
    "bits": ("short-sim", {"bits": TOO_MANY_BITS}, BITS_MESSAGE),
    "sweep-bits": (
        "short-sim", {"sweep": {"param": "bits", "values": [6, TOO_MANY_BITS]}}, BITS_MESSAGE,
    ),
    "flag-bits": ("short-sim", {"--bits": "63"}, BITS_MESSAGE),
    "flag-sweep-bits": ("short-sim", {"--sweep": "bits:6,64"}, BITS_MESSAGE),
}


@pytest.mark.parametrize("case", sorted(BAD_TERMS))
def test_document_terms_and_bits_are_checked(tmp_path, capsys, case):
    kind, change, words = BAD_TERMS[case]
    assert main_with(tmp_path, kind, change) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    doc = json.loads(err)
    assert doc["error"] == "spec"
    assert words in doc["message"]
    assert not (tmp_path / "x.csv").exists()


# Finite numbers far out of range, as flags changing the criterion-14
# invocation, with the exit code each gives: a derived number past float
# range is a bad document (2), a bound past it an empty cell (0).
def _pauli_flag(*terms: tuple[str, float]) -> str:
    return json.dumps({"n": len(terms[0][0]),
                       "terms": [{"pauli": p, "coeff": c} for p, c in terms]})


FRAME_OVERFLOW = json.dumps(dict(
    FRAME_SYSTEM, grid=16,
    generator={"n": 1, "terms": [{"pauli": "Z", "coeff": 1e160}]},
    coupling={"n": 1, "terms": [{"pauli": "Z", "coeff": 1.0}, {"pauli": "X", "coeff": 1e160}]},
))
FAR_OUT = {
    "frame-commutator": ("long-sim", {"--system": FRAME_OVERFLOW, "--T-sweep": "30",
                                      "--r": "16"}, 2),
    "sweep-splitting": ("long-sim", {"--system": "sweep:linear:1e300,1"}, 2),
    "T-sweep-huge": ("long-sim", {"--system": "sweep:linear:1.0,0.2",
                                  "--T-sweep": "20,1e300"}, 2),
    "T-sweep-tiny": ("long-sim", {"--T-sweep": "1e-300"}, 2),
    "trotter-t": ("trotter-error", {"--t": "1e300"}, 0),
    "short-t": ("short-sim", {"--t": "1e300"}, 0),
    "trotter-coeff": ("trotter-error", {"--decomp": _pauli_flag(("Z", 1e300), ("X", 1.0))}, 0),
    "short-coeff": ("short-sim", {"--decomp": _pauli_flag(("Z", 1e300), ("X", 1.0))}, 0),
    "trotter-dense-commutator": ("trotter-error", {"--decomp": json.dumps({"n": 1, "terms": [
        [[[1e200, 0], [0, 0]], [[0, 0], [-1e200, 0]]],
        [[[0, 0], [1e200, 0]], [[1e200, 0], [0, 0]]],
    ]})}, 0),
    "trotter-k0-commutator": ("trotter-error", {"--k": "0", "--decomp": _pauli_flag(
        ("ZZ", 1e200), ("XX", 1e200), ("YZ", 1.0))}, 0),
    "harmonic-omega": ("lagrangian-sim", {"--potential": "harmonic:1e300,1"}, 2),
    "gaussian-width": ("lagrangian-sim", {"--initial": "gaussian:0,1e300,0"}, 2),
    "gaussian-center": ("lagrangian-sim", {"--initial": "gaussian:1e300,1,0"}, 2),
    "xmax-tiny": ("lagrangian-sim", {"--n": "4", "--xmax": "1e-300"}, 2),
}
BOUND_COLUMNS = {"bound", "truncation_bound"}


@pytest.mark.parametrize("case", sorted(FAR_OUT))
def test_numbers_past_float_range_exit_cleanly(tmp_path, capsys, case):
    kind, flags, code = FAR_OUT[case]
    assert main_with(tmp_path, kind, flags) == code
    err = capsys.readouterr().err
    if code:
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == "spec"
        return
    assert err == ""
    lines = (tmp_path / "x.csv").read_text().strip().split("\n")
    header = lines[0].split(",")
    for line in lines[1:]:
        for name, cell in zip(header, line.split(",")):
            assert (cell == "" and name in BOUND_COLUMNS) or np.isfinite(float(cell))


def test_frame_operators_are_sums_in_any_term_order(tmp_path):
    """Only a frame operator's sum is used, so its terms may come in any order."""
    csvs = []
    for terms in (FRAME_SYSTEM["coupling"]["terms"], FRAME_SYSTEM["coupling"]["terms"][::-1]):
        system = dict(FRAME_SYSTEM, coupling={"n": 1, "terms": terms})
        out = tmp_path / f"frame{len(csvs)}.csv"
        argv = ["long-sim", "--system", json.dumps(system), "--T-sweep", "30", "--r", "64"]
        assert cli.main(argv + ["--out", str(out)]) == 0
        csvs.append(out.read_bytes())
    assert csvs[0] == csvs[1]
    assert csvs[0].decode().splitlines()[1].startswith("30,64,")


def _forbidden(*args, **kwargs):
    raise AssertionError("work started past a cap")


@pytest.mark.parametrize("flags", [
    {"--max-coeff": str(1 << 63)},
    {"--max-coeff": str(CAPS["gauss_terms"].limit + 1)},
    {"--count": str(CAPS["gauss_rows"].limit + 1)},
], ids=["max-coeff-past-int64", "max-coeff", "count"])
def test_gauss_check_sizes_are_capped_before_any_work(tmp_path, capsys, monkeypatch, flags):
    monkeypatch.setattr(cli, "gauss_sum_check", _forbidden)
    monkeypatch.setattr(np.random, "SeedSequence", _forbidden)
    assert main_with(tmp_path, "gauss-check", flags) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "cap"
    assert not (tmp_path / "x.csv").exists()


def _wide(n: int) -> dict:
    return {"n": n, "terms": [{"pauli": "Z" * n}, {"pauli": "X" * n, "coeff": 0.5}]}


# A document past the dense-size cap is refused by its reader before any
# term is parsed, in a decomposition and in an interaction frame's coupling
# (its one-qubit generator is read first, so 2 x 2 is allowed).
@pytest.mark.parametrize("n", [64, 20])
@pytest.mark.parametrize(("kind", "change"), [
    ("trotter-error", lambda doc: {"decomp": doc}),
    ("short-sim", lambda doc: {"decomp": doc}),
    ("long-sim", lambda doc: {"system": dict(FRAME_SYSTEM, coupling=doc)}),
], ids=["trotter-error", "short-sim", "frame-coupling"])
def test_wide_documents_exit_3_before_any_allocation(
    tmp_path, capsys, monkeypatch, kind, change, n
):
    forbid_allocation(monkeypatch, most=4)
    assert main_with(tmp_path, kind, change(_wide(n))) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    doc = json.loads(err)
    assert doc["error"] == "cap" and doc["module"] == "pathint.decomp"
    assert doc["message"] == f"decomposition 'n' {n} above cap {CAPS['dense_qubits'].limit}"
    assert not (tmp_path / "x.csv").exists()


def test_lagrangian_trajectory_cap_exits_3_before_stepping(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "trajectory", _forbidden)
    r = CAPS["trajectory_steps"].limit + 1
    assert main_with(tmp_path, "lagrangian-sim", {"--r": str(r)}) == 3
    doc = json.loads(capsys.readouterr().err)
    assert doc["error"] == "cap" and doc["module"] == "pathint.cli"
    assert doc["message"] == f"param 'r' {r} above cap {CAPS['trajectory_steps'].limit}"


def test_an_unconverged_reference_propagator_exits_3(tmp_path, capsys, monkeypatch):
    lower_cap(monkeypatch, "midpoint_slices", 256)
    assert main_with(tmp_path, "long-sim", {}) == 3
    doc = json.loads(capsys.readouterr().err)
    assert doc["error"] == "cap" and doc["module"] == "pathint.linalg"
    assert not (tmp_path / "x.csv").exists()


def test_schedule_cap_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "measured_error", _forbidden)
    assert main_with(tmp_path, "trotter-error", {"--r-list": str(10**7)}) == 3
    assert json.loads(capsys.readouterr().err)["module"] == "pathint.trotter"


# Each refused document is refused whole, before its runner computes a row:
# a bad entry late in a list costs no work for the entries before it.
@pytest.mark.parametrize(("kind", "change", "counted"), [
    ("long-sim", {"--T-sweep": "20,-1"}, "longtime_error"),
    ("trotter-error", {"--r-list": "2,0"}, "measured_error"),
    ("short-sim", {"--sweep": "bits:6,64"}, "simulate"),
], ids=["long-sim", "trotter-error", "short-sim-bits"])
def test_refusal_comes_before_any_work(tmp_path, capsys, monkeypatch, kind, change, counted):
    calls = []
    original = getattr(cli, counted)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, counted, counting)
    out = tmp_path / "x.csv"
    argv = flag_argv(kind, dict(INVOCATIONS[kind][0], **change)) + ["--out", str(out)]
    assert cli.main(argv) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "spec"
    assert calls == []
    assert not out.exists()


# The four params that name documents or string forms are checked by their
# own readers; every other value param must declare its check.
READER_PARAMS = {"decomp", "system", "potential", "initial"}


def test_every_value_param_declares_a_check():
    for kind in cli._KIND_TABLE.values():
        for param in kind.params:
            assert (param.check is None) == (param.name in READER_PARAMS), param.name
