"""Tests for the experiment runner CLI."""

from __future__ import annotations

import json

import numpy as np
import pytest

from pathint import cli, trotter
from pathint.errors import InvariantViolation

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
    wire = json.loads(json.dumps(cli.spec_to_dict(spec)))
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
    original = lattice._step_phases

    def counting(cfg, values):
        calls.append(cfg)
        return original(cfg, values)

    monkeypatch.setattr(lattice, "_step_phases", counting)
    out = tmp_path / "long.csv"
    assert cli.main(LAGRANGIAN_ARGS + ["--n", "5", "--r", "50", "--out", str(out)]) == 0
    assert len(calls) == 1


def test_lagrangian_sim_refuses_a_step_that_loses_norm(tmp_path, monkeypatch, capsys):
    from pathint import lattice

    original = lattice._step_phases

    def lossy(cfg, values):
        first, second = original(cfg, values)
        return 0.99 * first, second

    monkeypatch.setattr(lattice, "_step_phases", lossy)
    out = tmp_path / "lossy.csv"
    assert cli.main(LAGRANGIAN_ARGS + ["--n", "5", "--r", "3", "--out", str(out)]) == 2
    doc = json.loads(capsys.readouterr().err.strip())
    assert doc["error"] == "spec"
    assert doc["module"] == "pathint.lattice"
    assert doc["message"] == "lagrangian_step expects a normalized state"
    assert not out.exists()


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
    assert doc["message"] == f"order index 4 above cap {trotter.SCHEDULE_ORDER_CAP}"


def test_invariant_failures_exit_four(tmp_path, capsys, monkeypatch):
    def boom(params, seed):
        raise InvariantViolation("synthetic trip")

    monkeypatch.setitem(cli._RUNNERS, "gauss-check", boom)
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
# an integer belongs, or a boolean where a step count belongs.
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
    "frame-grid": ("long-sim", {"system": dict(FRAME_SYSTEM, grid="x")}),
    "potential-level": ("lagrangian-sim", {"potential": {"name": "constant", "level": "x"}}),
    "decomp-n": ("short-sim", {"decomp": dict(ZX_DOC, n="x")}),
    "decomp-fractional-n": ("short-sim", {"decomp": dict(ZX_DOC, n=1.7)}),
    "decomp-coeff": ("short-sim", {"decomp": {"n": 1, "terms": [{"pauli": "Z", "coeff": "x"}]}}),
    "decomp-zero-tol": ("short-sim", {"decomp": dict(ZX_DOC, zero_tol="x")}),
    "r-list-boolean": ("trotter-error", {"r_list": [True]}),
}


@pytest.mark.parametrize("case", sorted(BAD_NUMBERS))
def test_document_numbers_are_checked(tmp_path, capsys, case):
    kind, change = BAD_NUMBERS[case]
    out = tmp_path / "x.csv"
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(
        {"kind": kind, "params": dict(INVOCATIONS[kind][1], **change), "seed": 0, "output": str(out)}
    ))
    assert cli.main([kind, "--spec", str(spec_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "spec"
    assert not out.exists()
