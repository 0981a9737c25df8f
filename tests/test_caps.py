"""The cap table: every cap trips on one input, and only the table's check
writes a cap message."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import numpy as np
import pytest

from pathint import cli, errors, lattice, lcu
from pathint import decomp as dc
from pathint import long_time as lt
from pathint import short_time as sh
from pathint import trotter
from pathint.errors import CAPS, CapExceeded
from pathint.linalg import converged_propagator
from support import forbid_allocation, lower_cap, pauli_string, random_decomposition_terms

SRC = Path(cli.__file__).parent


def _limit(name: str) -> int:
    return CAPS[name].limit


def _walk(vec):
    raise AssertionError("walked a register past the cap")


def _dense_document(monkeypatch):
    forbid_allocation(monkeypatch)
    dc.decomposition_from_json({"n": 64, "terms": [{"pauli": "Z" * 64}]})


def _trajectory(monkeypatch):
    forbid_allocation(monkeypatch)
    cli.spec_from_dict({
        "kind": "lagrangian-sim", "seed": 0, "output": "x.csv",
        "params": {"n": 5, "xmax": 8.0, "mass": 1.0, "r": _limit("trajectory_steps") + 1,
                   "potential": "zero", "initial": "basis:0"},
    })


def _midpoint_slices(monkeypatch):
    # refinements never agree to tol 0, so the (lowered) cap ends them
    lower_cap(monkeypatch, "midpoint_slices", 1 << 10)
    ham = lt.two_level_sweep(1.0, 0.2, shape="sine", grid=8)
    converged_propagator(ham.h, 20.0, tol=0.0)


def _lattice(n: int, r: int) -> lattice.LatticeConfig:
    return lattice.LatticeConfig(n=n, x_max=4.0, mass=1.0, r=r)


# One input per cap, past its limit.
TRIPS = {
    "dense_qubits": _dense_document,
    "path_sum": lambda mp: sh.path_sum_propagator(
        dc.build([pauli_string("Z"), pauli_string("X")]), trotter.schedule(2, 0, 11, 1.0)
    ),
    "walk_register": lambda mp: lcu.system_block(_walk, _limit("walk_register") // 16 + 1, 2),
    "schedule_order": lambda mp: trotter.schedule(2, _limit("schedule_order") + 1, 1, 1.0),
    "schedule_factors": lambda mp: trotter.schedule(2, 0, _limit("schedule_factors") // 2 + 1, 1.0),
    "alpha_work": lambda mp: trotter.alpha_comm(
        dc.build(random_decomposition_terms(np.random.default_rng(0), 1, 362)), 1
    ),
    "panel_entries": lambda mp: lt.two_level_sweep(1.0, 0.2, grid=_limit("panel_entries") // 4),
    "midpoint_slices": _midpoint_slices,
    "brute_force_paths": lambda mp: lattice.brute_force_propagator(
        _lattice(4, 6), lattice.zero_potential()
    ),
    "step_work": lambda mp: lattice.lagrangian_propagator(
        _lattice(10, 65), lattice.zero_potential()
    ),
    "gauss_terms": lambda mp: lattice.gauss_sum_check(1, 0, _limit("gauss_terms") + 2),
    "gauss_rows": lambda mp: cli.spec_from_dict({
        "kind": "gauss-check", "seed": 0, "output": "x.csv",
        "params": {"count": _limit("gauss_rows") + 1, "max_coeff": 4},
    }),
    "trajectory_steps": _trajectory,
}


def test_every_cap_has_a_trip():
    assert sorted(TRIPS) == sorted(CAPS)


class _Lookups(dict):
    """The cap table, remembering the last cap read: require_cap reads the
    cap it checks, then raises."""

    def __getitem__(self, name):
        self.last = name
        return super().__getitem__(name)


@pytest.mark.parametrize("name", sorted(TRIPS))
def test_each_cap_trips_with_one_message_shape(monkeypatch, name):
    table = _Lookups(CAPS)
    monkeypatch.setattr(errors, "CAPS", table)
    with pytest.raises(CapExceeded) as info:
        TRIPS[name](monkeypatch)
    assert table.last == name
    assert re.fullmatch(rf"\S.* \d+ above cap {table[name].limit}", str(info.value))


def _cap_calls(path: Path) -> list[tuple[str | None, bool]]:
    """Each CapExceeded call in a module: the top-level definition it is in,
    and whether it re-raises a stored error's arguments."""
    calls = []
    for top in ast.parse(path.read_text()).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and "CapExceeded" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)
            ):
                stored = len(node.args) == 1 and isinstance(node.args[0], ast.Starred)
                calls.append((getattr(top, "name", None), stored))
    return calls


def test_only_the_table_writes_a_cap_message():
    found = {path.name: _cap_calls(path) for path in sorted(SRC.glob("*.py"))}
    assert found.pop("errors.py") == [("require_cap", False)]
    # _alpha_once re-raises the error it stored for a later k
    assert found.pop("trotter.py") == [("_alpha_once", True)]
    assert not any(found.values()), found


def _readme_limit(text: str) -> int:
    """A README limit: ``N``, ``2^k`` or ``N MiB``."""
    if text.endswith(" MiB"):
        return int(text[:-4]) << 20
    base, _, power = text.partition("^")
    return int(base) ** int(power or 1)


def test_readme_cap_table_matches_the_caps():
    readme = (SRC.parents[1] / "README.md").read_text()
    section = readme.split("| cap | limit | unit | what it guards |\n", 1)[1].split("\n\n", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| ([^|]+) \| ([^|]+) \|", section, flags=re.M)
    table = [(name, _readme_limit(limit.strip()), unit.strip()) for name, limit, unit in rows]
    assert sorted(table) == sorted((c.name, c.limit, c.unit) for c in CAPS.values())
