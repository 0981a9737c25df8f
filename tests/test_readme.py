"""The README's command-line examples, run as written.

The commands are read from the README's "Command line" block and the
decomposition document from its JSON block, so an example that stops
running, or a README edit that breaks one, fails here.  Only exit codes,
headers and row counts are checked: the CSV values are pinned elsewhere.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from pathint import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()

# kind -> (header, data rows) of the README example
EXPECTED = {
    "trotter-error": ("k,r,bound,measured", 3),
    "short-sim": (
        "k,r,B,d,M,measured_error,bound,"
        "queries_O_ind,queries_O_IM,queries_O_IP,queries_O_EP",
        4,
    ),
    "long-sim": ("T,r,measured_error,truncation_bound", 3),
    "lagrangian-sim": ("step,norm,fidelity,position_mean,momentum_mean", 13),
    "gauss-check": (
        "index,a,b,c,lhs_real,lhs_imag,rhs_real,rhs_imag,abs_diff,tolerance", 200,
    ),
}


def readme_examples() -> list[list[str]]:
    """Each ``pathint ...`` command of the "Command line" block, as argv."""
    section = README.split("## Command line", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    commands = [shlex.split(cmd) for cmd in block.replace("\\\n", " ").splitlines()]
    assert all(cmd[0] == "pathint" for cmd in commands)
    return [cmd[1:] for cmd in commands]


def readme_decomposition() -> str:
    return re.search(r"```json\n(.*?)```", README, re.S).group(1)


def test_readme_lists_one_example_per_kind():
    assert [argv[0] for argv in readme_examples()] == list(EXPECTED)


@pytest.mark.parametrize("argv", readme_examples(), ids=lambda argv: argv[0])
def test_readme_example_runs(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "decomp.json").write_text(readme_decomposition())
    assert cli.main(argv) == 0
    lines = (tmp_path / argv[argv.index("--out") + 1]).read_text().splitlines()
    header, rows = EXPECTED[argv[0]]
    assert lines[0] == header
    assert len(lines) - 1 == rows
