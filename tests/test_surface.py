"""Every public top-level function and class of ``pathint``, and every
public method and property of a public class, has a user.

A user is a code reference, a name or an attribute, anywhere in
``src/pathint``, or a mention in the benchmark harness.  The names below
have neither on purpose, each for the reason given: an independent
reference the tests check production against, a paper identity, or an
entry point that open ROADMAP work will call.  A helper that only its own
test reaches is not kept, and a listed name that is gone or has gained a
caller is a stale entry.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

UNCALLED = {
    "lattice.step_global_phase":
        "paper identity: the circuit step equals the split step up to this phase (criterion 10)",
    "lattice.lagrangian_propagator":
        "the production walk on every basis state at once, as a dense matrix (criterion 10)",
    "lattice.brute_force_propagator":
        "independent reference: the lattice path sum by enumerating every path",
    "long_time.jump_term":
        "independent reference: p-transition path sums by nested quadrature",
    "short_time.path_sum_propagator":
        "independent reference: the literal sum over eigenstate paths",
    "short_time.transition_product":
        "independent reference: the transition operators composed in matrix form",
    "lattice.feasible_error_check":
        "the paper's lattice error check; a lagrangian-sim error column will call it",
    "short_time.synthesis_defect_bound":
        "the derived short-time defect; the amplification bounds will be derived from it",
    "short_time.amplified_defect_bound":
        "short-time amplification bound, to be derived and then called",
    "short_time.success_weight_bound":
        "short-time success-weight bound, to be derived and then called",
    "long_time.SmoothEigensystem.diagonal_rate_defect":
        "criterion 09's gauge check",
}


METHODS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = (*METHODS, ast.ClassDef)


def public_definitions() -> tuple[dict[str, str], set[str]]:
    """``module.name`` of each public top-level def and class and
    ``module.Class.name`` of each public method or property of such a class,
    and every name or attribute any module of the package reads."""
    defined, used = {}, set()
    for path in sorted((ROOT / "src" / "pathint").glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, DEFINITIONS) and not node.name.startswith("_"):
                defined[f"{path.stem}.{node.name}"] = node.name
                for item in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(item, METHODS) and not item.name.startswith("_"):
                        defined[f"{path.stem}.{node.name}.{item.name}"] = item.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return defined, used


def test_every_public_definition_has_a_user_or_a_reason():
    defined, used = public_definitions()
    harness = "\n".join(path.read_text() for path in (ROOT / "benchmarks").glob("*.py"))
    uncalled = {
        key for key, name in defined.items()
        if name not in used and not re.search(rf"\b{name}\b", harness)
    }
    assert sorted(uncalled - UNCALLED.keys()) == [], "no user: delete it, or list it with a reason"
    assert sorted(UNCALLED.keys() - defined.keys()) == [], "listed, but no longer defined"
    assert sorted(UNCALLED.keys() - uncalled) == [], "listed, but it has a user now"
