# Shared exception types, which cli.main maps to exit codes 2, 3, 4, and the cap table.

from __future__ import annotations

from dataclasses import dataclass


class SpecError(ValueError):
    """Malformed experiment spec, bad flag value, or rejected input file."""


class CapExceeded(RuntimeError):
    """A request walked past a documented desk-scale size cap."""


class InvariantViolation(RuntimeError):
    """An internal consistency check failed on otherwise valid input."""


@dataclass(frozen=True)
class Cap:
    name: str
    limit: int
    unit: str


# Every desk-scale size limit, each checked by require_cap before the work or
# allocation it guards.  README's cap table says what each guards, and why so.
CAPS = {cap.name: cap for cap in (
    Cap("dense_qubits", 10, "qubits"),
    Cap("path_sum", 1 << 20, "paths"),
    Cap("walk_register", 256 << 20, "bytes"),
    Cap("schedule_order", 3, "order index k"),
    Cap("schedule_factors", 1 << 20, "factors"),
    Cap("alpha_work", 1 << 17, "nested commutators"),
    Cap("panel_entries", 1 << 20, "matrix entries"),
    Cap("midpoint_slices", 1 << 22, "slices"),
    Cap("brute_force_paths", 1 << 16, "paths"),
    Cap("step_work", 1 << 16, "steps x grid points"),
    Cap("gauss_terms", 1 << 20, "terms"),
    Cap("gauss_rows", 1 << 16, "rows"),
    Cap("trajectory_steps", 1 << 16, "steps"),
)}


def require_cap(name: str, value: int, what: str) -> int:
    """``value``, or CapExceeded when it is above the limit of cap ``name``;
    a value from 2^64 up is shown by its bit length, as str() may refuse it."""
    limit = CAPS[name].limit
    if value > limit:
        shown = value if value < 1 << 64 else f"2^{int(value).bit_length() - 1}+"
        raise CapExceeded(f"{what} {shown} above cap {limit}")
    return value
