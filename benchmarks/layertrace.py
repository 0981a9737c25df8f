"""Span tracing around pathint's public entry points, from outside.

pathint itself carries no instrumentation, so the traced run wraps the
entry points of each layer.  A function is replaced under every name a
pathint module holds for it (``cli.simulate`` as well as
``short_time.simulate``), so calls reach the wrapper whichever module makes
them; a method is replaced on its class.  Each call records a span
``[name, start, end, parent, op]`` in memory; the spans are written out
once, after the traced loop, and the per-layer metrics are derived from
them.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

# A hook sees (tracer, args, kwargs, result) after a traced call.
Hook = Callable[["Tracer", tuple, dict, Any], None]


def _add(key: str, amount: Callable[[tuple, dict, Any], float]) -> Hook:
    def hook(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
        tracer.counts[key] += amount(args, kwargs, result)

    return hook


def _peak(key: str, amount: Callable[[tuple, dict, Any], float]) -> Hook:
    def hook(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
        tracer.peaks[key] = max(tracer.peaks[key], amount(args, kwargs, result))

    return hook


def _slices(args: tuple, kwargs: dict, result: Any) -> float:
    return kwargs["steps"] if "steps" in kwargs else args[2]


def _select_cells(args: tuple, kwargs: dict, result: Any) -> float:
    enc = args[0]
    return (enc.r + 1) * 4 * enc.d * enc.d


def _register_bytes(args: tuple, kwargs: dict, result: Any) -> float:
    return 16 * args[0].size  # complex128 amplitudes of the flagged register


def _csv_bytes(args: tuple, kwargs: dict, result: Any) -> float:
    return Path(args[0].output).stat().st_size


# (module, attribute path, span name, counter hook or None)
TARGETS: tuple[tuple[str, str, str, Hook | None], ...] = (
    ("pathint.cli", "run", "cli.run", _add("cli.csv_bytes", _csv_bytes)),
    ("pathint.short_time", "simulate", "short_time.simulate", None),
    ("pathint.short_time", "BlockEncoding.__init__", "short_time.block_encoding_init", None),
    ("pathint.short_time", "BlockEncoding.prep", "short_time.prep", None),
    ("pathint.short_time", "BlockEncoding.apply_select", "short_time.apply_select", None),
    ("pathint.short_time", "AmplifiedStep._amplified_iterate", "short_time.amplified_iterate",
     _peak("short_time.register_bytes", _register_bytes)),
    ("pathint.short_time", "AmplifiedStep._amplified_svd", "short_time.amplified_svd", None),
    ("pathint.decomp", "ScheduleOverlaps.__init__", "decomp.schedule_overlaps", None),
    ("pathint.trotter", "error_bound", "trotter.error_bound", None),
    ("pathint.long_time", "adiabatic_bounds", "long_time.adiabatic_bounds", None),
    ("pathint.long_time", "smooth_eigensystem", "long_time.smooth_eigensystem", None),
    ("pathint.long_time", "truncated_propagator", "long_time.truncated_propagator", None),
    ("pathint.long_time", "PropagatorEncoding.__init__", "long_time.encoding_init", None),
    ("pathint.long_time", "PropagatorEncoding.block", "long_time.encoding_block", None),
    ("pathint.long_time", "PropagatorEncoding.apply_select", "long_time.encoding_select",
     _add("long_time.select_cells", _select_cells)),
    ("pathint.linalg", "converged_propagator", "linalg.converged_propagator", None),
    ("pathint.linalg", "time_ordered_propagator", "linalg.time_ordered_propagator",
     _add("linalg.time_ordered_propagator.slices", _slices)),
    ("pathint.linalg", "spectral_norm", "linalg.spectral_norm", None),
    ("pathint.linalg", "exp_unitary", "linalg.exp_unitary", None),
    ("pathint.lattice", "lagrangian_step", "lattice.lagrangian_step", None),
    ("pathint.lattice", "Potential.grid_values", "lattice.grid_values", None),
    ("pathint.lattice", "split_step_reference", "lattice.split_step_reference", None),
)

# Reported per-layer metrics: (name, unit, kind, source).  Kinds: "s" is
# inclusive span time per operation, "calls" spans per operation, "self_s"
# span time not covered by traced children per operation, "count" a
# counter per operation, "peak" the largest value a counter saw.
PER_LAYER: tuple[tuple[str, str, str, str], ...] = (
    ("short_time.amplified_iterate.s", "s", "s", "short_time.amplified_iterate"),
    ("short_time.amplified_iterate.calls", "count", "calls", "short_time.amplified_iterate"),
    ("short_time.prep.s", "s", "s", "short_time.prep"),
    ("short_time.prep.calls", "count", "calls", "short_time.prep"),
    ("short_time.apply_select.s", "s", "s", "short_time.apply_select"),
    ("short_time.apply_select.calls", "count", "calls", "short_time.apply_select"),
    ("short_time.register_bytes", "bytes", "peak", "short_time.register_bytes"),
    ("short_time.amplified_svd.s", "s", "s", "short_time.amplified_svd"),
    ("short_time.amplified_svd.calls", "count", "calls", "short_time.amplified_svd"),
    ("short_time.block_encoding_init.s", "s", "s", "short_time.block_encoding_init"),
    ("short_time.block_encoding_init.calls", "count", "calls", "short_time.block_encoding_init"),
    ("decomp.schedule_overlaps.s", "s", "s", "decomp.schedule_overlaps"),
    ("decomp.schedule_overlaps.calls", "count", "calls", "decomp.schedule_overlaps"),
    ("trotter.error_bound.s", "s", "s", "trotter.error_bound"),
    ("short_time.simulate.s", "s", "s", "short_time.simulate"),
    ("long_time.adiabatic_bounds.s", "s", "s", "long_time.adiabatic_bounds"),
    ("long_time.adiabatic_bounds.calls", "count", "calls", "long_time.adiabatic_bounds"),
    ("long_time.smooth_eigensystem.s", "s", "s", "long_time.smooth_eigensystem"),
    ("long_time.smooth_eigensystem.calls", "count", "calls", "long_time.smooth_eigensystem"),
    ("long_time.truncated_propagator.s", "s", "s", "long_time.truncated_propagator"),
    ("linalg.converged_propagator.s", "s", "s", "linalg.converged_propagator"),
    ("linalg.time_ordered_propagator.slices", "count", "count", "linalg.time_ordered_propagator.slices"),
    ("linalg.spectral_norm.calls", "count", "calls", "linalg.spectral_norm"),
    ("long_time.encoding_init.s", "s", "s", "long_time.encoding_init"),
    ("long_time.encoding_block.s", "s", "s", "long_time.encoding_block"),
    ("long_time.select_cells", "count", "count", "long_time.select_cells"),
    ("lattice.lagrangian_step.s", "s", "s", "lattice.lagrangian_step"),
    ("lattice.lagrangian_step.calls", "count", "calls", "lattice.lagrangian_step"),
    ("lattice.grid_values.s", "s", "s", "lattice.grid_values"),
    ("lattice.grid_values.calls", "count", "calls", "lattice.grid_values"),
    ("lattice.split_step_reference.s", "s", "s", "lattice.split_step_reference"),
    ("linalg.exp_unitary.s", "s", "s", "linalg.exp_unitary"),
    ("linalg.exp_unitary.calls", "count", "calls", "linalg.exp_unitary"),
    ("cli.run.self_s", "s", "self_s", "cli.run"),
    ("cli.csv_bytes", "bytes", "count", "cli.csv_bytes"),
)


class Tracer:
    """In-memory span recorder; ``op`` is set by the caller per operation."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []

    def _wrap(self, name: str, fn: Callable, hook: Hook | None) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "pathint"]
        for module_name, path, name, hook in TARGETS:
            owner: Any = importlib.import_module(module_name)
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = owner.__dict__[attr]
            wrapped = self._wrap(name, original, hook)
            if classes:
                self._set(owner, attr, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def layer_metrics(self, ops: int) -> dict[str, dict[str, Any]]:
        """Per-operation layer figures derived from the recorded spans."""
        inclusive: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] += 1
            own[name] += end - start - covered[index]
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:  # outermost span of this name: no double count
                inclusive[name] += end - start
        source = {
            "s": inclusive, "self_s": own, "calls": calls,
            "count": self.counts, "peak": self.peaks,
        }
        out = {}
        for metric, unit, kind, key in PER_LAYER:
            value = float(source[kind].get(key, 0))
            if kind != "peak":
                value /= ops
            out[metric] = {"value": value, "unit": unit}
        return out
