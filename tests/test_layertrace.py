"""The benchmark's trace targets stay where its tracer replaces them.

``benchmarks/layertrace.py`` wraps each entry of ``TARGETS`` by reading it
from its owner's own ``__dict__``, so a traced entry point that is renamed,
moved or inherited would fail only the traced benchmark run.  Loaded by
path, unchanged.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parents[1] / "benchmarks" / "layertrace.py"


def test_every_trace_target_is_its_owners_own_attribute():
    spec = importlib.util.spec_from_file_location("layertrace_under_test", LAYERTRACE)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    assert layertrace.TARGETS
    for module_name, path, _, _ in layertrace.TARGETS:
        owner = importlib.import_module(module_name)
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        assert callable(vars(owner).get(attr)), f"{module_name}.{path}"


def test_long_sim_reaches_the_traced_time_ordered_propagator(tmp_path, monkeypatch):
    # the tracer's slice counter reads ``steps`` from each call of the
    # module attribute; a sweep must still call it there, steps third
    import inspect

    from pathint import cli, linalg

    spec = importlib.util.spec_from_file_location("layertrace_under_test", LAYERTRACE)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    original = linalg.time_ordered_propagator
    signature = inspect.signature(original)
    slices = []

    def counting(*args, **kwargs):
        steps = signature.bind(*args, **kwargs).arguments["steps"]
        assert layertrace._slices(args, kwargs, None) == steps
        slices.append(steps)
        return original(*args, **kwargs)

    monkeypatch.setattr(linalg, "time_ordered_propagator", counting)
    assert cli.main([
        "long-sim", "--system", "sweep:sine:1.0,0.3", "--T-sweep", "20,40",
        "--r", "64", "--out", str(tmp_path / "l.csv"),
    ]) == 0
    assert slices[:2] == [64, 128] and len(slices) > 4


def test_counter_hooks_read_real_encodings():
    # the hooks read r and d of a long-time encoding and size of an
    # amplified step; a renamed attribute fails here, not in a traced walk
    from pathint import lcu
    from pathint import long_time as lt

    spec = importlib.util.spec_from_file_location("layertrace_under_test", LAYERTRACE)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    enc = lt.PropagatorEncoding(lt.two_level_sweep(1.0, 0.2, shape="sine", grid=8), 40.0, 8, 4)
    assert layertrace._select_cells((enc,), {}, None) == len(enc.cells.perm)
    step = lcu.AmplifiedStep(enc)
    assert layertrace._register_bytes((step,), {}, None) == 16 * step.size
