"""pathint benchmark: one closed-loop client over a seeded operation list.

    python3 benchmarks/run.py --workload short-small --seed 1 --seconds 12 --trace 0

Each run builds the workload's operations from ``--seed``, runs one
warm-up pass, checks the warm-up outputs against computations made apart
from pathint, then makes whole passes over the list until ``--seconds``
have elapsed, each pass required to reproduce the warm-up outputs byte for
byte.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  See README.md in this directory.
"""

import os
import sys

# One BLAS/OpenMP thread, fixed before numpy is first imported.
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"
# One CPU as well: left free to move between cores, the process measured
# about twice the run-to-run spread on a 2-core machine.  Set-up probes
# inherit the pin.
os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402  (imports no pathint code at module level)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"
# Fresh processes that repeat the set-up, besides the measuring process
# itself; setup_s is the median of all of them.
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 120


def process_age() -> float:
    """Seconds since this interpreter was started (10 ms clock-tick grain)."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    head = ROOT / ".git" / "HEAD"
    sha = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        sha = ref
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            sha = target.read_text().strip() if target.is_file() else ref[5:]
    return {
        "git_sha": sha,
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS[:2]},
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)),
    }


class Run:
    """Outcome of passes over the operation list."""

    def __init__(self) -> None:
        self.durations: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.passes = 0
        self.wall = 0.0
        self.problems: list[str] = []
        self.errors: list[str] = []

    @property
    def ops_per_s(self) -> float:
        return (self.attempted - self.failed) / self.wall


def run_pass(ops, run: Run, expected: list[bytes | None] | None, tracer=None) -> list:
    """One pass over ops; returns (value, output bytes) per op, None where it raised."""
    results = []
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        run.attempted += 1
        start = time.perf_counter()
        try:
            value = op.call()
        except Exception as exc:  # counted as a failed operation, not fatal
            run.failed += 1
            results.append(None)
            run.errors.append(f"{op.name}: raised {type(exc).__name__}: {exc}")
            continue
        run.durations.append(time.perf_counter() - start)
        output = op.output(value)
        if expected is not None and output != expected[index]:
            run.problems.append(f"{op.name}: output differs from the warm-up pass")
        results.append((value, output))
    run.passes += 1
    return results


def timed_loop(ops, seconds: float, expected: list, tracer=None) -> Run:
    """Whole passes until at least `seconds` of wall time have elapsed."""
    run = Run()
    start = time.perf_counter()
    while True:
        run_pass(ops, run, expected, tracer)
        run.wall = time.perf_counter() - start
        if run.wall >= seconds:
            return run


def setup_probe(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def measure(args: argparse.Namespace, out_dir: Path) -> int:
    import pathint  # noqa: F401  (import time is part of set-up)

    ops = workloads.build(args.workload, args.seed, out_dir)
    warm = Run()
    warm_results = run_pass(ops, warm, None)
    setup_s = process_age()
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    problems: list[str] = []
    for op, result in zip(ops, warm_results):
        if result is not None:
            problems += [f"{op.name}: {p}" for p in op.check(result[0])]
    expected = [None if r is None else r[1] for r in warm_results]
    del warm_results

    if args.trace:
        import layertrace

        plain = timed_loop(ops, args.seconds / 2, expected)
        tracer = layertrace.Tracer()
        tracer.install()
        try:
            traced = timed_loop(ops, args.seconds / 2, expected, tracer)
        finally:
            tracer.uninstall()
        tracer.write(OUT_ROOT / "traces" / f"{args.workload}-seed{args.seed}.jsonl")
        metrics = tracer.layer_metrics(traced.attempted)
        metrics["tracing.overhead_ops_per_s"] = {
            "value": traced.ops_per_s - plain.ops_per_s, "unit": "1/s",
        }
        runs = [plain, traced]
    else:
        run = timed_loop(ops, args.seconds, expected)
        samples = [setup_s] + [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        metrics = {
            "ops_per_s": {"value": run.ops_per_s, "unit": "1/s"},
            "op_s.p50": {"value": statistics.median(run.durations), "unit": "s"},
            "setup_s": {"value": statistics.median(samples), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
        if len(run.durations) >= 100:
            tail = statistics.quantiles(run.durations, n=10)[-1]
            print(f"# op_s.p90 {tail:.6g} s over {len(run.durations)} operations")
        print(f"# setup samples {[round(s, 4) for s in samples]} s")
        runs = [run]

    for run in runs:
        problems += run.problems
        print(
            f"# {args.workload} seed={args.seed}: {run.passes} passes, "
            f"{run.attempted} ops, {run.failed} failed, {run.wall:.3f} s"
        )
    for problem in problems[:20]:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    for error in sorted({e for r in [warm] + runs for e in r.errors}):
        print(f"OPERATION FAILED {error}", file=sys.stderr)
    print("# env " + json.dumps(environment(), sort_keys=True))
    for name, metric in metrics.items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(r.failed for r in runs),
        "metrics": metrics,
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # a terminated run still removes its outputs and stops its probe
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "pathint" / "__init__.py").is_file():
        print(f"pathint sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    OUT_ROOT.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_ROOT))
    try:
        return measure(args, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
