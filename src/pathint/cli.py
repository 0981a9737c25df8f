"""Experiment runner tying the simulation modules to reproducible artifacts.

Each experiment is described by a small document: a kind, kind-specific
parameters, a 64-bit seed, and an output path.  Running it writes one CSV
whose bytes depend only on the document, plus a sidecar JSON manifest with
the document hash, library version, and wall-clock time.  The manifest is
the only artifact allowed to differ between identical runs.

Exit codes: 0 success, 2 bad experiment document, 3 a work cap tripped,
4 an internal invariant tripped.  Failures print one machine-parsable JSON
line to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import __version__
from .decomp import Decomposition, decomposition_from_json, require_number
from .errors import CapExceeded, InvariantViolation, SpecError
from .lattice import (
    LatticeConfig,
    Potential,
    constant_potential,
    gauss_sum_check,
    gaussian_packet,
    harmonic_potential,
    lagrangian_steps,
    require_unit_norms,
    split_steps,
    square_well_potential,
    zero_potential,
)
from .long_time import (
    TimeDependentHamiltonian,
    interaction_frame,
    jump_bounds,
    longtime_error,
    two_level_sweep,
)
from .short_time import simulate
from .trotter import error_bound, measured_error, schedule

_SPEC_FIELDS = {"kind", "params", "seed", "output"}

_QUERY_COLUMNS = (
    ("queries_O_ind", "index"),
    ("queries_O_IM", "magnitude"),
    ("queries_O_IP", "phase"),
    ("queries_O_EP", "eigenphase"),
)


@dataclass(frozen=True)
class ExperimentSpec:
    """A fully described experiment: what to run, with what seed, written where."""

    kind: str
    params: dict[str, Any]
    seed: int
    output: str


def spec_from_dict(doc: object) -> ExperimentSpec:
    if not isinstance(doc, dict):
        raise SpecError("experiment document must be a JSON object")
    unknown = set(doc) - _SPEC_FIELDS
    if unknown:
        raise SpecError(f"unknown experiment fields: {sorted(unknown)}")
    missing = _SPEC_FIELDS - set(doc)
    if missing:
        raise SpecError(f"missing experiment fields: {sorted(missing)}")
    kind = doc["kind"]
    if kind not in KINDS:
        raise SpecError(f"unknown experiment kind {kind!r}")
    seed = doc["seed"]
    if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed < 2**64:
        raise SpecError("seed must be an integer in [0, 2^64)")
    output = doc["output"]
    if not isinstance(output, str) or not output:
        raise SpecError("output must be a non-empty path string")
    params = doc["params"]
    if not isinstance(params, dict):
        raise SpecError("params must be a JSON object")
    _validate_params(kind, params)
    return ExperimentSpec(kind=kind, params=params, seed=seed, output=output)


def spec_to_dict(spec: ExperimentSpec) -> dict[str, Any]:
    return asdict(spec)


def spec_hash(spec: ExperimentSpec) -> str:
    canon = json.dumps(spec_to_dict(spec), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _validate_params(kind: str, params: dict[str, Any]) -> None:
    fields = _KIND_TABLE[kind].params
    unknown = set(params) - {p.name for p in fields}
    if unknown:
        raise SpecError(f"unknown params for {kind}: {sorted(unknown)}")
    missing = {p.name for p in fields if not p.optional} - set(params)
    if missing:
        raise SpecError(f"missing params for {kind}: {sorted(missing)}")


def _require_int(params: dict[str, Any], name: str, minimum: int) -> int:
    value = params[name]
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise SpecError(f"param {name!r} must be an integer >= {minimum}")
    return value


def _require_number(params: dict[str, Any], name: str) -> float:
    return require_number(params[name], f"param {name!r}")


def _fmt(value: Any) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.17g" % float(value)
    return str(value)


# ---------------------------------------------------------------------------
# parameter document helpers shared by flags and spec files


def _json_or_path(value: Any, what: str) -> dict[str, Any]:
    """Accept an inline JSON object, a JSON string, or a path to a JSON file."""
    if isinstance(value, dict):
        return value
    if isinstance(value, str):
        text = value
        if not value.lstrip().startswith("{"):
            path = Path(value)
            if not path.is_file():
                raise SpecError(f"{what} file not found: {value}")
            text = path.read_text()
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"{what} is not valid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise SpecError(f"{what} must be a JSON object")
        return doc
    raise SpecError(f"{what} must be a JSON object or a path")


def _decomposition_from_param(value: Any) -> Decomposition:
    return decomposition_from_json(_json_or_path(value, "decomposition"))


def _system_builder(value: Any) -> Callable[[float], TimeDependentHamiltonian]:
    """Turn a system description into a total-time -> Hamiltonian builder.

    Builtin string form: sweep:<linear|sine>:<a>,<b>, read as the sweep
    document it names.  JSON form: a document with family 'sweep' or
    'interaction-frame'; the latter rebuilds per total time because its
    drift scales with it.
    """
    if isinstance(value, str) and value.startswith("sweep:"):
        pieces = value.split(":")
        if len(pieces) != 3 or "," not in pieces[2]:
            raise SpecError("builtin system must look like sweep:<shape>:<a>,<b>")
        try:
            a, b = (float(v) for v in pieces[2].split(","))
        except ValueError:
            raise SpecError("builtin system coefficients must be numbers") from None
        doc = {"family": "sweep", "shape": pieces[1], "a": a, "b": b}
    else:
        doc = _json_or_path(value, "system")
    family = doc.get("family")
    if family == "sweep":
        allowed = {"family", "shape", "a", "b", "grid"}
        unknown = set(doc) - allowed
        if unknown:
            raise SpecError(f"unknown sweep system fields: {sorted(unknown)}")
        if not {"shape", "a", "b"} <= set(doc):
            raise SpecError("sweep system needs shape, a, b")
        ham = two_level_sweep(
            _require_number(doc, "a"), _require_number(doc, "b"),
            shape=doc["shape"], grid=_require_int(doc, "grid", 1) if "grid" in doc else 256,
        )
        return lambda total_time: ham
    if family == "interaction-frame":
        allowed = {"family", "generator", "coupling", "grid"}
        unknown = set(doc) - allowed
        if unknown:
            raise SpecError(f"unknown interaction-frame fields: {sorted(unknown)}")
        if not {"generator", "coupling"} <= set(doc):
            raise SpecError("interaction-frame system needs generator and coupling")
        gen = decomposition_from_json(_json_or_path(doc["generator"], "generator"))
        coup = decomposition_from_json(_json_or_path(doc["coupling"], "coupling"))
        grid = _require_int(doc, "grid", 1) if "grid" in doc else 64
        return lambda total_time: interaction_frame(
            gen.total(), coup.total(), total_time, grid=grid
        )
    raise SpecError("system family must be 'sweep' or 'interaction-frame'")


def _potential_from_param(value: Any, cfg: LatticeConfig) -> Potential:
    """Parse zero | constant:<c> | harmonic:<omega>,<center> | well:<depth>,<left>,<right>.

    The JSON form uses {"name": ..., ...} with the same parameters.
    """
    if isinstance(value, str) and not value.lstrip().startswith("{"):
        name, _, rest = value.partition(":")
        args = []
        if rest:
            try:
                args = [float(v) for v in rest.split(",")]
            except ValueError:
                raise SpecError("potential parameters must be numbers") from None
        doc: dict[str, Any] = {"name": name}
        if name == "constant" and len(args) == 1:
            doc["level"] = args[0]
        elif name == "harmonic" and len(args) == 2:
            doc["omega"], doc["center"] = args
        elif name == "well" and len(args) == 3:
            doc["depth"], doc["left"], doc["right"] = args
        elif name != "zero" or args:
            raise SpecError(f"malformed potential {value!r}")
    else:
        doc = _json_or_path(value, "potential")
    name = doc.get("name")
    fields = set(doc) - {"name"}
    if name == "zero" and not fields:
        return zero_potential()
    if name == "constant" and fields == {"level"}:
        return constant_potential(_require_number(doc, "level"))
    if name == "harmonic" and fields == {"omega", "center"}:
        return harmonic_potential(
            cfg.mass, _require_number(doc, "omega"), _require_number(doc, "center"), cfg.x_max
        )
    if name == "well" and fields == {"depth", "left", "right"}:
        return square_well_potential(
            _require_number(doc, "depth"), _require_number(doc, "left"),
            _require_number(doc, "right"),
        )
    raise SpecError(f"unrecognized potential document: {doc}")


def _initial_state(value: Any, cfg: LatticeConfig) -> np.ndarray:
    if not isinstance(value, str):
        raise SpecError("initial state must be a string")
    name, _, rest = value.partition(":")
    if name == "gaussian":
        try:
            x0, sigma, k0 = (float(v) for v in rest.split(","))
        except ValueError:
            raise SpecError("gaussian initial state needs x0,sigma,k0") from None
        return gaussian_packet(cfg, x0, sigma, k0)
    if name == "basis":
        try:
            q = int(rest)
        except ValueError:
            raise SpecError("basis initial state needs a grid index") from None
        if not 0 <= q < cfg.dim:
            raise SpecError("basis index out of range")
        state = np.zeros(cfg.dim, dtype=complex)
        state[q] = 1.0
        return state
    raise SpecError("initial state must be gaussian:x0,sigma,k0 or basis:q")


# ---------------------------------------------------------------------------
# runners


def _run_trotter_error(params: dict[str, Any], seed: int) -> tuple[list[str], list[list[str]]]:
    decomp = _decomposition_from_param(params["decomp"])
    k = _require_int(params, "k", 0)
    t = _require_number(params, "t")
    r_list = params["r_list"]
    if not isinstance(r_list, list) or not r_list:
        raise SpecError("param 'r_list' must be a non-empty list of integers")
    rows = []
    for r in r_list:
        if isinstance(r, bool) or not isinstance(r, int) or r < 1:
            raise SpecError("r_list entries must be positive integers")
        sched = schedule(decomp.term_count, k, r, t)
        bound = error_bound(decomp, k, t, r)
        meas = measured_error(decomp, sched)
        rows.append([_fmt(k), _fmt(r), _fmt(bound), _fmt(meas)])
    return ["k", "r", "bound", "measured"], rows


def _short_point(params: dict[str, Any]) -> dict[str, Any]:
    return {
        "k": _require_int(params, "k", 0),
        "r": _require_int(params, "r", 1),
        "t": _require_number(params, "t"),
        "bits": _require_int(params, "bits", 1),
    }


def _run_short_sim(params: dict[str, Any], seed: int) -> tuple[list[str], list[list[str]]]:
    decomp = _decomposition_from_param(params["decomp"])
    points = [_short_point(params)]
    sweep = params.get("sweep")
    if sweep is not None:
        if not isinstance(sweep, dict) or set(sweep) != {"param", "values"}:
            raise SpecError("sweep must be {'param': name, 'values': list}")
        name = sweep["param"]
        if name not in _SHORT_SWEEPABLE:
            raise SpecError(f"sweep param must be one of {sorted(_SHORT_SWEEPABLE)}")
        values = sweep["values"]
        if not isinstance(values, list) or not values:
            raise SpecError("sweep values must be a non-empty list")
        points = [_short_point(dict(params, **{name: v})) for v in values]
    header = ["k", "r", "B", "d", "M", "measured_error", "bound"]
    header += [col for col, _ in _QUERY_COLUMNS]
    rows = []
    for pt in points:
        res = simulate(decomp, pt["k"], pt["r"], pt["t"], pt["bits"])
        bound = 4.0 * (res.rounding_bound + res.trotter_bound)
        row = [
            _fmt(res.k), _fmt(res.r), _fmt(res.bits), _fmt(res.d), _fmt(res.M),
            _fmt(res.measured_error), _fmt(bound),
        ]
        row += [_fmt(res.queries.get(key, 0)) for _, key in _QUERY_COLUMNS]
        rows.append(row)
    return header, rows


def _run_long_sim(params: dict[str, Any], seed: int) -> tuple[list[str], list[list[str]]]:
    builder = _system_builder(params["system"])
    sweep = params["T_sweep"]
    if not isinstance(sweep, list) or not sweep:
        raise SpecError("param 'T_sweep' must be a non-empty list of times")
    r = params.get("r")
    if r is not None and (not isinstance(r, int) or r < 4):
        raise SpecError("param 'r' must be an integer >= 4")
    rows = []
    for raw in sweep:
        if isinstance(raw, bool) or not isinstance(raw, (int, float)) or raw <= 0:
            raise SpecError("T_sweep entries must be positive numbers")
        total_time = float(raw)
        ham = builder(total_time)
        bounds = ham.bounds
        # first omitted orders: the odd three-transition term, then the
        # full next even/odd pair
        _, odd1 = jump_bounds(bounds, total_time, 1)
        even2, odd2 = jump_bounds(bounds, total_time, 2)
        meas = longtime_error(ham, total_time, r)
        r_used = r if r is not None else ham.grid
        rows.append([
            _fmt(total_time), _fmt(r_used), _fmt(meas), _fmt(odd1 + even2 + odd2),
        ])
    return ["T", "r", "measured_error", "truncation_bound"], rows


# A trajectory's columns are computed in blocks of
# max(1, _BLOCK_AMPLITUDES // 2**n) rows, a few stacked numpy calls per
# block.  Each stacked form does the arithmetic of its one-row form bit for
# bit: norms as np.linalg.norm forms them, one (1, n) @ (n, 1) product per
# row for the overlaps and the means, and builtin abs on each overlap.
# (k, n) @ (n,), einsum and np.abs on the overlaps each change last bits.
_BLOCK_AMPLITUDES = 1 << 13


def _run_lagrangian_sim(params: dict[str, Any], seed: int) -> tuple[list[str], list[list[str]]]:
    cfg = LatticeConfig(
        n=_require_int(params, "n", 1),
        x_max=_require_number(params, "xmax"),
        mass=_require_number(params, "mass"),
        r=_require_int(params, "r", 1),
    )
    potential = _potential_from_param(params["potential"], cfg)
    initial = _initial_state(params["initial"], cfg)
    values = potential.grid_values(cfg)
    walk = itertools.chain([(initial, initial)], zip(
        lagrangian_steps(cfg, values, initial, cfg.r), split_steps(cfg, values, initial, cfg.r),
    ))
    positions = cfg.positions()[:, None]
    momenta = cfg.momenta()[:, None]
    size = max(1, _BLOCK_AMPLITUDES // cfg.dim)
    states = np.empty((size, cfg.dim), dtype=complex)
    references = np.empty_like(states)
    header = ["step", "norm", "fidelity", "position_mean", "momentum_mean"]
    rows = []
    for start in range(0, cfg.r + 1, size):
        count = min(size, cfg.r + 1 - start)
        block, refs = states[:count], references[:count]
        for row in range(count):
            block[row], refs[row] = next(walk)
        re, im = block.real, block.imag
        norms = np.sqrt(re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None])
        # every state but the last is the input of a step
        require_unit_norms(norms[: cfg.r - start], "lagrangian_step")
        overlaps = refs.conj()[:, None, :] @ block[:, :, None]
        weights = np.abs(block)[:, None, :] ** 2
        modes = np.abs(np.fft.fft(block, axis=-1, norm="ortho"))[:, None, :] ** 2
        columns = zip(
            norms.ravel().tolist(), overlaps.ravel(),
            (weights @ positions).ravel().tolist(), (modes @ momenta).ravel().tolist(),
        )
        for step, (norm, overlap, x, p) in enumerate(columns, start):
            rows.append([
                str(step), "%.17g" % norm, "%.17g" % abs(overlap), "%.17g" % x, "%.17g" % p,
            ])
    return header, rows


def _run_gauss_check(params: dict[str, Any], seed: int) -> tuple[list[str], list[list[str]]]:
    count = _require_int(params, "count", 1)
    max_coeff = _require_int(params, "max_coeff", 1)
    children = np.random.SeedSequence(seed).spawn(count)
    header = [
        "index", "a", "b", "c",
        "lhs_real", "lhs_imag", "rhs_real", "rhs_imag", "abs_diff", "tolerance",
    ]
    rows = []
    for i, child in enumerate(children):
        rng = np.random.default_rng(child)
        a = c = 0
        while a == 0:
            a = int(rng.integers(-max_coeff, max_coeff + 1))
        while c == 0:
            c = int(rng.integers(-max_coeff, max_coeff + 1))
        b = int(rng.integers(-max_coeff, max_coeff + 1))
        if (a * c + b) % 2 != 0:
            b = b + 1 if b < max_coeff else b - 1
        lhs, rhs = gauss_sum_check(a, b, c)
        diff = abs(lhs - rhs)
        tol = 1e-9 * np.sqrt(abs(c))
        rows.append([
            _fmt(i), _fmt(a), _fmt(b), _fmt(c),
            _fmt(lhs.real), _fmt(lhs.imag), _fmt(rhs.real), _fmt(rhs.imag),
            _fmt(diff), _fmt(tol),
        ])
    return header, rows


# ---------------------------------------------------------------------------
# experiment kinds: one table drives the parser, inline flags and spec check


def _csv_values(text: str, caster: type, what: str) -> list[Any]:
    try:
        return [caster(v) for v in text.split(",")]
    except ValueError:
        noun = "integers" if caster is int else "numbers"
        raise SpecError(f"{what} must be comma-separated {noun}") from None


def _sweep_flag(text: str) -> dict[str, Any]:
    name, _, rest = text.partition(":")
    if name not in _SHORT_SWEEPABLE or not rest:
        raise SpecError("--sweep must look like param:v1,v2,...")
    values = _csv_values(rest, _SHORT_SWEEPABLE[name], "--sweep values")
    return {"param": name, "values": values}


@dataclass(frozen=True)
class Param:
    """One document parameter; its flag is --name with '_' written as '-'.

    ``parse`` turns flag text into the document value (JSON documents are
    read here, so the spec hash depends on their content, not their path).
    """

    name: str
    type: type = str
    parse: Callable[[str], Any] | None = None
    optional: bool = False
    help: str | None = None

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")


Runner = Callable[[dict[str, Any], int], tuple[list[str], list[list[str]]]]


@dataclass(frozen=True)
class Kind:
    help: str
    runner: Runner
    params: tuple[Param, ...]


_DECOMP = Param(
    "decomp", parse=lambda v: _json_or_path(v, "decomposition"),
    help="decomposition JSON (inline or path)",
)

_KIND_TABLE: dict[str, Kind] = {
    "trotter-error": Kind("product-formula error sweep over r", _run_trotter_error, (
        _DECOMP,
        Param("k", int),
        Param("r_list", parse=lambda v: _csv_values(v, int, "--r-list"),
              help="comma-separated step counts"),
        Param("t", float),
    )),
    "short-sim": Kind("amplified path-sum simulation", _run_short_sim, (
        _DECOMP,
        Param("k", int),
        Param("r", int),
        Param("t", float),
        Param("bits", int),
        Param("sweep", parse=_sweep_flag, optional=True,
              help="param:v1,v2,... over one of k,r,t,bits"),
    )),
    "long-sim": Kind("slow-sweep truncated propagator errors", _run_long_sim, (
        Param("system",
              parse=lambda v: v if v.startswith("sweep:") else _json_or_path(v, "system"),
              help="sweep:<shape>:<a>,<b>, JSON, or a path"),
        Param("T_sweep", parse=lambda v: _csv_values(v, float, "--T-sweep"),
              help="comma-separated total times"),
        Param("r", int, optional=True, help="quadrature panel count"),
    )),
    "lagrangian-sim": Kind("lattice action-phase trajectory", _run_lagrangian_sim, (
        Param("n", int),
        Param("xmax", float),
        Param("mass", float),
        Param("r", int),
        Param("potential",
              parse=lambda v: _json_or_path(v, "potential") if v.lstrip().startswith("{") else v,
              help="zero|constant:c|harmonic:omega,x0|well:d,l,r"),
        Param("initial", help="gaussian:x0,sigma,k0 or basis:q"),
    )),
    "gauss-check": Kind("reciprocity fuzz over random triples", _run_gauss_check, (
        Param("count", int),
        Param("max_coeff", int),
    )),
}

KINDS = tuple(_KIND_TABLE)
# short-sim's numeric parameters, each with the type a sweep casts to
_SHORT_SWEEPABLE = {p.name: p.type for p in _KIND_TABLE["short-sim"].params if p.type is not str}
_RUNNERS: dict[str, Runner] = {name: kind.runner for name, kind in _KIND_TABLE.items()}


def run(spec: ExperimentSpec) -> None:
    """Execute one experiment: write its CSV and sidecar manifest."""
    start = time.perf_counter()
    header, rows = _RUNNERS[spec.kind](spec.params, spec.seed)
    lines = [",".join(header)] + [",".join(row) for row in rows]
    out = Path(spec.output)
    if out.parent != Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    out.write_bytes(("\n".join(lines) + "\n").encode())
    manifest = {
        "spec_hash": spec_hash(spec),
        "version": __version__,
        "wall_clock_seconds": time.perf_counter() - start,
    }
    Path(str(out) + ".manifest.json").write_text(
        json.dumps(manifest, sort_keys=True) + "\n"
    )


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathint",
        description="Run reproducible simulation experiments; one CSV per run.",
    )
    subs = parser.add_subparsers(dest="kind", required=True)
    for name, kind in _KIND_TABLE.items():
        sub = subs.add_parser(name, help=kind.help)
        sub.add_argument("--spec", help="path to a full experiment JSON document")
        sub.add_argument("--seed", type=int, default=None, help="64-bit RNG seed")
        sub.add_argument("--out", help="output CSV path")
        for param in kind.params:
            sub.add_argument(param.flag, dest=param.name, type=param.type, help=param.help)
    return parser


def _inline_params(args: argparse.Namespace) -> dict[str, Any]:
    params: dict[str, Any] = {}
    for param in _KIND_TABLE[args.kind].params:
        value = getattr(args, param.name)
        if value is None:
            if param.optional:
                continue
            raise SpecError(f"missing required flag {param.flag} (or use --spec)")
        params[param.name] = value if param.parse is None else param.parse(value)
    return params


def _spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    if args.spec is not None:
        path = Path(args.spec)
        if not path.is_file():
            raise SpecError(f"spec file not found: {args.spec}")
        try:
            doc = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise SpecError(f"spec file is not valid JSON: {exc}") from None
        spec = spec_from_dict(doc)
        if spec.kind != args.kind:
            raise SpecError(
                f"spec kind {spec.kind!r} does not match subcommand {args.kind!r}"
            )
        if args.seed is not None or args.out is not None:
            doc = spec_to_dict(spec)
            if args.seed is not None:
                doc["seed"] = args.seed
            if args.out is not None:
                doc["output"] = args.out
            spec = spec_from_dict(doc)
        return spec
    if args.out is None:
        raise SpecError("missing required flag --out (or use --spec)")
    doc = {
        "kind": args.kind,
        "params": _inline_params(args),
        "seed": args.seed if args.seed is not None else 0,
        "output": args.out,
    }
    return spec_from_dict(doc)


def _blame_module(exc: BaseException) -> str:
    name = "pathint.cli"
    tb = exc.__traceback__
    while tb is not None:
        frame_name = tb.tb_frame.f_globals.get("__name__", "")
        if frame_name.startswith("pathint.") and frame_name != "pathint.cli":
            name = frame_name
        tb = tb.tb_next
    return name


def _fail(category: str, exc: BaseException, code: int) -> int:
    message = " ".join(str(exc).split())
    line = json.dumps(
        {"error": category, "module": _blame_module(exc), "message": message}
    )
    print(line, file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        spec = _spec_from_args(args)
        run(spec)
    except SpecError as exc:
        return _fail("spec", exc, 2)
    except CapExceeded as exc:
        return _fail("cap", exc, 3)
    except InvariantViolation as exc:
        return _fail("invariant", exc, 4)
    return 0


if __name__ == "__main__":
    sys.exit(main())
