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
import json
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, NoReturn

import numpy as np

from . import __version__
from .decomp import (
    Decomposition,
    decomposition_from_json,
    operator_from_json,
    require_bits,
    require_fields,
    require_int,
    require_number,
)
from .errors import CapExceeded, InvariantViolation, SpecError, require_cap
from .lattice import (
    LatticeConfig,
    Potential,
    constant_potential,
    gauss_sum_check,
    gaussian_packet,
    harmonic_potential,
    require_unit_norms,
    square_well_potential,
    trajectory,
    zero_potential,
)
from .long_time import (
    TimeDependentHamiltonian,
    interaction_frame,
    jump_estimate,
    longtime_error,
    two_level_sweep,
)
from .short_time import simulate
from .trotter import measured_error, optional_error_bound, schedule

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
    """Check a whole experiment document: every field and every param's value.

    An optional param given as null reads as absent.
    """
    require_fields(doc, _SPEC_FIELDS, set(), "experiment document")
    kind = doc["kind"]
    if kind not in KINDS:
        raise SpecError(f"unknown experiment kind {kind!r}")
    if require_int(doc["seed"], "seed", 0) >= 2**64:
        raise SpecError("seed must be below 2^64")
    output = doc["output"]
    if not isinstance(output, str) or not output:
        raise SpecError("output must be a non-empty path string")
    fields = _KIND_TABLE[kind].params
    params = require_fields(
        doc["params"], {p.name for p in fields if not p.optional},
        {p.name for p in fields if p.optional}, f"params for {kind}",
    )
    for p in fields:
        if p.check is not None and not (p.optional and params.get(p.name) is None):
            p.check(params[p.name], f"param {p.name!r}")
    return ExperimentSpec(kind=kind, params=params, seed=doc["seed"], output=output)


def spec_hash(spec: ExperimentSpec) -> str:
    canon = json.dumps(vars(spec), sort_keys=True, separators=(",", ":"))  # no deep copy
    return hashlib.sha256(canon.encode()).hexdigest()


def _fmt(value: Any) -> str:
    if value is None:  # an optional bound that was not computed
        return ""
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


def _csv_values(text: str, caster: type, what: str) -> list[Any]:
    try:
        return [caster(v) for v in text.split(",")]
    except ValueError:
        noun = "integers" if caster is int else "numbers"
        raise SpecError(f"{what} must be comma-separated {noun}") from None


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
        require_fields(doc, {"family", "shape", "a", "b"}, {"grid"}, "sweep system")
        ham = two_level_sweep(
            require_number(doc["a"], "sweep system 'a'"),
            require_number(doc["b"], "sweep system 'b'"),
            shape=doc["shape"], grid=require_int(doc.get("grid", 256), "sweep system 'grid'", 1),
        )
        return lambda total_time: ham
    if family == "interaction-frame":
        what = "interaction-frame system"
        require_fields(doc, {"family", "generator", "coupling"}, {"grid"}, what)
        gen = operator_from_json(_json_or_path(doc["generator"], "generator"))
        coup = operator_from_json(_json_or_path(doc["coupling"], "coupling"))
        grid = require_int(doc.get("grid", 64), f"{what} 'grid'", 1)
        return lambda total_time: interaction_frame(gen, coup, total_time, grid=grid)
    raise SpecError("system family must be 'sweep' or 'interaction-frame'")


# each potential's parameters, in the order of its string form, and its builder
_POTENTIALS: dict[str, tuple[tuple[str, ...], Callable[..., Potential]]] = {
    "zero": ((), lambda cfg: zero_potential()),
    "constant": (("level",), lambda cfg, level: constant_potential(level)),
    "harmonic": (
        ("omega", "center"),
        lambda cfg, omega, center: harmonic_potential(cfg.mass, omega, center, cfg.x_max),
    ),
    "well": (("depth", "left", "right"), lambda cfg, *edges: square_well_potential(*edges)),
}


def _potential_from_param(value: Any, cfg: LatticeConfig) -> Potential:
    """Parse zero | constant:<c> | harmonic:<omega>,<center> | well:<depth>,<left>,<right>.

    The JSON form uses {"name": ..., ...} with the same parameters.
    """
    if isinstance(value, str) and not value.lstrip().startswith("{"):
        name, _, rest = value.partition(":")
        args = _csv_values(rest, float, "potential parameters") if rest else []
        if name not in _POTENTIALS or len(args) != len(_POTENTIALS[name][0]):
            raise SpecError(f"malformed potential {value!r}")
        doc: dict[str, Any] = {"name": name, **dict(zip(_POTENTIALS[name][0], args))}
    else:
        doc = _json_or_path(value, "potential")
    name = doc.get("name")
    if not isinstance(name, str) or name not in _POTENTIALS:
        raise SpecError(f"unrecognized potential document: {doc}")
    names, builder = _POTENTIALS[name]
    require_fields(doc, {"name", *names}, set(), f"potential {name!r}")
    return builder(cfg, *(require_number(doc[f], f"potential {name!r} {f!r}") for f in names))


def _initial_state(value: Any, cfg: LatticeConfig) -> np.ndarray:
    if not isinstance(value, str):
        raise SpecError("initial state must be a string")
    name, _, rest = value.partition(":")
    if name == "gaussian":
        try:
            x0, sigma, k0 = (float(v) for v in rest.split(","))
        except ValueError:
            raise SpecError("gaussian initial state needs x0,sigma,k0") from None
        what = "gaussian initial state"
        return gaussian_packet(cfg, *(require_number(v, what) for v in (x0, sigma, k0)))
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
    k, t = params["k"], float(params["t"])
    rows = []
    for r in params["r_list"]:
        sched = schedule(decomp.term_count, k, r, t)
        bound = optional_error_bound(decomp, k, t, r)
        meas = measured_error(decomp, sched)
        rows.append([_fmt(k), _fmt(r), _fmt(bound), _fmt(meas)])
    return ["k", "r", "bound", "measured"], rows


def _run_short_sim(params: dict[str, Any], seed: int) -> tuple[list[str], list[list[str]]]:
    decomp = _decomposition_from_param(params["decomp"])
    sweep = params.get("sweep")
    points = [params] if sweep is None else [
        dict(params, **{sweep["param"]: value}) for value in sweep["values"]
    ]
    header = ["k", "r", "B", "d", "M", "measured_error", "bound"]
    header += [col for col, _ in _QUERY_COLUMNS]
    rows = []
    for pt in points:
        res = simulate(decomp, pt["k"], pt["r"], float(pt["t"]), pt["bits"])
        trotter_term = res.trotter_bound
        bound = None if trotter_term is None else 4.0 * (res.rounding_bound + trotter_term)
        row = [
            _fmt(res.k), _fmt(res.r), _fmt(res.bits), _fmt(res.d), _fmt(res.M),
            _fmt(res.measured_error), _fmt(bound),
        ]
        row += [_fmt(res.queries.get(key, 0)) for _, key in _QUERY_COLUMNS]
        rows.append(row)
    return header, rows


def _run_long_sim(params: dict[str, Any], seed: int) -> tuple[list[str], list[list[str]]]:
    builder = _system_builder(params["system"])
    r = params.get("r")
    rows = []
    for raw in params["T_sweep"]:
        total_time = float(raw)
        ham = builder(total_time)
        # measured first: longtime_error refuses a panel count above the
        # cap before the bounds sample anything
        meas = longtime_error(ham, total_time, r)
        r_used = r if r is not None else ham.grid
        rows.append([
            _fmt(total_time), _fmt(r_used), _fmt(meas), _fmt(jump_estimate(ham.bounds, total_time)),
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
        n=params["n"], x_max=float(params["xmax"]), mass=float(params["mass"]), r=params["r"],
    )
    potential = _potential_from_param(params["potential"], cfg)
    initial = _initial_state(params["initial"], cfg)
    values = potential.grid_values(cfg)
    positions = cfg.positions()[:, None]
    momenta = cfg.momenta()[:, None]
    size = max(1, _BLOCK_AMPLITUDES // cfg.dim)
    header = ["step", "norm", "fidelity", "position_mean", "momentum_mean"]
    rows = []
    walk = trajectory(cfg, values, initial, size)
    for start, pairs in zip(range(0, cfg.r + 1, size), walk):
        block, refs = pairs[:, 0], pairs[:, 1]
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
    count, max_coeff = params["count"], params["max_coeff"]
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


def _sweep_flag(text: str) -> dict[str, Any]:
    name, _, rest = text.partition(":")
    if name not in _SHORT_SWEEPABLE or not rest:
        raise SpecError("--sweep must look like param:v1,v2,...")
    values = _csv_values(rest, _SHORT_SWEEPABLE[name].type, "--sweep values")
    return {"param": name, "values": values}


# A check refuses a bad document value with a SpecError; it is handed the
# value and the words that name it.
Check = Callable[[Any, str], object]


def _int_from(minimum: int, cap: str | None = None) -> Check:
    """An integer of at least ``minimum``, within the named cap if one is given."""
    def check(value: Any, what: str) -> None:
        require_int(value, what, minimum)
        if cap is not None:
            require_cap(cap, value, what)
    return check


def _positive(value: Any, what: str) -> None:
    if not require_number(value, what) > 0:
        raise SpecError(f"{what} must be positive")


def _list_of(entry: Check) -> Check:
    def check(value: Any, what: str) -> None:
        if not isinstance(value, list) or not value:
            raise SpecError(f"{what} must be a non-empty list")
        for item in value:
            entry(item, f"{what} entry")
    return check


def _short_sweep(value: Any, what: str) -> None:
    """A short-sim sweep: one swept param, each value passing that param's check."""
    require_fields(value, {"param", "values"}, set(), what)
    name = value["param"]
    if not isinstance(name, str) or name not in _SHORT_SWEEPABLE:
        raise SpecError(f"sweep param must be one of {sorted(_SHORT_SWEEPABLE)}")
    _list_of(_SHORT_SWEEPABLE[name].check)(value["values"], f"{what} values")


@dataclass(frozen=True)
class Param:
    """One document parameter; its flag is --name with '_' written as '-'.

    ``parse`` turns flag text into the document value (JSON documents are
    read here, so the spec hash depends on their content, not their path).
    ``check`` refuses a bad value; the documents that ``decomp``, ``system``,
    ``potential`` and ``initial`` name are checked by their own readers.
    """

    name: str
    type: type = str
    parse: Callable[[str], Any] | None = None
    check: Check | None = None
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
        Param("k", int, check=_int_from(0)),
        Param("r_list", parse=lambda v: _csv_values(v, int, "--r-list"),
              check=_list_of(_int_from(1)), help="comma-separated step counts"),
        Param("t", float, check=require_number),
    )),
    "short-sim": Kind("amplified path-sum simulation", _run_short_sim, (
        _DECOMP,
        Param("k", int, check=_int_from(0)),
        Param("r", int, check=_int_from(1)),
        Param("t", float, check=require_number),
        Param("bits", int, check=require_bits),
        Param("sweep", parse=_sweep_flag, check=_short_sweep, optional=True,
              help="param:v1,v2,... over one of k,r,t,bits"),
    )),
    "long-sim": Kind("slow-sweep truncated propagator errors", _run_long_sim, (
        Param("system",
              parse=lambda v: v if v.startswith("sweep:") else _json_or_path(v, "system"),
              help="sweep:<shape>:<a>,<b>, JSON, or a path"),
        Param("T_sweep", parse=lambda v: _csv_values(v, float, "--T-sweep"),
              check=_list_of(_positive), help="comma-separated total times"),
        Param("r", int, check=_int_from(4), optional=True, help="quadrature panel count"),
    )),
    "lagrangian-sim": Kind("lattice action-phase trajectory", _run_lagrangian_sim, (
        Param("n", int, check=_int_from(1)),
        Param("xmax", float, check=require_number),
        Param("mass", float, check=require_number),
        Param("r", int, check=_int_from(1, "trajectory_steps")),
        Param("potential",
              parse=lambda v: _json_or_path(v, "potential") if v.lstrip().startswith("{") else v,
              help="zero|constant:c|harmonic:omega,x0|well:d,l,r"),
        Param("initial", help="gaussian:x0,sigma,k0 or basis:q"),
    )),
    "gauss-check": Kind("reciprocity fuzz over random triples", _run_gauss_check, (
        Param("count", int, check=_int_from(1, "gauss_rows")),
        Param("max_coeff", int, check=_int_from(1, "gauss_terms")),
    )),
}

KINDS = tuple(_KIND_TABLE)
# short-sim's numeric parameters: a sweep casts its flag values to each one's
# type and checks its document values with each one's check
_SHORT_SWEEPABLE = {p.name: p for p in _KIND_TABLE["short-sim"].params if p.type is not str}


def run(spec: ExperimentSpec) -> None:
    """Execute one checked experiment (from spec_from_dict): write its CSV and manifest."""
    start = time.perf_counter()
    header, rows = _KIND_TABLE[spec.kind].runner(spec.params, spec.seed)
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


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors raise ``SpecError``; its sub-parsers are too."""

    def error(self, message: str) -> NoReturn:
        raise SpecError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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


def _parse(argv: list[str] | None) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, refusing by name a flag before
    the subcommand: argparse would set it aside and read the value after it
    as the subcommand.  One leading ``--`` end-of-options marker is dropped,
    since argparse would read it as the subcommand."""
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--"]:
        argv = argv[1:]
    first = argv[0] if argv else ""
    if first.startswith("-") and first != "-h" and not "--help".startswith(first):
        raise SpecError(f"unrecognized arguments: {first} (flags follow the subcommand)")
    return build_parser().parse_args(argv)


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
            doc = asdict(spec)
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
    """The innermost pathint module that raised, passing over ``require_cap``'s."""
    name = "pathint.cli"
    tb = exc.__traceback__
    while tb is not None:
        frame_name = tb.tb_frame.f_globals.get("__name__", "")
        if frame_name.startswith("pathint.") and frame_name.split(".")[1] not in ("cli", "errors"):
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
    try:
        spec = _spec_from_args(_parse(argv))
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
