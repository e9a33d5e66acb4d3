"""Command-line interface: point queries, sweeps, oracle runs, self-checks.

Exit codes are script-friendly: 0 for success (a feasible point, a
completed dataset, a clean verify run), 1 for usage or internal errors,
2 for a well-posed but infeasible instance.

Each leaf command parses only the flags it reads. A family or mode is a
subcommand (`rdc binary`, `surface rpc-gaussian`, `oracle gaussian`,
`rpc-given-d frontier`), so a leaf declares only its own source flags
and its own bound or grid flags. Every leaf takes --out and --config;
the dataset leaves (the four surfaces, restore and rpc-given-d frontier)
add --format and --emit-plot-script, and only verify takes --seed,
--suite and --workers, which is accepted and has no effect. Built-in
defaults sit on the flags, where --help shows them. A config file's
values become the leaf's parser defaults, so a flag wins over a config
value, which wins over a built-in default. All output is deterministic
for a fixed (command, config, seed).

Only the closed-form layer loads with this module: each command imports
the oracle, the restoration model, the pinned-distortion solver or the
verify suites in its own handler, so a point query does not pay for them.
"""

from __future__ import annotations

import argparse
import collections.abc
import functools
import json
import math
import sys
from dataclasses import astuple
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from . import __version__
from .closed_form import rdc_binary, rdc_gaussian, rpc_binary, rpc_gaussian
from .errors import DomainError, NoCrossingError
from .results import TradeoffPoint
from .sources import BinaryPairSource, GaussianPairSource

_EXIT_OK = 0
_EXIT_USAGE = 1
_EXIT_INFEASIBLE = 2

# family -> (closed form, constrained axis, is_binary, help for the axis
# bound). It drives the rdc/rpc point commands, the surface leaves and,
# one per source kind, the oracle leaves; the unit follows from the kind.
_FAMILIES: dict[str, tuple[Callable[[Any, float, float], TradeoffPoint], str, bool, str]] = {
    "rdc-binary": (rdc_binary, "d", True, "Hamming distortion bound"),
    "rdc-gaussian": (rdc_gaussian, "d", False, "mean squared error bound"),
    "rpc-binary": (rpc_binary, "p", True, "total variation bound"),
    "rpc-gaussian": (rpc_gaussian, "p", False, "KL divergence bound, nats"),
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad flags; the contract here is 1. Long
    flags are spelled in full: no prefix of one is taken for it. Every
    subparser is built by this class, so this holds for every command."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message: str):  # noqa: D401 - argparse hook
        self.print_usage(sys.stderr)
        self.exit(_EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _csv_cell(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(float(value), ".9g")
    return str(value)


def _csv_text(header: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_csv_cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _require(ns: argparse.Namespace, key: str) -> Any:
    value = getattr(ns, key)
    if value is None:
        raise _UsageError(f"missing required value --{key.replace('_', '-')}")
    return value


def _flag_value(action: argparse.Action, value: Any) -> Any:
    """A config value as ``action``'s flag parses its text: its ``type``,
    ``nargs`` (a list for --d and the repeatable --suite, true or false
    for a switch) and ``choices``. Raises ValueError."""
    if action.nargs == 0:
        if isinstance(value, bool):
            return value
        raise ValueError(f"must be true or false: {value!r}")
    many = action.nargs == "+" or isinstance(action, argparse._AppendAction)
    items = value if many else [value]
    if not (isinstance(items, list) and items and all(type(v) in (str, int, float) for v in items)):
        raise ValueError(f"must be {'a list of values' if many else 'one number or string'}: {value!r}")
    parsed = [(action.type or str)(str(v)) for v in items]
    for v in parsed:
        if action.choices is not None and v not in action.choices:
            raise ValueError(f"invalid choice {v!r} (choose from {', '.join(map(repr, action.choices))})")
    return parsed if many else parsed[0]


def _load_config(path: str, par: argparse.ArgumentParser) -> dict[str, Any]:
    """The config file's values for the flags of the command ``par``
    parses (``_flag_value``); keys that name none of them are dropped."""
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise _UsageError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise _UsageError(f"config {path} must hold a JSON object")
    flags = {a.dest: a for a in par._actions if a.option_strings}
    config: dict[str, Any] = {}
    for key in (k for k in raw if k in flags):
        try:
            config[key] = _flag_value(flags[key], raw[key])
        except ValueError as exc:
            raise _UsageError(f"config key {key!r}: {exc}") from None
    return config


def _source(ns: argparse.Namespace, is_binary: bool) -> BinaryPairSource | GaussianPairSource:
    """The binary or Gaussian pair source the flags describe."""
    if is_binary:
        return BinaryPairSource(_require(ns, "a"), _require(ns, "p1"))
    return GaussianPairSource(ns.mu_x, ns.mu_s, _variance(ns, "sigma_x"), _variance(ns, "sigma_s"),
                              ns.theta1)


def _variance(ns: argparse.Namespace, key: str) -> float:
    """The square of a standard deviation flag; a negative one, or one whose
    square overflows, is refused (zero and non-finite ones the source refuses)."""
    sigma, flag = getattr(ns, key), f"--{key.replace('_', '-')}"
    if sigma < 0.0:
        raise _UsageError(f"{flag} must be positive: {sigma}")
    try:
        return sigma**2
    except OverflowError:  # a Python float raises where numpy gives inf
        raise _UsageError(f"{flag} squared overflows: {sigma}") from None


def _source_inputs(src: BinaryPairSource | GaussianPairSource) -> dict[str, float]:
    """The source's parameters as a point result echoes them, in flag units."""
    if isinstance(src, BinaryPairSource):
        return {"a": src.a, "p1": src.p1}
    return {
        "mu_x": src.mu_x,
        "mu_s": src.mu_s,
        "sigma_x": math.sqrt(src.var_x),
        "sigma_s": math.sqrt(src.var_s),
        "theta1": src.cov,
    }


def _linspace(prefix: str, lo: float, hi: float, steps: int) -> list[float]:
    """The --{prefix}-min/-max/-steps grid, its flags checked first."""
    for end, value in (("min", lo), ("max", hi)):
        if not math.isfinite(value):
            raise _UsageError(f"--{prefix}-{end} must be finite: {value}")
    if steps < 1:
        raise _UsageError(f"--{prefix}-steps must be >= 1")
    if hi < lo:
        raise _UsageError(f"--{prefix}-max must be >= --{prefix}-min")
    return [float(v) for v in np.linspace(lo, hi, steps)]


def _grid(ns: argparse.Namespace, prefix: str) -> list[float]:
    return _linspace(prefix, *(_require(ns, f"{prefix}_{end}") for end in ("min", "max", "steps")))


# ---------------------------------------------------------------------------
# plot scripts
# ---------------------------------------------------------------------------

_SURFACE_PLOT = """#!/usr/bin/env python3
\"\"\"Contour view of a tradeoff surface CSV (columns d_or_p,c,rate,...).\"\"\"
import csv

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt
import numpy as np

PATH = @SOURCES@

with open(PATH, newline="") as fh:
    rows = list(csv.DictReader(fh))
xs = sorted({float(r["d_or_p"]) for r in rows})
ys = sorted({float(r["c"]) for r in rows})
z = np.full((len(xs), len(ys)), np.nan)
for r in rows:
    i = xs.index(float(r["d_or_p"]))
    j = ys.index(float(r["c"]))
    if r["feasible"] == "true":
        z[i, j] = float(r["rate"])
fig, ax = plt.subplots(figsize=(6, 4.5))
cs = ax.contourf(ys, xs, z, levels=24)
fig.colorbar(cs, ax=ax, label="rate (" + rows[0]["unit"] + ")")
ax.set_xlabel("C")
ax.set_ylabel("D or P")
fig.tight_layout()
fig.savefig(PATH + ".png", dpi=150)
print("wrote", PATH + ".png")
"""

_RESTORE_PLOT = """#!/usr/bin/env python3
\"\"\"Denoising metric curves from a restore CSV (a,mse,kl_nats,error_rate).\"\"\"
import csv

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

PATH = @SOURCES@

with open(PATH, newline="") as fh:
    rows = list(csv.DictReader(fh))
a = [float(r["a"]) for r in rows]
fig, axes = plt.subplots(1, 3, figsize=(12, 3.5))
for ax, col in zip(axes, ("mse", "kl_nats", "error_rate")):
    ax.plot(a, [float(r[col]) for r in rows])
    ax.set_xlabel("gain a")
    ax.set_ylabel(col)
fig.tight_layout()
fig.savefig(PATH + ".png", dpi=150)
print("wrote", PATH + ".png")
"""

_FRONTIER_PLOT = """#!/usr/bin/env python3
\"\"\"Minimal-perception frontiers from rpc-given-d CSVs.\"\"\"
import csv
import math

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

SOURCES = @SOURCES@

fig, ax = plt.subplots(figsize=(6, 4.5))
for label, path in SOURCES:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    pts = [
        (float(r["C_nats"]), float(r["min_P_nats"]))
        for r in rows
        if not math.isnan(float(r["min_P_nats"]))
    ]
    ax.plot([c for c, _ in pts], [p for _, p in pts], marker="o", label=label)
ax.set_xlabel("C (nats)")
ax.set_ylabel("minimal P (nats)")
ax.legend()
fig.tight_layout()
out = SOURCES[0][1] + ".png"
fig.savefig(out, dpi=150)
print("wrote", out)
"""


# ---------------------------------------------------------------------------
# emitters: a JSON object (points, oracle runs, verify reports) or a dataset
# (surface, restore, rpc-given-d frontiers). A dataset command refuses a
# plot script it cannot write before it does any work.
# ---------------------------------------------------------------------------

def _strict_json(value: Any) -> Any:
    """``value`` with every NaN, an infeasible entry, as None (JSON null)
    and every infinity as the string "Infinity" or "-Infinity", which
    Python's ``float`` and JavaScript's ``Number`` both read."""
    if isinstance(value, float) and not math.isfinite(value):
        return None if math.isnan(value) else ("Infinity" if value > 0 else "-Infinity")
    if isinstance(value, dict):
        return {k: _strict_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict_json(v) for v in value]
    return value


def _emit_object(ns: argparse.Namespace, payload: dict[str, Any], code: int) -> int:
    payload = _strict_json(payload) | {"tool_version": __version__}
    _write(json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n", ns.out)
    return code


def _emit_point(ns: argparse.Namespace, pt: TradeoffPoint, inputs: dict[str, Any]) -> int:
    """The point's ``to_dict`` beside its ``inputs``, which echo its bounds."""
    payload = {k: v for k, v in pt.to_dict().items() if k not in ("c", "d", "p")}
    return _emit_object(ns, payload | {"inputs": inputs},
                        _EXIT_OK if pt.feasible else _EXIT_INFEASIBLE)


def _refuse_dataset_flags(ns: argparse.Namespace) -> None:
    if not ns.emit_plot_script:
        return
    if ns.out is None:
        raise _UsageError("--emit-plot-script needs --out to name the dataset")
    if ns.format == "json":
        raise _UsageError("plot scripts read the CSV format")


def _emit_dataset(
    ns: argparse.Namespace,
    header: Sequence[str],
    tables: Sequence[tuple[float | None, list[tuple]]],
    plot: str,
    meta: dict[str, Any],
    json_only: Sequence[str] = (),
) -> int:
    """Write tables of rows as CSV or as one JSON document (``--format``).

    A JSON row is an object keyed by ``header`` and then ``json_only``
    (trailing columns the CSV leaves out), and ``meta`` sits beside the
    rows. A table labelled None is the whole dataset. Labelled tables are
    frontiers, one per D: JSON lists them under "frontiers", and more than
    one goes to a CSV file each, <stem>_d<D><suffix>, or to stdout under
    "# d=<D>" lines.
    """
    out = ns.out
    if ns.format == "json":
        keys = (*header, *json_only)

        def objects(rows: list[tuple]) -> list[dict[str, Any]]:
            return [dict(zip(keys, row)) for row in rows]

        if tables[0][0] is None:
            payload = {"rows": objects(tables[0][1])}
        else:
            payload = {"frontiers": [{"d": d, "rows": objects(rows)} for d, rows in tables]}
        return _emit_object(ns, payload | meta, _EXIT_OK)

    def csv(rows: list[tuple]) -> str:
        return _csv_text(header, [row[:len(header)] for row in rows])

    if len(tables) == 1:
        label, rows = tables[0]
        _write(csv(rows), out)
        sources: Any = out if label is None else [(f"D={label:g}", out)]
    elif out is None:
        _write("\n".join(f"# d={d:g}\n{csv(rows)}" for d, rows in tables), None)
        return _EXIT_OK
    else:
        base = Path(out)
        sources = []
        for d, rows in tables:
            path = base.with_name(f"{base.stem}_d{d:g}{base.suffix}")
            path.write_text(csv(rows))
            sources.append((f"D={d:g}", str(path)))
    if ns.emit_plot_script:
        Path(f"{out}.plot.py").write_text(plot.replace("@SOURCES@", repr(sources)))
    return _EXIT_OK


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

# a frontier's C grid ends, as offsets from h(S), where not given
_FRONTIER_C = (-0.7, 0.1)


def _cmd_point(family: str, ns: argparse.Namespace) -> int:
    closed, axis, is_binary, _ = _FAMILIES[family]
    src = _source(ns, is_binary)
    x = _require(ns, axis)
    c = _require(ns, "c")
    return _emit_point(ns, closed(src, x, c), _source_inputs(src) | {axis: x, "c": c})


def _cmd_given_d_point(ns: argparse.Namespace) -> int:
    from .rpc_given_d import rate_given_pcd

    src = _source(ns, False)
    d = _require(ns, "d")
    p = math.inf if ns.p is None else ns.p
    c = _require(ns, "c")
    pt = rate_given_pcd(src, d, p, c)
    return _emit_point(ns, pt, _source_inputs(src) | {"d": d, "p": p, "c": c})


def _cmd_given_d_frontier(ns: argparse.Namespace) -> int:
    from .rpc_given_d import pc_frontier_given_rd

    src = _source(ns, False)
    rate_level = _require(ns, "rate")
    _refuse_dataset_flags(ns)
    c_ends = [src.h_s + off if end is None else end
              for end, off in zip((ns.c_min, ns.c_max), _FRONTIER_C)]
    c_grid = _linspace("c", *c_ends, ns.c_steps)
    tables = [
        (d, [astuple(r) for r in pc_frontier_given_rd(src, d, rate_level, c_grid)])
        for d in ns.d
    ]
    return _emit_dataset(
        ns, ("C_nats", "min_P_nats", "rate_nats", "sigma_xh"), tables, _FRONTIER_PLOT,
        {"rate_level": rate_level}, json_only=("feasible",),
    )


def _cmd_surface(family: str, ns: argparse.Namespace) -> int:
    closed, axis, is_binary, _ = _FAMILIES[family]
    _refuse_dataset_flags(ns)
    src = _source(ns, is_binary)
    axis_grid = _grid(ns, axis)
    c_grid = _grid(ns, "c")

    rows = []
    for x in axis_grid:
        for c in c_grid:
            pt = closed(src, x, c)
            rows.append((x, c, pt.rate, pt.unit.value, pt.region.value, pt.feasible))
    return _emit_dataset(
        ns, ("d_or_p", "c", "rate", "unit", "region", "feasible"), [(None, rows)],
        _SURFACE_PLOT, {},
    )


def _cmd_oracle(is_binary: bool, ns: argparse.Namespace) -> int:
    from .oracle import binary_min_rate, gaussian_min_rate

    constraints = {name: value for name, value in (("D", ns.d), ("P", ns.p), ("C", ns.c))
                   if value is not None}
    if not constraints:
        raise _UsageError("oracle needs at least one of --d, --p, --c")
    min_rate = binary_min_rate if is_binary else gaussian_min_rate
    result = min_rate(_source(ns, is_binary), constraints)
    return _emit_object(ns, result.to_dict(), _EXIT_OK if result.feasible else _EXIT_INFEASIBLE)


def _cmd_restore(ns: argparse.Namespace) -> int:
    from .restoration import default_model, sweep

    _refuse_dataset_flags(ns)
    grid = _linspace("a", ns.a_min, ns.a_max, ns.a_steps)
    curve = sweep(default_model(sigma_n=ns.sigma_n), grid)
    rows = [astuple(q) for q in curve]
    return _emit_dataset(
        ns, ("a", "mse", "kl_nats", "error_rate"), [(None, rows)], _RESTORE_PLOT,
        {"sigma_n": ns.sigma_n},
    )


def _cmd_verify(ns: argparse.Namespace) -> int:
    from .verify import run_suites

    suites = None if ns.suite is None else list(dict.fromkeys(ns.suite))
    report = run_suites(suites, seed=ns.seed, workers=ns.workers)
    return _emit_object(ns, report.to_dict(), _EXIT_OK if report.all_passed else _EXIT_USAGE)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _SuiteNames(collections.abc.Sequence):
    """verify's ``SUITE_NAMES``, looked up when argparse checks or lists
    the ``--suite`` choices, so building the parser imports no suite."""

    def __getitem__(self, index):
        from .verify import SUITE_NAMES

        return SUITE_NAMES[index]

    def __len__(self) -> int:
        from .verify import SUITE_NAMES

        return len(SUITE_NAMES)


def _command(sub: Any, name: str, handler: Callable[[argparse.Namespace], int],
             help: str | None = None) -> argparse.ArgumentParser:
    """A leaf command: its handler and the flags every command takes."""
    par = sub.add_parser(name, help=help)
    par.add_argument("--out", help="write the result here instead of stdout")
    par.add_argument("--config", help="JSON file of defaults; flags win")
    par.set_defaults(handler=handler, parser=par)
    return par


def _add_dataset_flags(par: argparse.ArgumentParser) -> None:
    par.add_argument("--format", choices=("csv", "json"), default="csv",
                     help="dataset format (default %(default)s)")
    par.add_argument("--emit-plot-script", action="store_true",
                     help="write a matplotlib script next to the CSV at --out")


def _add_binary_source(par: argparse.ArgumentParser) -> None:
    par.add_argument("--a", type=float, help="P(S=1), in [p1, 1/2]")
    par.add_argument("--p1", type=float, help="label flip probability, in [0, a], below 1/2")


def _add_gaussian_source(par: argparse.ArgumentParser) -> None:
    for flag, default, what in (("--sigma-x", 1.0, "source std dev"),
                                ("--sigma-s", 0.7, "label std dev"),
                                ("--theta1", 0.63, "cov(X, S)"),
                                ("--mu-x", 0.0, "source mean"),
                                ("--mu-s", 0.0, "label mean")):
        par.add_argument(flag, type=float, default=default, help=f"{what} (default %(default)s)")


def build_parser() -> _Parser:
    parser = _Parser(prog="rdpc", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def group(name: str, help: str) -> Any:
        return sub.add_parser(name, help=help).add_subparsers(required=True)

    points = {"rdc": group("rdc", "rate under distortion + classification"),
              "rpc": group("rpc", "rate under perception + classification")}
    given = group("rpc-given-d", "rate or P-C frontier at an exactly pinned distortion")
    surfaces = group("surface", "closed-form rate over a (D or P) x C grid")
    oracles = group("oracle", "brute-force minimal rate over explicit channels")

    # `rdc binary` and the other point commands, `surface rdc-binary` and
    # the other surfaces, one per family, and `oracle binary` and `oracle
    # gaussian`, one per source kind
    for family, (_, axis, is_binary, bound_help) in _FAMILIES.items():
        command, kind = family.split("-")
        add_source = _add_binary_source if is_binary else _add_gaussian_source
        point = _command(points[command], kind, functools.partial(_cmd_point, family))
        add_source(point)
        point.add_argument(f"--{axis}", type=float, help=bound_help)
        point.add_argument("--c", type=float, help="conditional label entropy bound, "
                           + ("bits" if is_binary else "nats"))

        surface = _command(surfaces, family, functools.partial(_cmd_surface, family),
                           help=f"closed-form {family} rate over a {axis.upper()} x C grid")
        _add_dataset_flags(surface)
        add_source(surface)
        for name in (axis.upper(), "C"):
            for end, type_, what in (("min", float, "start"), ("max", float, "end"),
                                     ("steps", int, "size")):
                surface.add_argument(f"--{name.lower()}-{end}", type=type_,
                                     help=f"{name} grid {what}")

        if kind not in oracles.choices:
            oracle = _command(oracles, kind, functools.partial(_cmd_oracle, is_binary),
                              help=f"minimal rate over {kind} channels")
            add_source(oracle)
            for flag, what in (("--d", "distortion"), ("--p", "perception"),
                               ("--c", "classification")):
                oracle.add_argument(flag, type=float, help=f"{what} bound")

    point = _command(given, "point", _cmd_given_d_point, help="rate to meet D, P and C")
    _add_gaussian_source(point)
    point.add_argument("--d", type=float, help="pinned distortion (MSE)")
    point.add_argument("--p", type=float, help="KL bound, nats; none if not given")
    point.add_argument("--c", type=float, help="conditional label entropy bound, nats")

    frontier = _command(given, "frontier", _cmd_given_d_frontier,
                        help="minimal P over a C grid within a rate budget")
    _add_dataset_flags(frontier)
    _add_gaussian_source(frontier)
    frontier.add_argument("--d", type=float, nargs="+", default=[0.5, 0.6, 0.8],
                          help="pinned distortions, one frontier each (default %(default)s)")
    frontier.add_argument("--rate", type=float, help="rate budget, nats")
    for end, off in zip(("min", "max"), _FRONTIER_C):
        frontier.add_argument(f"--c-{end}", type=float,
                              help=f"C grid {end} (default h(S) {off:+g})")
    frontier.add_argument("--c-steps", type=int, default=50,
                          help="C grid size (default %(default)s)")

    restore = _command(sub, "restore", _cmd_restore,
                       help="denoising gain sweep on the two-component mixture model")
    _add_dataset_flags(restore)
    for flag, kind, default, what in (("--sigma-n", float, 1.0, "noise std dev"),
                                      ("--a-min", float, 0.05, "gain grid start"),
                                      ("--a-max", float, 1.5, "gain grid end"),
                                      ("--a-steps", int, 146, "gain grid size")):
        restore.add_argument(flag, type=kind, default=default,
                             help=f"{what} (default %(default)s)")

    verify = _command(sub, "verify", _cmd_verify,
                      help="run the self-check suites and write a JSON report")
    verify.add_argument("--seed", type=int, default=0,
                        help="seed for the randomized suites (default %(default)s)")
    verify.add_argument("--workers", type=int, default=1, help="accepted and has no effect")
    suite = verify.add_argument(
        "--suite", action="append",
        help="restrict to one suite (repeatable; default all)",
    )
    # set after add_argument, whose metavar check would list the choices
    suite.choices = _SuiteNames()

    return parser


@functools.cache
def _shared_parser() -> _Parser:
    """The parser of every ``main`` call without --config, built on first
    use: building all the leaves takes a few ms, and a process may call
    ``main`` many times. Nothing changes it after it is built."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    ns = _shared_parser().parse_args(argv)
    try:
        if ns.config is not None:
            # config values as the command's defaults, on a parser of its
            # own, so the shared one keeps the built-in defaults: a re-parse
            # applies flag > config > built-in default
            parser = build_parser()
            ns = parser.parse_args(argv)
            config = _load_config(ns.config, ns.parser)
            if getattr(ns, "suite", None) is not None:
                config.pop("suite", None)  # --suite appends; the flags given replace the list
            ns.parser.set_defaults(**config)
            ns = parser.parse_args(argv)
        return int(ns.handler(ns))
    except (_UsageError, DomainError, NoCrossingError, OSError) as exc:
        print(f"rdpc: error: {exc}", file=sys.stderr)
        return _EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
