"""Command-line interface: point queries, sweeps, oracle runs, self-checks.

Exit codes are script-friendly: 0 for success (a feasible point, a
completed dataset, a clean verify run), 1 for usage or internal errors,
2 for a well-posed but infeasible instance.

Flag values win over config-file values, which win over built-in
defaults; --workers is accepted and has no effect. All output is
deterministic for a fixed (command, config, seed).

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
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from . import __version__
from .closed_form import rdc_binary, rdc_gaussian, rpc_binary, rpc_gaussian
from .errors import DomainError, NoCrossingError, WitnessUnavailableError
from .results import TradeoffPoint
from .sources import BinaryPairSource, GaussianPairSource

_EXIT_OK = 0
_EXIT_USAGE = 1
_EXIT_INFEASIBLE = 2

# family -> (closed form, constrained axis, is_binary, help for the axis
# bound). It drives the rdc/rpc point commands and `surface --family`; the
# unit follows from the source kind.
_FAMILIES: dict[str, tuple[Callable[[Any, float, float], TradeoffPoint], str, bool, str]] = {
    "rdc-binary": (rdc_binary, "d", True, "Hamming distortion bound"),
    "rdc-gaussian": (rdc_gaussian, "d", False, "mean squared error bound"),
    "rpc-binary": (rpc_binary, "p", True, "total variation bound"),
    "rpc-gaussian": (rpc_gaussian, "p", False, "KL divergence bound, nats"),
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad flags; the contract here is 1."""

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


class _Merged:
    """Flag > config-file > default, per key."""

    def __init__(self, ns: argparse.Namespace, config: Mapping[str, Any]):
        self._ns = ns
        self._cfg = config

    def get(self, key: str, default: Any = None) -> Any:
        flag = getattr(self._ns, key, None)
        if flag is not None:
            return flag
        if key in self._cfg:
            return self._cfg[key]
        return default

    def require(self, key: str) -> Any:
        value = self.get(key)
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


def _load_config(path: str | None, par: argparse.ArgumentParser) -> dict[str, Any]:
    """The config file's values for the flags of the command ``par``
    parses (``_flag_value``); keys that name none of them are dropped."""
    if path is None:
        return {}
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


def _unit(is_binary: bool) -> str:
    return "bits" if is_binary else "nats"


def _check_units(m: _Merged, family_unit: str, what: str) -> None:
    units = m.get("units")
    if units is not None and units != family_unit:
        raise _UsageError(
            f"{what} reports {family_unit}; requested units {units!r} do not apply"
        )


def _source(
    m: _Merged, is_binary: bool, what: str
) -> BinaryPairSource | GaussianPairSource:
    """The binary or Gaussian pair source the flags describe, in its unit."""
    _check_units(m, _unit(is_binary), what)
    if is_binary:
        return BinaryPairSource(float(m.require("a")), float(m.require("p1")))
    sigma_x = float(m.get("sigma_x", 1.0))
    sigma_s = float(m.get("sigma_s", 0.7))
    theta1 = float(m.get("theta1", 0.63))
    mu_x = float(m.get("mu_x", 0.0))
    mu_s = float(m.get("mu_s", 0.0))
    return GaussianPairSource(mu_x, mu_s, sigma_x**2, sigma_s**2, theta1)


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


def _grid(m: _Merged, prefix: str) -> list[float]:
    return _linspace(
        prefix, float(m.require(f"{prefix}_min")), float(m.require(f"{prefix}_max")),
        int(m.require(f"{prefix}_steps")),
    )


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
# (surface, restore, rpc-given-d frontiers). A command refuses the output
# flags its result cannot honour before it does any work.
# ---------------------------------------------------------------------------

def _refuse_object_flags(m: _Merged, what: str) -> None:
    if m.get("format", "json") != "json":
        raise _UsageError(f"{what} are JSON objects; CSV fits sweeps only")
    if m.get("emit_plot_script"):
        raise _UsageError(f"plot scripts accompany sweep datasets, not {what}")


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


def _emit_object(m: _Merged, payload: dict[str, Any], code: int) -> int:
    payload = _strict_json(payload) | {"tool_version": __version__}
    _write(json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n", m.get("out"))
    return code


def _emit_point(m: _Merged, pt: TradeoffPoint, inputs: dict[str, Any]) -> int:
    """The point's ``to_dict`` beside its ``inputs``, which echo its bounds."""
    payload = {k: v for k, v in pt.to_dict().items() if k not in ("c", "d", "p")}
    return _emit_object(m, payload | {"inputs": inputs},
                        _EXIT_OK if pt.feasible else _EXIT_INFEASIBLE)


def _refuse_dataset_flags(m: _Merged) -> None:
    if not m.get("emit_plot_script"):
        return
    if m.get("out") is None:
        raise _UsageError("--emit-plot-script needs --out to name the dataset")
    if m.get("format", "csv") != "csv":
        raise _UsageError("plot scripts read the CSV format")


def _emit_dataset(
    m: _Merged,
    header: Sequence[str],
    tables: Sequence[tuple[float | None, list[tuple]]],
    plot: str,
    meta: dict[str, Any],
    json_only: Sequence[str] = (),
) -> int:
    """Write tables of rows as CSV (the default) or as one JSON document.

    A JSON row is an object keyed by ``header`` and then ``json_only``
    (trailing columns the CSV leaves out), and ``meta`` sits beside the
    rows. A table labelled None is the whole dataset. Labelled tables are
    frontiers, one per D: JSON lists them under "frontiers", and more than
    one goes to a CSV file each, <stem>_d<D><suffix>, or to stdout under
    "# d=<D>" lines.
    """
    out = m.get("out")
    if m.get("format", "csv") == "json":
        keys = (*header, *json_only)

        def objects(rows: list[tuple]) -> list[dict[str, Any]]:
            return [dict(zip(keys, row)) for row in rows]

        if tables[0][0] is None:
            payload = {"rows": objects(tables[0][1])}
        else:
            payload = {"frontiers": [{"d": d, "rows": objects(rows)} for d, rows in tables]}
        return _emit_object(m, payload | meta, _EXIT_OK)

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
    if m.get("emit_plot_script"):
        Path(f"{out}.plot.py").write_text(plot.replace("@SOURCES@", repr(sources)))
    return _EXIT_OK


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_point(family: str, m: _Merged) -> int:
    closed, axis, is_binary, _ = _FAMILIES[family]
    _refuse_object_flags(m, "point results")
    src = _source(m, is_binary, "a binary tradeoff" if is_binary else "a Gaussian tradeoff")
    x = float(m.require(axis))
    c = float(m.require("c"))
    return _emit_point(m, closed(src, x, c), _source_inputs(src) | {axis: x, "c": c})


def _cmd_rpc_given_d(m: _Merged) -> int:
    src = _source(m, False, "a Gaussian tradeoff")
    rate_level = m.get("rate")
    if rate_level is None:
        return _rpc_given_d_point(m, src)
    return _rpc_given_d_frontier(m, src, float(rate_level))


def _rpc_given_d_point(m: _Merged, src: GaussianPairSource) -> int:
    from .rpc_given_d import rate_given_pcd

    _refuse_object_flags(m, "point results")
    d_values = m.get("d")
    if d_values is None:
        raise _UsageError("point query needs --d (one value)")
    if len(d_values) != 1:
        raise _UsageError("point query takes exactly one --d value")
    d = float(d_values[0])
    p = float(m.get("p", math.inf))
    c = float(m.require("c"))
    pt = rate_given_pcd(src, d, p, c)
    return _emit_point(m, pt, _source_inputs(src) | {"d": d, "p": p, "c": c})


def _rpc_given_d_frontier(
    m: _Merged, src: GaussianPairSource, rate_level: float
) -> int:
    from .rpc_given_d import pc_frontier_given_rd

    if m.get("p") is not None:
        raise _UsageError("--p belongs to point queries; a frontier minimizes it")
    if m.get("c") is not None:
        raise _UsageError(
            "--c belongs to point queries; a frontier sweeps --c-min/--c-max/--c-steps"
        )
    _refuse_dataset_flags(m)
    d_values = [float(v) for v in m.get("d") or (0.5, 0.6, 0.8)]
    c_grid = _linspace(
        "c", float(m.get("c_min", src.h_s - 0.7)), float(m.get("c_max", src.h_s + 0.1)),
        int(m.get("c_steps", 50)),
    )
    tables = [
        (d, [astuple(r) for r in pc_frontier_given_rd(src, d, rate_level, c_grid)])
        for d in d_values
    ]
    return _emit_dataset(
        m, ("C_nats", "min_P_nats", "rate_nats", "sigma_xh"), tables, _FRONTIER_PLOT,
        {"rate_level": rate_level}, json_only=("feasible",),
    )


def _cmd_surface(m: _Merged) -> int:
    family = m.require("family")
    if family not in _FAMILIES:
        raise _UsageError(f"unknown surface family {family!r}")
    closed, axis, is_binary, _ = _FAMILIES[family]
    _refuse_dataset_flags(m)
    src = _source(m, is_binary, f"the {family} surface")
    axis_grid = _grid(m, axis)
    c_grid = _grid(m, "c")

    rows = []
    for x in axis_grid:
        for c in c_grid:
            pt = closed(src, x, c)
            rows.append((x, c, pt.rate, pt.unit.value, pt.region.value, pt.feasible))
    return _emit_dataset(
        m, ("d_or_p", "c", "rate", "unit", "region", "feasible"), [(None, rows)],
        _SURFACE_PLOT, {},
    )


def _cmd_oracle(m: _Merged) -> int:
    from .oracle import binary_min_rate, gaussian_min_rate

    _refuse_object_flags(m, "oracle results")
    family = m.require("family")
    if family not in ("binary", "gaussian"):
        raise _UsageError(f"unknown oracle family {family!r}")
    constraints: dict[str, float] = {}
    for key, name in (("d", "D"), ("p", "P"), ("c", "C")):
        value = m.get(key)
        if value is not None:
            constraints[name] = float(value)
    if not constraints:
        raise _UsageError("oracle needs at least one of --d, --p, --c")
    if family == "binary":
        result = binary_min_rate(_source(m, True, "the binary oracle"), constraints)
    else:
        result = gaussian_min_rate(_source(m, False, "the Gaussian oracle"), constraints)
    return _emit_object(m, result.to_dict(), _EXIT_OK if result.feasible else _EXIT_INFEASIBLE)


def _cmd_restore(m: _Merged) -> int:
    from .restoration import default_model, sweep

    _refuse_dataset_flags(m)
    _check_units(m, "nats", "the restoration example")
    sigma_n = float(m.get("sigma_n", 1.0))
    grid = _linspace(
        "a", float(m.get("a_min", 0.05)), float(m.get("a_max", 1.5)), int(m.get("a_steps", 146)),
    )
    curve = sweep(default_model(sigma_n=sigma_n), grid)
    rows = [astuple(q) for q in curve]
    return _emit_dataset(
        m, ("a", "mse", "kl_nats", "error_rate"), [(None, rows)], _RESTORE_PLOT,
        {"sigma_n": sigma_n},
    )


def _cmd_verify(m: _Merged) -> int:
    from .verify import run_suites

    _refuse_object_flags(m, "verify reports")
    suites = m.get("suite")
    if suites is not None:
        suites = list(dict.fromkeys(suites))
    report = run_suites(suites, seed=int(m.get("seed", 0)))
    return _emit_object(m, report.to_dict(), _EXIT_OK if report.all_passed else _EXIT_USAGE)


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


def _common_flags() -> argparse.ArgumentParser:
    par = argparse.ArgumentParser(add_help=False)
    par.add_argument("--out", help="write the result here instead of stdout")
    par.add_argument("--format", choices=("csv", "json"),
                     help="csv for sweeps (default), json everywhere")
    par.add_argument("--units", choices=("bits", "nats"),
                     help="must match the source family; rejected otherwise")
    par.add_argument("--seed", type=int, help="seed for randomized suites")
    par.add_argument("--workers", type=int, help="accepted and has no effect")
    par.add_argument("--config", help="JSON file of defaults; flags win")
    par.add_argument("--emit-plot-script", action="store_true", default=None,
                     help="write a matplotlib script next to the CSV")
    return par


def _add_binary_source(par: argparse.ArgumentParser) -> None:
    par.add_argument("--a", type=float, help="P(S=1), in [p1, 1/2]")
    par.add_argument("--p1", type=float, help="label flip probability, in [0, a], below 1/2")


def _add_gaussian_source(par: argparse.ArgumentParser) -> None:
    par.add_argument("--sigma-x", type=float, help="source std dev (default 1)")
    par.add_argument("--sigma-s", type=float, help="label std dev (default 0.7)")
    par.add_argument("--theta1", type=float, help="cov(X, S) (default 0.63)")
    par.add_argument("--mu-x", type=float, help="source mean (default 0)")
    par.add_argument("--mu-s", type=float, help="label mean (default 0)")


def build_parser() -> _Parser:
    parser = _Parser(prog="rdpc", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    common = _common_flags()
    sub = parser.add_subparsers(dest="command", required=True)

    # `rdc binary` and the other point commands, one per family
    kinds: dict[str, Any] = {}
    for family, (_, axis, is_binary, bound_help) in _FAMILIES.items():
        command, kind = family.split("-")
        if command not in kinds:
            bound = "distortion" if axis == "d" else "perception"
            kinds[command] = sub.add_parser(
                command, help=f"rate under {bound} + classification",
            ).add_subparsers(dest="family", required=True)
        point = kinds[command].add_parser(kind, parents=[common])
        (_add_binary_source if is_binary else _add_gaussian_source)(point)
        point.add_argument(f"--{axis}", type=float, help=bound_help)
        point.add_argument("--c", type=float,
                           help=f"conditional label entropy bound, {_unit(is_binary)}")
        point.set_defaults(handler=functools.partial(_cmd_point, family), parser=point)

    given = sub.add_parser(
        "rpc-given-d", parents=[common],
        help="rate (or P-C frontier) at an exactly pinned distortion",
    )
    _add_gaussian_source(given)
    given.add_argument("--d", type=float, nargs="+",
                       help="pinned distortion; frontier default 0.5 0.6 0.8")
    given.add_argument("--p", type=float, help="KL bound for a point query (inf ok)")
    given.add_argument("--c", type=float, help="entropy bound for a point query")
    given.add_argument("--rate", type=float,
                       help="rate budget; providing it selects frontier mode")
    given.add_argument("--c-min", type=float, help="frontier C grid start")
    given.add_argument("--c-max", type=float, help="frontier C grid end")
    given.add_argument("--c-steps", type=int, help="frontier C grid size (50)")
    given.set_defaults(handler=_cmd_rpc_given_d, parser=given)

    surface = sub.add_parser(
        "surface", parents=[common],
        help="closed-form rate over a (D or P) x C grid",
    )
    surface.add_argument(
        "--family", choices=sorted(_FAMILIES),
        help="which tradeoff function to sweep",
    )
    _add_binary_source(surface)
    _add_gaussian_source(surface)
    for axis in ("d", "p", "c"):
        surface.add_argument(f"--{axis}-min", type=float)
        surface.add_argument(f"--{axis}-max", type=float)
        surface.add_argument(f"--{axis}-steps", type=int)
    surface.set_defaults(handler=_cmd_surface, parser=surface)

    oracle = sub.add_parser(
        "oracle", parents=[common],
        help="brute-force minimal rate over explicit channels",
    )
    oracle.add_argument("--family", choices=("binary", "gaussian"))
    _add_binary_source(oracle)
    _add_gaussian_source(oracle)
    oracle.add_argument("--d", type=float, help="distortion bound")
    oracle.add_argument("--p", type=float, help="perception bound")
    oracle.add_argument("--c", type=float, help="classification bound")
    oracle.set_defaults(handler=_cmd_oracle, parser=oracle)

    restore = sub.add_parser(
        "restore", parents=[common],
        help="denoising gain sweep on the two-component mixture model",
    )
    restore.add_argument("--sigma-n", type=float, help="noise std dev (default 1)")
    restore.add_argument("--a-min", type=float, help="gain grid start (0.05)")
    restore.add_argument("--a-max", type=float, help="gain grid end (1.5)")
    restore.add_argument("--a-steps", type=int, help="gain grid size (146)")
    restore.set_defaults(handler=_cmd_restore, parser=restore)

    verify = sub.add_parser(
        "verify", parents=[common],
        help="run the self-check suites and write a JSON report",
    )
    suite = verify.add_argument(
        "--suite", action="append", default=None,
        help="restrict to one suite (repeatable; default all)",
    )
    # set after add_argument, whose metavar check would list the choices
    suite.choices = _SuiteNames()
    verify.set_defaults(handler=_cmd_verify, parser=verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return int(ns.handler(_Merged(ns, _load_config(ns.config, ns.parser))))
    except (_UsageError, DomainError, NoCrossingError, WitnessUnavailableError,
            OSError) as exc:
        print(f"rdpc: error: {exc}", file=sys.stderr)
        return _EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
