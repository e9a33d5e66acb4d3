"""Spans recorded from outside rdpc, and the per-layer metrics built on them.

The traced run wraps public functions where the calling module binds them
(``rdpc.restoration.numeric_kl``, ``rdpc.closed_form.binary_entropy_inv``,
...), so calls made inside rdpc are seen too. Each wrapped call records a
span in memory: name, start, end, parent span and the op it ran for.
Functions called millions of times (the mixture densities, ``eval_at``)
are only counted, and the mixture densities only during the first
KL_SAMPLE ``numeric_kl`` calls: wrapping all 10^7 of them would more than
double the traced gate run. Nothing under ``src/`` changes; wrappers are removed when
the run ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import statistics
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable

# span name -> modules whose global of that name is wrapped
SPANS: dict[str, tuple[str, ...]] = {
    "entropy.binary_entropy_inv": ("rdpc", "rdpc.entropy", "rdpc.closed_form", "rdpc.oracle", "rdpc.verify"),
    "entropy.numeric_kl": ("rdpc", "rdpc.entropy", "rdpc.restoration", "rdpc.verify"),
    "optimize.bisect_root": ("rdpc.optimize", "rdpc.entropy", "rdpc.closed_form", "rdpc.restoration"),
    "optimize.bisect_predicate": ("rdpc.optimize", "rdpc.restoration", "rdpc.rpc_given_d"),
    "optimize.golden_min": ("rdpc.optimize", "rdpc.restoration", "rdpc.rpc_given_d"),
    "closed_form.rdc_binary": ("rdpc", "rdpc.closed_form", "rdpc.verify", "rdpc.cli"),
    "closed_form.rdc_gaussian": ("rdpc", "rdpc.closed_form", "rdpc.verify", "rdpc.cli"),
    "closed_form.rpc_binary": ("rdpc", "rdpc.closed_form", "rdpc.verify", "rdpc.cli"),
    "closed_form.rpc_gaussian": ("rdpc", "rdpc.closed_form", "rdpc.verify", "rdpc.cli"),
    "closed_form.rpc_binary_witness": ("rdpc", "rdpc.closed_form", "rdpc.verify"),
    "oracle.binary_min_rate": ("rdpc", "rdpc.oracle", "rdpc.verify", "rdpc.cli"),
    "oracle.gaussian_min_rate": ("rdpc", "rdpc.oracle", "rdpc.verify", "rdpc.cli"),
    "restoration.kl_of_gain": ("rdpc", "rdpc.restoration", "rdpc.verify"),
    "restoration.mse_of_gain": ("rdpc", "rdpc.restoration", "rdpc.verify"),
    "restoration.error_rate_of_gain": ("rdpc", "rdpc.restoration", "rdpc.verify"),
    "restoration.sweep": ("rdpc", "rdpc.restoration", "rdpc.verify", "rdpc.cli"),
    "restoration.error_rate_reoptimized": ("rdpc", "rdpc.restoration", "rdpc.verify"),
    "restoration.frontier": ("rdpc", "rdpc.restoration", "rdpc.verify"),
    "restoration.monte_carlo_mse": ("rdpc", "rdpc.restoration", "rdpc.verify"),
    "rpc_given_d.rate_given_pcd": ("rdpc", "rdpc.rpc_given_d", "rdpc.verify", "rdpc.cli"),
    "rpc_given_d.pc_frontier_given_rd": ("rdpc", "rdpc.rpc_given_d", "rdpc.verify", "rdpc.cli"),
}
# counter name -> (owner, attribute) pairs; owners are modules or classes
COUNTS: dict[str, tuple[tuple[str, str], ...]] = {
    "sources.mixture_density": (("rdpc.sources.GaussianMixture2", "density"),
                                ("rdpc.sources.GaussianMixture2", "log_density")),
    "rpc_given_d.eval_at": (("rdpc", "eval_at"), ("rdpc.rpc_given_d", "eval_at"),
                            ("rdpc.verify", "eval_at")),
}
# what a span keeps from its call's result
NOTES: dict[str, Callable[[Any], Any]] = {
    "oracle.binary_min_rate": lambda r: r.refined,
    "oracle.gaussian_min_rate": lambda r: r.refined,
    "restoration.frontier": len,
    "rpc_given_d.pc_frontier_given_rd": len,
}
KL_SAMPLE = 64
METRIC_EVALS = ("restoration.kl_of_gain", "restoration.mse_of_gain",
                "restoration.error_rate_of_gain")


def _resolve(path: str) -> Any:
    """A module, or a class inside one, from its dotted name."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, name = path.rpartition(".")
        return getattr(importlib.import_module(module), name)


class Tracer:
    """Installs the wrappers; records spans and counts while installed.

    A span is ``[name, start_ns, end_ns, parent, op, phase, note]``.
    ``op`` is the op index the runner sets around each call (None between
    ops, so checks are not attributed); ``phase`` tells op calls from the
    extra probes a traced run makes.
    """

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.counts: Counter[str] = Counter()
        self.op: int | None = None
        self.phase = "op"
        self.kl_sampled = 0
        self._local = threading.local()
        self._undo: list[tuple[Any, str, Any]] = []
        self._density_undo: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, name: str, fn: Callable) -> Callable:
        spans, clock, note = self.spans, time.perf_counter_ns, NOTES.get(name)

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            rec = [name, 0, 0, stack[-1] if stack else -1, self.op, self.phase, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if note is not None:
                rec[6] = note(result)
            if name == "entropy.numeric_kl" and self.op is not None:
                self._kl_done()
            return result

        return wrapper

    def _kl_done(self) -> None:
        self.kl_sampled += 1
        if self.kl_sampled == KL_SAMPLE:
            for owner, attr, original in self._density_undo:
                setattr(owner, attr, original)

    def _count(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if self.op is not None:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = owner.__dict__[attr]
        self._undo.append((owner, attr, original))
        if make.args[0] == "sources.mixture_density":
            self._density_undo.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def __enter__(self) -> "Tracer":
        for name, modules in SPANS.items():
            attr = name.rpartition(".")[2]
            for module in modules:
                owner = _resolve(module)
                if attr in owner.__dict__:
                    self._patch(owner, attr, functools.partial(self._span, name))
        for name, sites in COUNTS.items():
            for owner_path, attr in sites:
                owner = _resolve(owner_path)
                if attr in owner.__dict__:
                    self._patch(owner, attr, functools.partial(self._count, name))
        return self

    def __exit__(self, *exc: Any) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def write(self, path: Path) -> None:
        """Spans as gzipped tab-separated lines, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tname\tstart_ns\tend_ns\tparent\top\tphase\tnote\n")
            for i, (name, start, end, parent, op, phase, note) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start - t0}\t{end - t0}\t{parent}\t{op}\t{phase}\t{note}\n")


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _p50(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


class SpanIndex:
    """Durations, self times and counts of the op-phase spans of a trace."""

    def __init__(self, tracer: Tracer, phase: str = "op") -> None:
        spans = tracer.spans
        child_ns = [0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child_ns[rec[3]] += rec[2] - rec[1]
        self.spans = spans
        self.ms: dict[str, list[float]] = defaultdict(list)
        self.self_ms: dict[str, float] = defaultdict(float)
        self.by_op: dict[str, list[tuple[int, float]]] = defaultdict(list)
        for i, (name, start, end, _, op, ph, _) in enumerate(spans):
            if op is None or ph != phase:
                continue
            dur = (end - start) / 1e6
            self.ms[name].append(dur)
            self.self_ms[name] += dur - child_ns[i] / 1e6
            self.by_op[name].append((op, dur))
        self.counts = tracer.counts
        self.phase = phase

    def calls(self, name: str) -> int:
        return len(self.ms[name])

    def p50(self, name: str) -> float:
        return _p50(self.ms[name])

    def total(self, name: str) -> float:
        return sum(self.ms[name])

    def notes(self, name: str) -> list[Any]:
        return [r[6] for r in self.spans if r[0] == name and r[4] is not None and r[5] == self.phase]

    def under(self, names: tuple[str, ...], ancestor: str) -> int:
        """Spans named in ``names`` that have an ``ancestor`` span above them."""
        found = 0
        for rec in self.spans:
            if rec[0] in names and rec[4] is not None and rec[5] == self.phase:
                parent = rec[3]
                while parent >= 0 and self.spans[parent][0] != ancestor:
                    parent = self.spans[parent][3]
                found += parent >= 0
        return found


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(ix: SpanIndex) -> dict[str, float]:
    """Per-layer metrics any workload's trace yields.

    Counts read 0 where the workload makes no calls; times are left out.
    """
    kl_calls = ix.calls("entropy.numeric_kl")
    rows = sum(ix.notes("restoration.frontier"))
    pc_rows = sum(ix.notes("rpc_given_d.pc_frontier_given_rd"))
    refined = ix.notes("oracle.binary_min_rate") + ix.notes("oracle.gaussian_min_rate")
    out: dict[str, float] = {
        "entropy.binary_entropy_inv.calls": ix.calls("entropy.binary_entropy_inv"),
        "entropy.binary_entropy_inv.self_ms": ix.self_ms["entropy.binary_entropy_inv"],
        "entropy.numeric_kl.calls": kl_calls,
        "entropy.numeric_kl.ms_p50": ix.p50("entropy.numeric_kl"),
        "entropy.numeric_kl.self_ms": ix.self_ms["entropy.numeric_kl"],
        "sources.mixture_density.calls_per_kl": _ratio(
            ix.counts["sources.mixture_density"], min(kl_calls, KL_SAMPLE)),
        "optimize.bisect_root.calls": ix.calls("optimize.bisect_root"),
        "optimize.bisect_root.self_ms": ix.self_ms["optimize.bisect_root"],
        "optimize.bisect_predicate.calls": ix.calls("optimize.bisect_predicate"),
        "optimize.golden_min.calls": ix.calls("optimize.golden_min"),
    }
    for program in ("rdc_binary", "rdc_gaussian", "rpc_binary", "rpc_gaussian"):
        out[f"closed_form.{program}.ms_p50"] = ix.p50(f"closed_form.{program}")
    out["closed_form.rpc_binary_witness.self_ms"] = ix.self_ms["closed_form.rpc_binary_witness"]
    out["oracle.refined_share"] = _ratio(sum(refined), len(refined))
    out.update({
        "restoration.kl_of_gain.calls": ix.calls("restoration.kl_of_gain"),
        "restoration.kl_of_gain.ms_p50": ix.p50("restoration.kl_of_gain"),
        "restoration.sweep.ms_total": ix.total("restoration.sweep"),
        "restoration.error_rate_reoptimized.ms_total": ix.total("restoration.error_rate_reoptimized"),
        "restoration.frontier.ms_total": ix.total("restoration.frontier"),
        "restoration.frontier.metric_evals_per_row": _ratio(ix.under(METRIC_EVALS, "restoration.frontier"), rows),
        "restoration.monte_carlo_mse.ms_total": ix.total("restoration.monte_carlo_mse"),
        "rpc_given_d.rate_given_pcd.ms_p50": ix.p50("rpc_given_d.rate_given_pcd"),
        "rpc_given_d.rate_given_pcd.calls_per_row": _ratio(
            ix.under(("rpc_given_d.rate_given_pcd",), "rpc_given_d.pc_frontier_given_rd"), pc_rows),
        "rpc_given_d.eval_at.calls": ix.counts["rpc_given_d.eval_at"],
    })
    # a time of a function the workload never called is left out, not 0
    return {k: v for k, v in out.items()
            if not k.endswith((".ms_p50", ".self_ms", ".ms_total")) or ix.calls(k.rpartition(".")[0])}


def oracle_metrics(ix: SpanIndex, probes: SpanIndex, ops: list) -> dict[str, float]:
    """Oracle-stage metrics of the crosscheck op list (cold flags are by construction).

    Grid build time is cold p50 minus warm p50 on the default grid; the
    screen is the same warm query re-run with ``refine=False``, and the
    refinement cost is the paired difference.
    """
    out: dict[str, float] = {}
    for family in ("binary", "gaussian"):
        name = f"oracle.{family}_min_rate"
        warm = [ms for op, ms in ix.by_op[name] if not ops[op].cold and ops[op].grid == "default"]
        cold = [ms for op, ms in ix.by_op[name] if ops[op].cold and ops[op].grid == "default"]
        out[f"{name}.warm_ms_p50"] = _p50(warm)
        out[f"oracle.grid_build_ms.{family}"] = _p50(cold) - _p50(warm) if cold and warm else 0.0
    refine = {op: ms for name in ("oracle.binary_min_rate", "oracle.gaussian_min_rate")
              for op, ms in ix.by_op[name]}
    screen = {op: ms for name in ("oracle.binary_min_rate", "oracle.gaussian_min_rate")
              for op, ms in probes.by_op[name]}
    out["oracle.screen_ms_p50"] = _p50(list(screen.values()))
    out["oracle.refine_ms_p50"] = _p50([refine[op] - ms for op, ms in screen.items() if op in refine])
    return out
