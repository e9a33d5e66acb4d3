"""rdpc benchmark: three seeded closed-loop workloads and a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload curves --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # curves, crosscheck, gate
    python3 perfbench/run.py --self-check

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` is a separate run: it repeats the workload untraced as a
reference, then traced, checks that both give the same output checksum,
and reports the per-layer metrics. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``perfbench/README.md`` for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_PY = Path(__file__).resolve()
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("curves", "crosscheck", "gate")
SETUP_LAUNCHES = 5

# End-to-end metrics, measured with tracing off. Those with a ``bound`` are
# the ones in BENCHMARK.json, in its order; the others are printed by name
# and unit but not gated. ``wall_norm`` is the gated time: ``wall_s``
# divided by the reference kernel's time measured alongside it (see
# ``SpeedProbe``), because on a shared 2-core VM raw seconds of the same
# work were measured 20-40% apart between runs. ``ops_per_s`` is ops over
# ``wall_s``, so it is printed only: gating it too would count every timing
# change twice.
E2E = (
    # name, unit, better, bound, workloads
    ("setup_s", "s", "lower", 0.25, WORKLOADS),
    ("wall_norm", "ref", "lower", 0.25, WORKLOADS),
    ("peak_rss_mb", "MB", "lower", 0.1, WORKLOADS),
    ("wall_s", "s", "lower", None, WORKLOADS),
    ("ops_per_s", "ops/s", "higher", None, WORKLOADS),
    ("ref_kernel_ms", "ms", "lower", None, WORKLOADS),
    ("op_ms_p50", "ms", "lower", None, ("curves", "crosscheck")),
    ("op_ms_tail", "ms", "lower", None, ("curves", "crosscheck")),
    ("frontier_row_ms_p50", "ms", "lower", None, ("curves",)),
    ("cold_query_ms_p50", "ms", "lower", None, ("crosscheck",)),
    ("parallel_speedup", "ratio", "higher", None, ("crosscheck",)),
    ("failed_frac", "fraction", "lower", None, WORKLOADS),
)

# Per-layer metrics of the traced run: name, unit, better, in BENCHMARK.json,
# and the end-to-end metric (on a workload) it should move. This table is the
# one record of that mapping; every traced run prints it. BENCHMARK.json
# lists only counts and ``cli.import_s``: a layer a workload bypasses has no
# calls there and its times would read 0 on every run, and
# ``oracle.refined_share`` and ``trace.overhead_frac`` have no better
# direction (the first follows the input draws, the second rises when a
# wrapped function gets faster).
SUITES = ("entropy", "mgl", "convexity", "oracle-rdc-binary", "oracle-rdc-gaussian",
          "oracle-rpc-gaussian", "rpc-binary-gap-probe", "restoration", "rpc-given-d")
_CLOSED = "curves wall_norm, op_ms_p50, op_ms_tail; gate wall_norm (convexity suite)"
_RPC_BINARY = "gate wall_norm (convexity suite); curves leaves rpc_binary out (ROADMAP item 4)"
LAYER = (
    ("entropy.binary_entropy_inv.calls", "count", "lower", True, "curves op_ms_p50; gate wall_norm (entropy, mgl suites)"),
    ("entropy.binary_entropy_inv.self_ms", "ms", "lower", False, "curves op_ms_p50; gate wall_norm (entropy, mgl suites)"),
    ("entropy.numeric_kl.calls", "count", "lower", True, "gate wall_norm"),
    ("entropy.numeric_kl.ms_p50", "ms", "lower", False, "gate wall_norm"),
    ("entropy.numeric_kl.self_ms", "ms", "lower", False, "gate wall_norm"),
    ("sources.mixture_density.calls_per_kl", "count", "lower", True, "gate wall_norm (ROADMAP item 2a)"),
    ("optimize.bisect_root.calls", "count", "lower", True, "curves op_ms_p50 (binary_entropy_inv); gate wall_norm (Bayes-threshold control, rpc_binary_witness)"),
    ("optimize.bisect_root.self_ms", "ms", "lower", False, "curves op_ms_p50 (binary_entropy_inv); gate wall_norm (Bayes-threshold control, rpc_binary_witness)"),
    ("optimize.bisect_predicate.calls", "count", "lower", True, "curves frontier_row_ms_p50; gate wall_norm"),
    ("optimize.golden_min.calls", "count", "lower", True, "curves frontier_row_ms_p50; gate wall_norm"),
    ("closed_form.rdc_binary.ms_p50", "ms", "lower", False, _CLOSED),
    ("closed_form.rdc_gaussian.ms_p50", "ms", "lower", False, _CLOSED),
    ("closed_form.rpc_binary.ms_p50", "ms", "lower", False, _RPC_BINARY),
    ("closed_form.rpc_gaussian.ms_p50", "ms", "lower", False, _CLOSED),
    ("closed_form.rpc_binary_witness.self_ms", "ms", "lower", False, _RPC_BINARY),
    ("oracle.binary_min_rate.warm_ms_p50", "ms", "lower", False, "crosscheck op_ms_p50, wall_norm"),
    ("oracle.gaussian_min_rate.warm_ms_p50", "ms", "lower", False, "crosscheck op_ms_p50, wall_norm"),
    ("oracle.grid_build_ms.binary", "ms", "lower", False, "crosscheck cold_query_ms_p50, op_ms_tail"),
    ("oracle.grid_build_ms.gaussian", "ms", "lower", False, "crosscheck cold_query_ms_p50, op_ms_tail"),
    ("oracle.grid_cells_built", "count", "lower", False, "crosscheck cold_query_ms_p50, op_ms_tail"),
    ("oracle.grid_bytes_computed", "bytes", "lower", False, "crosscheck cold_query_ms_p50, op_ms_tail"),
    ("oracle.screen_ms_p50", "ms", "lower", False, "crosscheck op_ms_p50"),
    ("oracle.refine_ms_p50", "ms", "lower", False, "crosscheck op_ms_p50"),
    ("oracle.refined_share", "fraction", "higher", False, "crosscheck op_ms_p50"),
    ("restoration.kl_of_gain.calls", "count", "lower", True, "gate wall_norm"),
    ("restoration.kl_of_gain.ms_p50", "ms", "lower", False, "gate wall_norm"),
    ("restoration.sweep.ms_total", "ms", "lower", False, "gate wall_norm"),
    ("restoration.error_rate_reoptimized.ms_total", "ms", "lower", False, "gate wall_norm"),
    ("restoration.frontier.ms_total", "ms", "lower", False, "gate wall_norm (ROADMAP item 2c)"),
    ("restoration.frontier.metric_evals_per_row", "count", "lower", True, "gate wall_norm (ROADMAP item 2c)"),
    ("restoration.monte_carlo_mse.ms_total", "ms", "lower", False, "gate wall_norm, as the control: KL work leaves it unchanged"),
    ("rpc_given_d.rate_given_pcd.ms_p50", "ms", "lower", False, "curves frontier_row_ms_p50; gate wall_norm (rpc-given-d suite)"),
    ("rpc_given_d.rate_given_pcd.calls_per_row", "count", "lower", True, "curves frontier_row_ms_p50; gate wall_norm (rpc-given-d suite)"),
    ("rpc_given_d.eval_at.calls", "count", "lower", True, "curves frontier_row_ms_p50; gate wall_norm (rpc-given-d suite)"),
    *((f"verify.suite_ms.{s}", "ms", "lower", False, "gate wall_norm") for s in SUITES),
    ("cli.import_s", "s", "lower", True, "setup_s on every workload"),
    ("trace.overhead_frac", "fraction", "lower", False, "none: reported so the tracing cost is known"),
)


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


if not (SRC / "rdpc" / "__init__.py").is_file():
    _fail(f"no rdpc sources under {SRC}; run from a checkout of the repository")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import rdpc  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

if Path(rdpc.__file__).resolve().parent != (SRC / "rdpc").resolve():
    _fail(f"imported rdpc from {rdpc.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def environment() -> dict[str, Any]:
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": wl.nproc(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "rdpc": rdpc.__version__}


def tail(lat_ms: list[float]) -> tuple[float, str, int] | None:
    """Highest of p99.9/p99/p90 that leaves at least 10 samples beyond it."""
    for q in (99.9, 99.0, 90.0):
        value = float(np.percentile(lat_ms, q))
        beyond = sum(x > value for x in lat_ms)
        if beyond >= 10:
            return value, f"p{q:g}", beyond
    return None


def median_launch(argv: list[str]) -> tuple[float, list[str]]:
    """Median wall time of SETUP_LAUNCHES fresh interpreters, and their stdout."""
    times, outs = [], []
    for _ in range(SETUP_LAUNCHES):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=150)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            _fail(f"launch {argv[1:]} failed:\n{proc.stderr}")
        outs.append(proc.stdout.strip())
    return statistics.median(times), outs


def setup_child(workload: str, seed: int) -> str:
    """The workload's first op in this (fresh) interpreter; digest of its output."""
    if workload == "gate":
        OUT_DIR.mkdir(exist_ok=True)
        _, _, data = wl.run_verify(seed, OUT_DIR / f"setup-{seed}.json", ("entropy",))
        text = wl.first_suite_text(data)
    else:
        op = wl.first_op(workload, seed)
        out = wl.call_curve(op) if workload == "curves" else wl.call_oracle(op, 1)
        text = wl.canonical(out)
    return hashlib.sha256(text.encode()).hexdigest()


def ms(lat_ns: list[int]) -> list[float]:
    return [x / 1e6 for x in lat_ns]


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

class Run:
    """Everything one invocation measured, checked and will print."""

    def __init__(self, workload: str, seed: int, seconds: int) -> None:
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.ops = wl.op_list(workload, seed, seconds)
        self.metrics: dict[str, float] = {}
        self.notes: list[str] = []
        self.failures: list[str] = []
        self.problems: list[str] = []   # benchmark self-checks that did not hold
        self.attempted = 0
        self.checksum = ""
        self.first = ""
        self.notes.append(f"op list: {len(self.ops)} ops, sha256 {wl.op_list_digest(self.ops)}")

    # -- untraced ----------------------------------------------------------

    def measure(self) -> None:
        setup_s, digests = median_launch(
            [sys.executable, str(RUN_PY), "--setup-child", "--workload", self.workload,
             "--seed", str(self.seed)])
        self.metrics["setup_s"] = setup_s
        self.notes.append(f"setup_s: median of {SETUP_LAUNCHES} launches (import rdpc, first op)")
        getattr(self, f"_measure_{self.workload}")()
        self.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if any(d != self.first for d in digests):
            self.problems.append("a fresh interpreter gave another first-op output")
        if self.workload != "gate":
            # after peak_rss_mb is read: the probe may build one more grid
            found = wl.defect_probe(oracle=self.workload == "crosscheck")
            self.notes.append(
                f"known defect (ROADMAP item 4), checked outside the timed ops and the result: "
                f"rpc_binary fails {len(found)} of {len(wl.DEFECT_P)} probe points at "
                f"a={wl.DEFECT_SOURCE[0]}, p1={wl.DEFECT_SOURCE[1]}, C={wl.DEFECT_C}")
            self.notes += [f"known defect: {f}" for f in found]

    def _rates(self, lat_ns: list[int], probe: wl.SpeedProbe) -> None:
        wall, kernel = sum(lat_ns), probe.kernel_ns()
        self.metrics.update(wall_s=wall / 1e9, ops_per_s=len(lat_ns) / wall * 1e9,
                            wall_norm=wall / kernel, ref_kernel_ms=kernel / 1e6)
        self.notes.append(f"wall_norm: wall_s over the mean of {len(probe.samples)} "
                          f"reference-kernel samples (middle 80%)")

    def _shares(self, lat_ns: list[int], keys: list[str]) -> None:
        """Print the share of ``wall_s`` each kind of op took."""
        spent: dict[str, int] = {}
        for x, key in zip(lat_ns, keys):
            spent[key] = spent.get(key, 0) + x
        total = sum(lat_ns)
        self.notes.append("time share: " + ", ".join(
            f"{key} {x / total:.1%}" for key, x in spent.items()))

    def _latency(self, lat: list[float]) -> None:
        self.metrics["op_ms_p50"] = statistics.median(lat)
        found = tail(lat)
        if found is not None:
            self.metrics["op_ms_tail"] = found[0]
            self.notes.append(f"op_ms_tail is {found[1]} of {len(lat)} ops, {found[2]} beyond it")

    def _measure_curves(self) -> None:
        with wl.SpeedProbe() as probe:
            res = wl.run_loop(self.ops, wl.call_curve, wl.check_curve, probe=probe)
        self._take(res)
        lat = ms(res.lat_ns)
        points = [x for x, op in zip(lat, self.ops) if op.kind != "frontier_row"]
        rows = [x for x, op in zip(lat, self.ops) if op.kind == "frontier_row"]
        self._rates(res.lat_ns, probe)
        self._shares(res.lat_ns, [op.kind for op in self.ops])
        self._latency(points)
        self.metrics["frontier_row_ms_p50"] = statistics.median(rows) if rows else 0.0
        self.notes.append(f"{len(points)} point ops, {len(rows)} frontier rows")

    def _measure_crosscheck(self) -> None:
        n = wl.nproc()
        wl.warm_up_oracle()
        with wl.SpeedProbe() as probe:
            one = wl.run_loop(self.ops, lambda op: wl.call_oracle(op, 1), wl.check_oracle,
                              keep=True, probe=probe)
        with wl.SpeedProbe() as probe_many:
            many = wl.run_loop(self.ops, lambda op: wl.call_oracle(op, n), wl.check_oracle,
                               keep=True, probe=probe_many)
        self._take(one)
        self.attempted += len(self.ops)
        self.failures += [f"workers={n} {f}" for f in many.failures]
        self.failures += [f"op {i}: workers={n} answer differs from workers=1"
                          for i, (a, b) in enumerate(zip(one.outputs, many.outputs)) if a != b]
        lat, wall_one, wall_many = ms(one.lat_ns), sum(one.lat_ns) / 1e9, sum(many.lat_ns) / 1e9
        cold = [x for x, op in zip(lat, self.ops) if op.cold]
        self._rates(one.lat_ns, probe)
        self._shares(one.lat_ns, [f"{op.kind} {op.grid} {'cold' if op.cold else 'warm'}"
                                  for op in self.ops])
        self._latency(lat)
        self.metrics["cold_query_ms_p50"] = statistics.median(cold)
        self.metrics["parallel_speedup"] = wall_one / wall_many
        self.notes.append(
            f"workers=1 baseline: {len(self.ops)} queries in {wall_one:.3f} s; "
            f"workers={n}: {wall_many:.3f} s; {len(cold)} cold queries "
            f"({len(cold) / len(self.ops):.1%} of queries)")

    def _measure_gate(self) -> None:
        walls, norms, kernels, sums = [], [], [], set()
        while True:
            with wl.SpeedProbe() as probe:
                wall, code, data = wl.run_verify(self.seed, OUT_DIR / f"verify-{self.seed}.json",
                                                 probe=probe)
            walls.append(wall / 1e9)
            kernels.append(probe.kernel_ns())
            norms.append(wall / kernels[-1])
            sums.add(hashlib.sha256(data).hexdigest())
            self.attempted += len(SUITES)
            self.failures += wl.check_report(code, data)
            if sum(walls) >= self.seconds:
                break
        self.checksum = sums.pop()
        self.first = hashlib.sha256(wl.first_suite_text(data).encode()).hexdigest()
        if sums:
            self.problems.append("repeated verify runs wrote different reports")
        wall = statistics.median(walls)
        self.metrics.update(wall_s=wall, ops_per_s=len(SUITES) / wall,
                            wall_norm=statistics.median(norms),
                            ref_kernel_ms=statistics.median(kernels) / 1e6)
        self.notes.append(f"{len(walls)} verify run(s) of {len(SUITES)} suites; wall_s, wall_norm "
                          f"and ref_kernel_ms are medians over them")

    def _take(self, res: wl.Outcome) -> None:
        self.attempted += len(self.ops)
        self.failures += res.failures
        self.checksum, self.first = res.checksum, res.first

    # -- traced ------------------------------------------------------------

    def trace(self) -> None:
        import_s, _ = median_launch(
            [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r}); import rdpc"])
        self.metrics["cli.import_s"] = import_s
        tracer = tr.Tracer()
        getattr(self, f"_trace_{self.workload}")(tracer)
        path = OUT_DIR / f"spans-{self.workload}-seed{self.seed}.tsv.gz"
        tracer.write(path)
        self.notes.append(f"{len(tracer.spans)} spans written to {path.relative_to(ROOT)}")

    def _compare(self, same: bool, overhead: float) -> None:
        self.metrics["trace.overhead_frac"] = overhead
        if not same:
            self.problems.append("tracing changed the output")
        self.notes.append(f"untraced and traced outputs {'match' if same else 'DIFFER'}")

    def _trace_curves(self, tracer: tr.Tracer) -> None:
        plain = wl.run_loop(self.ops, wl.call_curve, wl.check_curve)
        with tracer:
            res = wl.run_loop(self.ops, wl.call_curve, wl.check_curve, tracer=tracer)
        self._take(res)
        self._compare(plain.checksum == res.checksum, sum(res.lat_ns) / sum(plain.lat_ns) - 1)
        self.metrics.update(tr.layer_metrics(tr.SpanIndex(tracer)))

    def _trace_crosscheck(self, tracer: tr.Tracer) -> None:
        wl.warm_up_oracle()
        plain = wl.run_loop(self.ops, lambda op: wl.call_oracle(op, 1), wl.check_oracle)

        def probe(i: int, op: wl.Op, out: Any) -> None:
            # the same warm query without refinement times the grid screen
            if not op.cold:
                tracer.op, tracer.phase = i, "probe"
                wl.call_oracle(op, 1, refine=False)
                tracer.op, tracer.phase = None, "op"

        with tracer:
            res = wl.run_loop(self.ops, lambda op: wl.call_oracle(op, 1), wl.check_oracle,
                              tracer=tracer, after=probe)
        self._take(res)
        self._compare(plain.checksum == res.checksum, sum(res.lat_ns) / sum(plain.lat_ns) - 1)
        ix = tr.SpanIndex(tracer)
        self.metrics.update(tr.layer_metrics(ix))
        self.metrics.update(tr.oracle_metrics(ix, tr.SpanIndex(tracer, "probe"), self.ops))
        cells = [_grid_cells(op) for op in self.ops if op.cold]
        self.metrics["oracle.grid_cells_built"] = sum(c for c, _ in cells)
        self.metrics["oracle.grid_bytes_computed"] = sum(c * 8 * k for c, k in cells)
        self.notes.append("oracle.grid_bytes_computed counts the float64 arrays each grid holds "
                          "(4 binary, 5 Gaussian); it is computed, not measured")

    def _trace_gate(self, tracer: tr.Tracer) -> None:
        suites, probes, untraced = [], [], 0.0
        for name in SUITES:
            t0 = time.perf_counter_ns()
            report = rdpc.run_suites([name], seed=self.seed, workers=1)
            took = (time.perf_counter_ns() - t0) / 1e9
            untraced += took
            self.metrics[f"verify.suite_ms.{name}"] = took * 1e3
            suites += report.suites
            probes += report.gap_probes
        merged = rdpc.VerifyReport(seed=self.seed, suites=suites, gap_probes=probes).to_dict()
        merged["tool_version"] = rdpc.__version__
        tracer.op = 0
        with tracer:
            wall, code, data = wl.run_verify(self.seed, OUT_DIR / f"verify-{self.seed}.json")
        tracer.op = None
        self.attempted += len(SUITES)
        self.failures += wl.check_report(code, data)
        self.checksum = hashlib.sha256(data).hexdigest()
        same = json.dumps(json.loads(data), sort_keys=True) == json.dumps(merged, sort_keys=True)
        self._compare(same, wall / 1e9 / untraced - 1)
        self.notes.append("the untraced reference is the nine suites run one by one "
                          "(run_suites([name])); trace.overhead_frac divides by their sum")
        self.metrics.update(tr.layer_metrics(tr.SpanIndex(tracer)))

    # -- output ------------------------------------------------------------

    def report(self, trace: bool) -> None:
        failed = len(self.failures)
        correct = failed == 0 and not self.problems
        if not trace:
            self.metrics["failed_frac"] = failed / self.attempted
        print(f"rdpc benchmark: workload={self.workload} seed={self.seed} "
              f"seconds={self.seconds} trace={int(trace)}")
        print("environment: " + json.dumps(environment(), sort_keys=True))
        print(f"output checksum (sha256): {self.checksum}")
        for note in self.notes:
            print(f"note: {note}")
        if trace:
            for name, unit, _, in_json, moves in LAYER:
                value = self.metrics.get(name)
                shown = "not run on this workload" if value is None else f"{value:.6g} {unit}"
                flag = "" if in_json else "  [printed only]"
                print(f"layer {name} = {shown}  (should move: {moves}){flag}")
        else:
            for name, unit, _, bound, used in E2E:
                if self.workload in used:
                    value = self.metrics.get(name)
                    shown = "n/a" if value is None else f"{value:.6g} {unit}"
                    gate = f"bound {bound}" if bound is not None else "printed only"
                    print(f"metric {name} = {shown}  ({gate})")
        print(f"failed_frac = {failed}/{self.attempted}"
              f" = {failed / self.attempted:.4f}")
        for failure in self.failures[:8]:
            print(f"failed: {failure}")
        if failed > 8:
            print(f"failed: ... {failed - 8} more")
        for problem in self.problems:
            print(f"benchmark check failed: {problem}")
        names = ([n for n, _, _, in_json, _ in LAYER if in_json] if trace
                 else [n for n, _, _, bound, _ in E2E if bound is not None])
        units = {n: u for n, u, *_ in (LAYER if trace else E2E)}
        result = {
            "correct": correct, "attempted": self.attempted, "failed": failed,
            "metrics": {n: {"value": self.metrics.get(n, 0.0), "unit": units[n]} for n in names},
        }
        print(json.dumps(result))


def _grid_cells(op: wl.Op) -> tuple[int, int]:
    """(cells, float64 arrays per cell) of the grid a cold query builds."""
    grid = wl.GRIDS[(op.kind, op.grid)]
    if op.kind == "binary":
        n = int(round(1.0 / grid["resolution"])) + 1
        return n * n, 4
    return grid["sigma_steps"] * grid["theta_steps"], 5


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------

def run_all(seed: int, seconds: int, trace: int) -> int:
    """Each workload in its own process, one after another; a summary table."""
    table: dict[str, dict[str, Any]] = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(RUN_PY), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        table[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    print("summary:")
    for workload, result in table.items():
        cells = ", ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items())
        print(f"  {workload}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} {cells}")
    return 0


def self_check() -> int:
    """Checks of the benchmark itself; exit code 0 when all hold."""
    problems = []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the code")
    if [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] != [
            (n, u, b, bound) for n, u, b, bound, _ in E2E if bound is not None]:
        problems.append("BENCHMARK.json end_to_end differs from the code")
    if [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] != [
            (n, u, b) for n, u, b, in_json, _ in LAYER if in_json]:
        problems.append("BENCHMARK.json per_layer differs from the code")
    if SUITES != rdpc.SUITE_NAMES:
        problems.append("the verify suites differ from SUITES")
    for workload in WORKLOADS:
        one = wl.op_list_digest(wl.op_list(workload, 1, 2))
        if one != wl.op_list_digest(wl.op_list(workload, 1, 2)):
            problems.append(f"{workload}: the same seed gave a different op list")
        if one == wl.op_list_digest(wl.op_list(workload, 2, 2)):
            problems.append(f"{workload}: another seed gave the same op list")
    curves = wl.op_list("curves", 1, 1)[:500]
    cross = wl.op_list("crosscheck", 1, 1)
    for name, ops, call, check in (
            ("curves", curves, wl.call_curve, wl.check_curve),
            ("crosscheck", cross, lambda op: wl.call_oracle(op, 1), wl.check_oracle)):
        if wl.run_loop(ops, call, check).checksum != wl.run_loop(ops, call, check).checksum:
            problems.append(f"{name}: the same ops gave different checksums")
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / "self-check.json"
    reports = {wl.run_verify(1, out, ("entropy", "rpc-given-d"))[2] for _ in range(2)}
    if len(reports) != 1:
        problems.append("gate: the same seed gave different report bytes")
    for problem in problems:
        print(f"self-check failed: {problem}")
    print("self-check: " + ("FAIL" if problems else "all checks hold"))
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    par = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    par.add_argument("--workload", choices=(*WORKLOADS, "all"))
    par.add_argument("--seed", type=int, default=1)
    par.add_argument("--seconds", type=int, default=10)
    par.add_argument("--trace", type=int, choices=(0, 1), default=0)
    par.add_argument("--self-check", action="store_true")
    par.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = par.parse_args(argv)
    if args.self_check:
        return self_check()
    if args.workload is None:
        par.error("--workload is required")
    if args.seconds < 1:
        par.error("--seconds must be at least 1")
    if args.setup_child:
        print(setup_child(args.workload, args.seed))
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    OUT_DIR.mkdir(exist_ok=True)
    run = Run(args.workload, args.seed, args.seconds)
    if args.trace:
        run.trace()
    else:
        run.measure()
    run.report(bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
