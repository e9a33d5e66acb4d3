"""The three seeded workloads: op lists, closed-loop runners and output checks.

Every workload is a closed loop: one caller sends an op to rdpc, waits for
the result, and only then sends the next. Each op is timed on its own; its
output is checked outside the timed region. rdpc sees only the generated
inputs, never the seed.

* ``curves``     surface sweeps of three closed-form programs plus
                 pinned-distortion frontier rows, as the CLI's ``surface``
                 and ``rpc-given-d`` run them (``closed_form``, ``entropy``,
                 ``optimize``, ``rpc_given_d``; no oracle grids, no KL).
* ``crosscheck`` brute-force oracle queries checked against the closed
                 forms, first at ``workers=1``, then again at ``workers=nproc``.
* ``gate``       ``rdpc verify`` through ``cli.main``: all nine suites.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import signal
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

import rdpc
from rdpc import cli

# A witness or oracle argmin must attain its rate and meet each constraint
# to this absolute tolerance; the oracle must match the closed form to
# ORACLE_TOL. Both are the tolerances the verify suites use.
WITNESS_TOL = 1e-9
ORACLE_TOL = 1e-3

# rpc_binary is wrong for interior C (ROADMAP item 4). The zero-TV witness
# it returns never attains the rate it returns, at any P; and below the TV of
# the backward witness, TV*(C), the rate itself is too low: at a=0.3,
# p1=0.1, C=0.6 it returns 0.493322 for every P, while the oracle gives
# 0.498469 at P=0 and meets it only from TV*(0.6) = 0.0326 up. A workload
# must be one on which no op fails, and the fix belongs in rdpc, so curves
# leaves the rpc_binary family out and crosscheck asks binary P queries only
# from TV*(C) up, where the closed form it is checked against is right.
# The checks are unchanged. The defect stays in view: every curves and
# crosscheck run re-checks the DEFECT_P points below, untimed and outside
# its result, and prints each failure. When rdpc fixes rpc_binary, put the
# family back in CURVE_FAMILIES and draw binary P from 0 again.
DEFECT_SOURCE = (0.3, 0.1)
DEFECT_C = 0.6
DEFECT_P = (0.0, 0.01, 0.02, 0.03, 0.04, 0.06)

# curves follows the call shapes of the CLI's plotting commands. A cycle is
# one `rdpc surface` sweep per closed-form family, in turn, each on a fresh
# source over a SURFACE_STEPS x SURFACE_STEPS grid, then one
# `rdpc rpc-given-d --rate R` frontier on a fresh Gaussian source: D at the
# CLI's default shares of var_x and FRONTIER_C_STEPS values over the CLI's
# default C range, h(S) - 0.7 to h(S) + 0.1. There is no record of how rdpc
# is used, so the shares are choices: the three families get equal point
# counts (the CLI treats them alike), and one frontier per three surfaces.
# Grids are smaller than the CLI's 50-step default so that a run spans about
# 50 sources per family: the cost of a surface or frontier varies by a third
# from source to source, and a handful of sources would make the run time
# depend on the seed.
CURVE_FAMILIES = ("rdc_binary", "rdc_gaussian", "rpc_gaussian")
SURFACE_STEPS = 20
FRONTIER_D_SHARES = (0.5, 0.6, 0.8)
FRONTIER_C_STEPS = 10
CURVE_CYCLES_PER_S = 5

# crosscheck follows the call shape of the verify oracle suites: one source
# per block of BLOCK_QUERIES queries (the suites ask 5 or 6 per source),
# binary and Gaussian blocks in turn (the suites ask 12 queries of each
# family), D and P constraints in turn within a block. The suites run only
# the default grids; one block in five on a coarser or finer grid is a
# choice.
BLOCK_QUERIES = 6
BLOCK_CYCLE = ("binary", "gaussian", "binary", "gaussian", "coarse",
               "binary", "gaussian", "binary", "gaussian", "fine")
CROSSCHECK_BLOCKS_PER_S = 5
GRIDS = {
    ("binary", "default"): {"resolution": 1e-3},
    ("binary", "coarse"): {"resolution": 2e-3},
    ("binary", "fine"): {"resolution": 8e-4},
    ("gaussian", "default"): {"sigma_steps": 801, "theta_steps": 801},
    ("gaussian", "coarse"): {"sigma_steps": 401, "theta_steps": 401},
    ("gaussian", "fine"): {"sigma_steps": 1001, "theta_steps": 1001},
}
# binary perception budgets: TV*(C) plus one of these steps
BINARY_P_STEPS = tuple(0.005 * k for k in range(7))


def nproc() -> int:
    """CPUs this process may run on, never more than ``os.cpu_count()``."""
    return max(1, min(len(os.sched_getaffinity(0)), os.cpu_count() or 1))


@dataclass(frozen=True)
class Op:
    """One call into rdpc. ``cold`` and ``grid`` describe crosscheck queries."""

    kind: str
    args: tuple
    cold: bool = False
    grid: str = "default"


@dataclass
class Outcome:
    """What one pass over an op list produced."""

    lat_ns: list[int]
    checksum: str
    first: str                  # sha256 of the first op's canonical output
    failures: list[str]
    outputs: list[str] | None = None


# ---------------------------------------------------------------------------
# input generation (plain math: rdpc is not used to make its own inputs)
# ---------------------------------------------------------------------------

def _h2(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


def _binary_source(rng: np.random.Generator) -> rdpc.BinaryPairSource:
    a = float(rng.uniform(0.1, 0.5))
    return rdpc.BinaryPairSource(a, a * float(rng.uniform(0.05, 0.8)))


def _gaussian_source(rng: np.random.Generator, rho_lo: float = 0.3) -> rdpc.GaussianPairSource:
    var_x = float(rng.uniform(0.5, 2.0))
    var_s = float(rng.uniform(0.3, 1.5))
    rho = float(rng.uniform(rho_lo, 0.95)) * (1.0 if rng.random() < 0.5 else -1.0)
    return rdpc.GaussianPairSource(
        float(rng.uniform(-1.0, 1.0)), float(rng.uniform(-1.0, 1.0)),
        var_x, var_s, rho * math.sqrt(var_x * var_s),
    )


def _h_s(src: rdpc.GaussianPairSource) -> float:
    return 0.5 * math.log(2.0 * math.pi * math.e * src.var_s)


def _c_floor(src: rdpc.GaussianPairSource) -> float:
    rho2 = src.cov**2 / (src.var_x * src.var_s)
    return _h_s(src) + 0.5 * math.log(1.0 - rho2)


def _h2_inv(h: float) -> float:
    """The p in [0, 1/2] with _h2(p) = h, by bisection."""
    lo, hi = 0.0, 0.5
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if _h2(mid) < h else (lo, mid)
    return hi


def _backward_tv(src: rdpc.BinaryPairSource, c: float) -> float:
    """TV*(c): TV between X and Xhat of the backward witness at C = c.

    From there up rpc_binary's rate is right; for c >= H(a) the rate is 0
    at every P.
    """
    if c >= _h2(src.a):
        return 0.0
    b = (src.a - src.p1) / (1.0 - 2.0 * src.p1)
    eps = max((_h2_inv(c) - src.p1) / (1.0 - 2.0 * src.p1), 0.0)
    return eps * (1.0 - 2.0 * b) / (1.0 - 2.0 * eps)


def _binary_c(rng: np.random.Generator, src: rdpc.BinaryPairSource) -> float:
    return float(rng.uniform(_h2(src.p1), 1.0))


def _gaussian_c(rng: np.random.Generator, src: rdpc.GaussianPairSource, top: float) -> float:
    return float(rng.uniform(_c_floor(src) + 0.01, _h_s(src) + top))


def _above(lo: float, hi: float) -> list[float]:
    """SURFACE_STEPS values from lo (left out: it is a feasibility floor) to hi."""
    return [float(v) for v in np.linspace(lo, hi, SURFACE_STEPS + 1)[1:]]


def _surface(rng: np.random.Generator, family: str) -> Iterator[Op]:
    """One `rdpc surface` sweep: every (D or P, C) pair of a grid, one source."""
    if family == "rdc_binary":
        src = _binary_source(rng)
        cs = _above(_h2(src.p1), 1.0)
        axis = [float(v) for v in np.linspace(0.0, 0.5, SURFACE_STEPS)]
    else:
        src = _gaussian_source(rng)
        cs = _above(_c_floor(src) + 0.01, _h_s(src) + 0.3)
        if family == "rdc_gaussian":
            axis = [float(v) * src.var_x for v in np.linspace(0.05, 1.5, SURFACE_STEPS)]
        else:
            axis = [float(v) for v in np.linspace(0.0, 1.0, SURFACE_STEPS)]
    for x in axis:
        for c in cs:
            yield Op(family, (src, x, c))


def _frontier(rng: np.random.Generator) -> Iterator[Op]:
    """One `rdpc rpc-given-d --rate R` frontier on one source, one C per row."""
    src = _gaussian_source(rng, rho_lo=0.6)
    level = float(rng.uniform(0.8, 1.6))
    h = _h_s(src)
    cs = [float(v) for v in np.linspace(h - 0.7, h + 0.1, FRONTIER_C_STEPS)]
    for share in FRONTIER_D_SHARES:
        for c in cs:
            yield Op("frontier_row", (src, share * src.var_x, level, c))


def curve_ops(seed: int) -> Iterator[Op]:
    """Endless curves op stream; any prefix is the same for a given seed."""
    rng = np.random.default_rng([seed, 1])
    while True:
        for family in CURVE_FAMILIES:
            yield from _surface(rng, family)
        yield from _frontier(rng)


def crosscheck_ops(seed: int) -> Iterator[Op]:
    """Endless crosscheck op stream, one block of queries per fresh source."""
    rng = np.random.default_rng([seed, 2])
    for block in itertools.count():
        cycle, pos = divmod(block, len(BLOCK_CYCLE))
        slot = BLOCK_CYCLE[pos]
        if slot in ("binary", "gaussian"):
            family, grid = slot, "default"
        else:  # the off-default blocks alternate family from cycle to cycle
            family = ("binary", "gaussian")[(cycle + (slot == "fine")) % 2]
            grid = slot
        if family == "binary":
            src = _binary_source(rng)
        else:
            src = _gaussian_source(rng)
        for q in range(BLOCK_QUERIES):
            if family == "binary" and q % 2 == 0:
                cons = {"D": float(rng.uniform(0.02, 0.4)), "C": _binary_c(rng, src)}
            elif family == "binary":
                c = _binary_c(rng, src)
                step = BINARY_P_STEPS[int(rng.integers(len(BINARY_P_STEPS)))]
                cons = {"P": _backward_tv(src, c) + step, "C": c}
            elif q % 2 == 0:
                # D stays below 2.25 so every query of a block shares one grid
                cons = {"D": float(rng.uniform(0.05, 1.1)) * src.var_x,
                        "C": _gaussian_c(rng, src, 0.2)}
            else:
                cons = {"P": float(rng.uniform(0.001, 1.0)),
                        "C": _gaussian_c(rng, src, 0.2)}
            yield Op(family, (src, tuple(sorted(cons.items()))), cold=q == 0, grid=grid)


def curve_count(seconds: int) -> int:
    cycle = len(CURVE_FAMILIES) * SURFACE_STEPS**2 + len(FRONTIER_D_SHARES) * FRONTIER_C_STEPS
    return max(1, round(CURVE_CYCLES_PER_S * seconds)) * cycle


def crosscheck_count(seconds: int) -> int:
    return max(1, round(CROSSCHECK_BLOCKS_PER_S * seconds)) * BLOCK_QUERIES


def first_op(workload: str, seed: int) -> Op:
    stream = {"curves": curve_ops, "crosscheck": crosscheck_ops}.get(workload)
    return next(stream(seed)) if stream else Op("verify", (seed,))


def op_list(workload: str, seed: int, seconds: int) -> list[Op]:
    if workload == "curves":
        return list(itertools.islice(curve_ops(seed), curve_count(seconds)))
    if workload == "crosscheck":
        return list(itertools.islice(crosscheck_ops(seed), crosscheck_count(seconds)))
    return [Op("verify", (seed,))]


def op_list_digest(ops: list[Op]) -> str:
    h = hashlib.sha256()
    for op in ops:
        h.update(repr(op).encode())
        h.update(b"\n")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# calls and checks
# ---------------------------------------------------------------------------

_CLOSED = {
    "rdc_binary": ("D", "C"), "rpc_binary": ("P", "C"),
    "rdc_gaussian": ("D", "C"), "rpc_gaussian": ("P", "C"),
}


def call_curve(op: Op) -> Any:
    # looked up on the package at call time so a traced run sees wrappers
    if op.kind == "frontier_row":
        src, d, level, c = op.args
        return rdpc.pc_frontier_given_rd(src, d, level, [c])
    return getattr(rdpc, op.kind)(*op.args)


def _stats(src: Any, witness: Any) -> rdpc.ChannelStats:
    if isinstance(src, rdpc.BinaryPairSource):
        return rdpc.binary_channel_stats(src, witness)
    return rdpc.gaussian_recon_stats(src, witness)


def _excess(stats: rdpc.ChannelStats, bounds: dict[str, float]) -> str | None:
    values = {"D": stats.distortion, "P": stats.perception, "C": stats.cond_entropy_s}
    for key, bound in bounds.items():
        if not values[key] <= bound + WITNESS_TOL:
            return f"{key}={values[key]!r} exceeds {bound!r}"
    return None


def check_curve(op: Op, out: Any) -> str | None:
    """None when the output certifies itself, else the reason it does not."""
    if op.kind == "frontier_row":
        src, d, level, c = op.args
        row = out[0]
        if not row.feasible:
            return None
        s = row.sigma_xh
        wit = rdpc.GaussianReconstruction(src.mu_x, s * s, 0.5 * (src.var_x + s * s - d))
        stats = rdpc.gaussian_recon_stats(src, wit)
        if abs(stats.distortion - d) > WITNESS_TOL:
            return f"witness MSE {stats.distortion!r} is not the pinned D {d!r}"
        if abs(stats.mutual_info - row.rate) > WITNESS_TOL:
            return f"witness I={stats.mutual_info!r} but rate={row.rate!r}"
        if row.rate > level + WITNESS_TOL:
            return f"rate {row.rate!r} over the budget {level!r}"
        return _excess(stats, {"P": row.min_p, "C": c})
    if not out.feasible:
        return "infeasible although C was drawn above the feasibility floor"
    stats = _stats(op.args[0], out.witness)
    if abs(stats.mutual_info - out.rate) > WITNESS_TOL:
        return f"witness I={stats.mutual_info!r} but rate={out.rate!r}"
    return _excess(stats, dict(zip(_CLOSED[op.kind], op.args[1:])))


def defect_probe(oracle: bool) -> list[str]:
    """Failures of rpc_binary at the DEFECT_P points, one line each.

    With ``oracle`` each point is a crosscheck query, else a curves point.
    """
    src = rdpc.BinaryPairSource(*DEFECT_SOURCE)
    failures = []
    for p in DEFECT_P:
        if oracle:
            op = Op("binary", (src, (("C", DEFECT_C), ("P", p))))
            reason = check_oracle(op, call_oracle(op, 1))
        else:
            op = Op("rpc_binary", (src, p, DEFECT_C))
            reason = check_curve(op, call_curve(op))
        if reason is not None:
            failures.append(f"P={p}: {reason}")
    return failures


def warm_up_oracle() -> None:
    """One untimed fine-grid query on a source outside every op list.

    Without it the first timed pass alone pays the allocator's first
    large-array costs, which biases the workers=1 leg against the second.
    """
    rdpc.binary_min_rate(rdpc.BinaryPairSource(0.25, 0.05), {"D": 0.1},
                         **GRIDS[("binary", "fine")])


def call_oracle(op: Op, workers: int, refine: bool = True) -> rdpc.OracleResult:
    src, cons = op.args
    fn = rdpc.binary_min_rate if op.kind == "binary" else rdpc.gaussian_min_rate
    return fn(src, dict(cons), refine=refine, workers=workers, **GRIDS[(op.kind, op.grid)])


def check_oracle(op: Op, res: rdpc.OracleResult) -> str | None:
    src, cons = op.args
    cons = dict(cons)
    program = ("rdc_" if "D" in cons else "rpc_") + op.kind
    first = cons["D"] if "D" in cons else cons["P"]
    closed = getattr(rdpc, program)(src, first, cons["C"])
    if closed.feasible != res.feasible:
        return f"{program}: closed form feasible={closed.feasible}, oracle {res.feasible}"
    if not res.feasible:
        return None
    gap = abs(closed.rate - res.rate)
    if gap > ORACLE_TOL:
        return f"{program}: oracle {res.rate!r} vs closed form {closed.rate!r} (gap {gap:.3g})"
    # the oracle echoes its effective bounds (a requested P=0 runs as 1e-6)
    return _excess(_stats(src, res.argmin), res.constraints)


def canonical(out: Any) -> str:
    """Text an op's checksum is taken over: rate, region and witness reprs."""
    if isinstance(out, rdpc.TradeoffPoint):
        return repr((out.rate, out.region, out.witness))
    if isinstance(out, rdpc.OracleResult):
        return repr((out.rate, out.feasible, out.argmin))
    return repr(out)


# ---------------------------------------------------------------------------
# reference speed
# ---------------------------------------------------------------------------

# On a shared 2-core VM the same work was measured running up to 2x faster
# or slower for seconds at a time, and 20-40% apart from one run to the
# next. A fixed kernel timed every PROBE_PERIOD_S during the measured work
# sees the host-wide part of that, so work time divided by the kernel's time
# (``wall_norm``) cancels it. The kernel mixes scalar float math, as in the
# closed forms, with numpy over a small array, as in the oracle grids. It
# does not see everything: see "Steadiness" in README.md.
PROBE_PERIOD_S = 0.02
_REF_ARRAY = np.linspace(1e-3, 1.0 - 1e-3, 4096)


def _reference_kernel() -> float:
    acc = 0.0
    for i in range(1, 400):
        x = i / 400.0
        acc -= x * math.log2(x) + (1.0 - x) * math.log2(1.0 - x)
    for _ in range(8):
        acc -= float(np.sum(_REF_ARRAY * np.log2(_REF_ARRAY)))
    return acc


class SpeedProbe:
    """Times the reference kernel from a timer signal while installed.

    ``spent_ns`` is the time the handler took, which callers subtract from
    the work they time.
    """

    def __init__(self) -> None:
        self.samples: list[int] = []
        self.spent_ns = 0
        self._busy = False

    def _tick(self, signum: int, frame: Any) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter_ns()
        _reference_kernel()
        self.samples.append(time.perf_counter_ns() - t0)
        self.spent_ns += time.perf_counter_ns() - t0
        self._busy = False

    def __enter__(self) -> "SpeedProbe":
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)

    def kernel_ns(self) -> float:
        """Mean kernel time over the middle 80% of the samples.

        The mean follows the share of time the host ran fast or slow; the
        trim drops samples a preemption or a slow signal delivery inflated.
        """
        if not self.samples:
            raise RuntimeError("the speed probe took no samples")
        ordered = sorted(self.samples)
        cut = len(ordered) // 10
        return statistics.fmean(ordered[cut:len(ordered) - cut])


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

def run_loop(
    ops: list[Op],
    call: Callable[[Op], Any],
    check: Callable[[Op, Any], str | None],
    tracer: Any = None,
    keep: bool = False,
    after: Callable[[int, Op, Any], None] | None = None,
    probe: SpeedProbe | None = None,
) -> Outcome:
    """Run ``ops`` one after another, timing each call and checking it after.

    ``tracer.op`` is set to the op index only while rdpc runs, so spans of
    checks and of ``after`` hooks are not attributed to any op. Time the
    ``probe`` handler took during a call is not counted in its latency.
    """
    lat: list[int] = []
    digest = hashlib.sha256()
    failures: list[str] = []
    outputs: list[str] | None = [] if keep else None
    first = ""
    clock = time.perf_counter_ns

    def probed() -> int:
        return 0 if probe is None else probe.spent_ns

    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        p0 = probed()
        t0 = clock()
        try:
            out = call(op)
        except Exception as exc:  # a raising op is a failed op, not a crash
            lat.append(clock() - t0 - (probed() - p0))
            if tracer is not None:
                tracer.op = None
            text, reason, out = f"error {type(exc).__name__}: {exc}", repr(exc), None
        else:
            lat.append(clock() - t0 - (probed() - p0))
            if tracer is not None:
                tracer.op = None
            text = canonical(out)
            reason = check(op, out)
        digest.update(text.encode() + b"\n")
        if i == 0:
            first = hashlib.sha256(text.encode()).hexdigest()
        if outputs is not None:
            outputs.append(text)
        if reason is not None:
            failures.append(f"op {i} {op.kind} {op.args!r}: {reason}")
        if after is not None and out is not None:
            after(i, op, out)
    return Outcome(lat, digest.hexdigest(), first, failures, outputs)


# ---------------------------------------------------------------------------
# gate
# ---------------------------------------------------------------------------

def run_verify(seed: int, out: Path, suites: tuple[str, ...] = (),
               probe: SpeedProbe | None = None) -> tuple[int, int, bytes]:
    """One ``rdpc verify`` through ``cli.main``: (wall ns, exit code, report bytes).

    All nine suites unless ``suites`` names some. Time the ``probe`` handler
    took is not counted in the wall time.
    """
    p0 = 0 if probe is None else probe.spent_ns
    argv = ["verify", "--seed", str(seed), "--workers", "1", "--out", str(out)]
    for name in suites:
        argv += ["--suite", name]
    t0 = time.perf_counter_ns()
    try:
        code = cli.main(argv)
    except Exception:  # a raising gate fails all its suites; it is not a crash
        code = -1
    wall = time.perf_counter_ns() - t0 - (0 if probe is None else probe.spent_ns - p0)
    if not out.exists():
        return wall, code, b""
    data = out.read_bytes()
    out.unlink()
    return wall, code, data


def check_report(code: int, data: bytes) -> list[str]:
    """One entry per failed suite of a verify report, or per suite if none was written."""
    if not data:
        return [f"verify exited with {code} and wrote no report"] * len(rdpc.SUITE_NAMES)
    failures = [f"suite {s['name']} failed: {s['measured']}"
                for s in json.loads(data)["suites"] if not s["passed"]]
    if code != 0 and not failures:
        failures.append(f"verify exited with {code}")
    return failures


def first_suite_text(data: bytes) -> str:
    """Canonical text of the first suite of a report (the gate's first op)."""
    return json.dumps(json.loads(data)["suites"][0], sort_keys=True) if data else ""
