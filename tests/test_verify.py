import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from test_oracle import _bulk_mgl_margins
from test_restoration import _NO_AVX512, _dispatches_avx512

from rdpc import DomainError, cli, default_model, monte_carlo_mse, oracle, verify
from rdpc.entropy import _h2_bits_arr
from rdpc.verify import SUITE_NAMES, run_suites


def test_suite_roster_is_stable():
    assert SUITE_NAMES == (
        "entropy",
        "mgl",
        "convexity",
        "oracle-rdc-binary",
        "oracle-rdc-gaussian",
        "oracle-rpc-gaussian",
        "rpc-binary-gap-probe",
        "restoration",
        "rpc-given-d",
    )


def test_unknown_suite_is_rejected():
    with pytest.raises(DomainError):
        run_suites(["entropy", "nope"])


@pytest.mark.parametrize("seed", [-1, 1.5, "0", None])
def test_a_seed_that_is_not_a_nonnegative_integer_is_refused_first(monkeypatch, seed):
    # the oracle-only suites ignore the seed, so the check cannot wait for a draw
    monkeypatch.setattr(verify, "_SUITES", {})
    with pytest.raises(DomainError, match="seed"):
        run_suites(["entropy"], seed=seed)


@pytest.mark.parametrize("seeded", [
    lambda seed: run_suites(["entropy"], seed=seed),
    lambda seed: monte_carlo_mse(default_model(), 0.7, 100, seed=seed),
], ids=["run_suites", "monte_carlo_mse"])
@pytest.mark.parametrize("seed", [True, False])
def test_a_bool_seed_is_refused(seeded, seed):
    # bool is an int subclass, but a report recording "seed": true is no seed
    with pytest.raises(DomainError, match="seed"):
        seeded(seed)


def test_entropy_suite_report_shape():
    report = run_suites(["entropy"], seed=0)
    assert report.all_passed
    payload = report.to_dict()
    assert payload["seed"] == 0
    assert payload["all_passed"] is True
    assert [s["name"] for s in payload["suites"]] == ["entropy"]
    suite = payload["suites"][0]
    assert suite["passed"] is True
    assert set(suite["measured"]) == set(suite["tolerances"])
    json.dumps(payload)  # must be serializable without massaging


def test_gap_probe_reports_premium_without_failing():
    report = run_suites(["rpc-binary-gap-probe"], seed=0)
    assert report.all_passed
    assert len(report.gap_probes) == 1
    probe = report.gap_probes[0]
    assert probe.gap == pytest.approx(probe.oracle - probe.closed_form, abs=1e-15)
    assert 4e-3 < probe.gap < 7e-3


def test_seed_changes_draws_not_verdicts():
    first = run_suites(["entropy"], seed=0).to_dict()
    other = run_suites(["entropy"], seed=5).to_dict()
    assert first["all_passed"] and other["all_passed"]
    assert first != other


@pytest.mark.parametrize("seed", [0, 3, 7, 11])
def test_mgl_suite_maxima_are_those_of_the_bulk_margins(monkeypatch, seed):
    # the suite takes its two maxima slice by slice, over margins computed
    # in slices; whatever the cut (the default, one that leaves a partial
    # slice of 1 channel, and one slice longer than the 10^5 draws), they
    # are the maxima of the margins computed whole
    drawn = []

    def kept(*args):
        drawn.append(args)
        return oracle._mgl_margins(*args)

    monkeypatch.setattr(verify, "_mgl_margins", kept)
    for size in (oracle._MGL_SLICE, 33_333, 100_007):
        monkeypatch.setattr(oracle, "_MGL_SLICE", size)
        monkeypatch.setattr(verify, "_MGL_SLICE", size)
        del drawn[:]
        measured = run_suites(["mgl"], seed=seed).suites[0].measured
        a, p1, pa, pb = drawn[0]
        lhs, rhs = _bulk_mgl_margins(a, p1, pa, pb)
        assert measured["min_margin_deficit"] == float(np.max(rhs - lhs)), size
        assert measured["label_floor_deficit"] == float(np.max(_h2_bits_arr(p1) - lhs)), size


def test_mgl_suite_memory_stays_bounded():
    # in one pass over the 10^5 channels the suite held 9.26 MiB; in slices
    # it holds the four draws, the two margins and the entropy inverse's
    # result and slices, 6.53 MiB
    run_suites(["mgl"], seed=0)
    tracemalloc.start()
    try:
        run_suites(["mgl"], seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7 * 2**20


def test_convexity_suite_spot_checks_without_scalar_loops(monkeypatch):
    # the suite evaluates its 10^4 draws and 200 x 200 grids on the array
    # kernels; only the 1-in-100 spot-checks call the scalar entry points
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(verify, "rdc_binary", counted(verify.rdc_binary))
    monkeypatch.setattr(verify, "rdc_gaussian", counted(verify.rdc_gaussian))
    report = run_suites(["convexity"], seed=0)
    assert report.all_passed
    assert 0 < calls.count("rdc_binary") and 0 < calls.count("rdc_gaussian")
    assert len(calls) <= 200
    measured = report.suites[0].measured
    assert measured["binary_scalar_array_mismatch"] <= 1e-9
    assert measured["gaussian_scalar_array_mismatch"] <= 1e-9


# float.hex of every measured value of the restoration suite; only the
# Monte Carlo column depends on the seed, and on how its 10**6-sample draw
# is taken: a binomial count of component 1's samples, then 2**18-sample
# chunks
_RESTORATION_BITS = {
    "bayes_threshold_err": "0x1.8000000000000p-53",
    "symmetric_threshold": "0x0.0p+0",
    "mse_argmin_err": "0x1.b4e81b4e81c00p-9",
    "error_rate_argmin_err": "0x0.0p+0",
    "error_rate_min_err": "0x1.ec21d9e4a4800p-14",
    "kl_argmin_err": "0x0.0p+0",
    "threshold_homogeneity": "0x0.0p+0",
    "reoptimized_control_spread": "0x1.8000000000000p-54",
    "monte_carlo_sigmas": None,
    "dp_infeasible_below_mse_min": "0x0.0p+0",
    "dp_has_feasible": "0x0.0p+0",
    "dp_monotone_increase": "0x0.0p+0",
    "dp_non_constant": "0x0.0p+0",
    "dc_has_feasible": "0x0.0p+0",
    "dc_monotone_increase": "0x0.0p+0",
    "dc_non_constant": "0x0.0p+0",
    "pc_has_feasible": "0x0.0p+0",
    "pc_monotone_increase": "0x0.0p+0",
    "pc_non_constant": "0x0.0p+0",
    "clean_mse_argmin_err": "0x0.0p+0",
    "clean_eps_argmin_err": "0x0.0p+0",
    "clean_kl_argmin_err": "0x0.0p+0",
    "clean_dp_has_feasible": "0x0.0p+0",
    "clean_dp_monotone_increase": "0x0.0p+0",
    "clean_dp_collapse_spread": "0x0.0p+0",
}


@pytest.mark.parametrize("seed, sigmas", [
    (0, "0x1.9a126f10ccf34p-2"),
    (3, "0x1.c56e91e9844c0p-1"),
])
def test_restoration_suite_keeps_its_bits(seed, sigmas):
    suite = run_suites(["restoration"], seed=seed).suites[0]
    assert suite.passed
    got = {name: float.hex(float(v)) for name, v in suite.measured.items()}
    assert got == _RESTORATION_BITS | {"monte_carlo_sigmas": sigmas}
    assert list(got) == list(_RESTORATION_BITS)  # the report's order too


# sha256 of the `rdpc verify` report file, by seed; a change that means to
# move a report byte declares it and re-pins these in its own commit
_REPORT_DIGESTS = {
    0: "3c8a1dd0cfd1dd422dc7603ae33222e60997614e0c0a32bc0c2f4994f5711c92",
    3: "e3ea9e7ef5156025f7987ba3b282c3a82b43cb2aedcce31192a39d7404222808",
}
# the same where numpy takes no AVX-512 kernels: seed 3's convexity suite
# records binary_scalar_array_mismatch, the one-ulp gap between the scalar
# closed form and numpy's array kernel, 5.55e-17 with AVX-512 and 0.0 without
_REPORT_DIGESTS_WITHOUT_AVX512 = _REPORT_DIGESTS | {
    3: "b0b0cd22150a3940c67de649cc4132b1124957dcb86362ed64275becaa26133f",
}


@pytest.mark.parametrize("seed, digest", list(_REPORT_DIGESTS.items()))
def test_verify_report_keeps_its_bytes(tmp_path, seed, digest):
    out = tmp_path / "verify.json"
    assert cli.main(["verify", "--seed", str(seed), "--workers", "1", "--out", str(out)]) == 0
    if not _dispatches_avx512():
        digest = _REPORT_DIGESTS_WITHOUT_AVX512[seed]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def _report_without_avx512(seed):
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(_NO_AVX512),
               PYTHONPATH=str(Path(verify.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "rdpc", "verify", "--seed", str(seed)],
                          capture_output=True, env=env, timeout=300, check=True).stdout


@pytest.mark.skipif(not _dispatches_avx512(), reason="numpy dispatches no AVX-512 kernels here")
def test_seed_0_report_keeps_its_bytes_without_avx512():
    digest = hashlib.sha256(_report_without_avx512(0)).hexdigest()
    assert digest == _REPORT_DIGESTS_WITHOUT_AVX512[0]


@pytest.mark.skipif(not _dispatches_avx512(), reason="numpy dispatches no AVX-512 kernels here")
def test_seed_3_report_keeps_its_bytes_without_avx512():
    digest = hashlib.sha256(_report_without_avx512(3)).hexdigest()
    assert digest == _REPORT_DIGESTS_WITHOUT_AVX512[3]


def _suite_of(*values):
    rec = verify._Recorder()
    for value in values:
        rec.worst("x", value, 1e-9)
    return rec.result("suite")


def test_a_nan_fails_its_suite_and_stays_in_the_report():
    for values in ((math.nan,), (0.0, math.nan), (math.nan, 0.0), (2.0, math.nan, 3.0)):
        suite = _suite_of(*values)
        assert not suite.passed and math.isnan(suite.measured["x"]), values
        assert not verify.VerifyReport(0, [_suite_of(0.0), suite]).all_passed


def test_a_value_over_tolerance_fails_its_suite():
    suite = _suite_of(0.0, 1e-3, 1e-12)
    assert not suite.passed and suite.measured["x"] == 1e-3
    assert not verify.VerifyReport(0, [_suite_of(0.0), suite]).all_passed
    # a passing suite keeps the largest value, -0.0 and 0.0 in arrival order
    assert _suite_of(-0.0, 0.0).measured["x"].hex() == "-0x0.0p+0"
    assert _suite_of(1e-12, 5e-10).passed


def test_a_failing_suite_exits_one_and_still_writes_its_report(monkeypatch, tmp_path):
    def failing(seed):
        rec = verify._Recorder()
        rec.worst("broken", math.nan, 1e-9)
        return rec

    monkeypatch.setitem(verify._SUITES, "entropy", failing)
    out = tmp_path / "verify.json"
    assert cli.main(["verify", "--suite", "entropy", "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["all_passed"] is False
    assert report["suites"] == [{"name": "entropy", "passed": False,
                                 "measured": {"broken": None}, "tolerances": {"broken": 1e-9}}]
