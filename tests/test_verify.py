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


def _mgl_draws_whole(seed, n=100_000):
    """The mgl suite's sources and channels as four whole draws, in the
    order that ``_rng_for(seed, 1)`` gives them."""
    rng = verify._rng_for(seed, 1)
    a = rng.uniform(0.02, 0.5, size=n)
    p1 = a * rng.uniform(0.1, 0.95, size=n)
    return a, p1, rng.uniform(0.0, 1.0, size=n), rng.uniform(0.0, 1.0, size=n)


# the default cut, one that leaves a last slice of 1 channel, and one
# slice longer than the 10^5 draws
_MGL_CUTS = (oracle._MGL_SLICE, 33_333, 100_007)


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_mgl_suite_reads_the_whole_draws_slice_by_slice(seed):
    sources, channels = verify._mgl_draws(seed, 100_000)
    for size in _MGL_CUTS:
        cut = [slice(lo, lo + size) for lo in range(0, 100_000, size)]
        got = [np.concatenate(parts) for parts in zip(*(sources(s) + channels(s) for s in cut))]
        for g, w in zip(got, _mgl_draws_whole(seed)):
            assert g.tobytes() == w.tobytes(), size


@pytest.mark.parametrize("seed", [0, 3, 7, 11])
def test_mgl_suite_maxima_are_those_of_the_bulk_margins(monkeypatch, seed):
    # the suite takes its two maxima slice by slice, as the kernel hands it
    # each slice of margins computed from draws read in slices; whatever
    # the cut, they are the maxima of the margins computed whole from the
    # whole draws
    a, p1, pa, pb = _mgl_draws_whole(seed)
    lhs, rhs = _bulk_mgl_margins(a, p1, pa, pb)
    for size in _MGL_CUTS:
        monkeypatch.setattr(oracle, "_MGL_SLICE", size)
        measured = run_suites(["mgl"], seed=seed).suites[0].measured
        assert measured["min_margin_deficit"] == float(np.max(rhs - lhs)), size
        assert measured["label_floor_deficit"] == float(np.max(_h2_bits_arr(p1) - lhs)), size


# tracemalloc peak of one run of each suite, in MiB, after a first run has
# filled the caches. The mgl suite held 9.26 in one pass over its four
# whole draws and 6.53 in slices over them; with the draws read in slices
# and one pass per slice it holds its two margins and one slice's
# temporaries, 3.57. The restoration suite held 6.04 in Monte Carlo chunks
# of 2**18 samples and 1.54 in chunks of 2**16. Convexity holds 1.46, and
# no other suite more than 0.27.
_SUITE_PEAK_MIB = dict.fromkeys(SUITE_NAMES, 0.5) | {
    "mgl": 4.0, "restoration": 2.0, "convexity": 2.5,
}


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_suite_memory_stays_bounded(name):
    run_suites([name], seed=0)
    tracemalloc.start()
    try:
        run_suites([name], seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _SUITE_PEAK_MIB[name] * 2**20


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
    assert measured["binary_scalar_array_agree"] == 0.0
    assert measured["gaussian_scalar_array_agree"] == 0.0


# float.hex of every measured value of the restoration suite; only the
# Monte Carlo column depends on the seed, and on how its 10**6-sample draw
# is taken: a binomial count of component 1's samples, then 2**16-sample
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


_MONTE_CARLO_SIGMAS = {0: "0x1.004d802a6f4bep+0", 3: "0x1.b0fe9fd641b61p-2"}


@pytest.mark.parametrize("seed", list(_MONTE_CARLO_SIGMAS))
def test_restoration_suite_keeps_its_bits(seed):
    suite = run_suites(["restoration"], seed=seed).suites[0]
    assert suite.passed
    got = {name: float.hex(float(v)) for name, v in suite.measured.items()}
    assert got == _RESTORATION_BITS | {"monte_carlo_sigmas": _MONTE_CARLO_SIGMAS[seed]}
    assert list(got) == list(_RESTORATION_BITS)  # the report's order too


# sha256 of the `rdpc verify` report file, by seed, the same whether or not
# numpy dispatches AVX-512 kernels; a change that means to move a report
# byte declares it and re-pins these in its own commit
_REPORT_DIGESTS = {
    0: "04bf5159a7cf92ec40bc2500361a63ec7137927b7e34aa524d3b1eb1afec15ff",
    3: "d08402f47dac753b0d001894d0ac2b47b56c6a59e771de5867a52095d5a75b22",
}


def _record_digests(report):
    """sha256 of ``json.dumps(record, sort_keys=True)`` for each suite's
    record in a verify report, and for its gap probes."""
    payload = json.loads(report)
    records = {s["name"]: s for s in payload["suites"]} | {"gap_probes": payload["gap_probes"]}
    return {name: hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()
            for name, record in records.items()}


# the report digests by suite, checked first, so that a moved report names
# the suites that moved; the oracle suites and the gap probe draw nothing
_SEEDLESS_DIGESTS = {
    "oracle-rdc-binary": "35cdeda2ec71109d1c7450bea57fcdc2d638d4177eefae608edb3a906ed7a454",
    "oracle-rdc-gaussian": "962d962c06fdba5702203d7f36ce89fce89b71ff6adba0180366db8a429cd07e",
    "oracle-rpc-gaussian": "d04a2141beabfea5e92d8c61d2fcd0d5ccdcff78f20c35348fb7ce1e084b17df",
    "rpc-binary-gap-probe": "e65526d1fcef99fcad9f8652c99133f58ff2dc7fa46ad8487fb90e711072083a",
    "rpc-given-d": "9bda669f83ecd9550b834602faa366d70afdb9e5b93c83f2a071632797e77a9a",
    "gap_probes": "35b3817c6d15c4527ec7170fb3245d26324db7c51de7ee5d4d2cbc0984a8a916",
}
_SUITE_DIGESTS = {
    0: _SEEDLESS_DIGESTS | {
        "entropy": "6e58e1547620cdd041ad14fa1df3fd152477bde47e3e33d8a76a28f1496eb67f",
        "mgl": "8d7cf376f9319cfe53188e209705818e016d4967c44c975d317307537f0f2000",
        "convexity": "888b671706c6abb8aa94ea3cae3790b228e55a5162e7bcc52815e5755f8355ee",
        "restoration": "305a24da3841298912ca8314fb037bd96655efd9a748adb670388b17e60d41e2",
    },
    3: _SEEDLESS_DIGESTS | {
        "entropy": "6e58e1547620cdd041ad14fa1df3fd152477bde47e3e33d8a76a28f1496eb67f",
        "mgl": "d61c2079388ad64f3a283d746d101fb2944caa9b8231fe23a2c54b235fffe758",
        "convexity": "888b671706c6abb8aa94ea3cae3790b228e55a5162e7bcc52815e5755f8355ee",
        "restoration": "95def95fefdc1c6b83c87927b472c09e8bc73f45a9327b2322ff0f52d11a6786",
    },
}


@pytest.mark.parametrize("seed", list(_REPORT_DIGESTS))
def test_verify_report_keeps_its_bytes(tmp_path, seed):
    out = tmp_path / "verify.json"
    assert cli.main(["verify", "--seed", str(seed), "--workers", "1", "--out", str(out)]) == 0
    report = out.read_bytes()
    assert _record_digests(report) == _SUITE_DIGESTS[seed]
    assert hashlib.sha256(report).hexdigest() == _REPORT_DIGESTS[seed]


@pytest.mark.skipif(not _dispatches_avx512(), reason="numpy dispatches no AVX-512 kernels here")
@pytest.mark.parametrize("seed", list(_REPORT_DIGESTS))
def test_verify_report_keeps_its_bytes_without_avx512(seed):
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(_NO_AVX512),
               PYTHONPATH=str(Path(verify.__file__).parents[1]))
    report = subprocess.run([sys.executable, "-m", "rdpc", "verify", "--seed", str(seed)],
                            capture_output=True, env=env, timeout=300, check=True).stdout
    assert _record_digests(report) == _SUITE_DIGESTS[seed]
    assert hashlib.sha256(report).hexdigest() == _REPORT_DIGESTS[seed]


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
