import hashlib
import json

import pytest

from rdpc import DomainError, cli, default_model, monte_carlo_mse, verify
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
# Monte Carlo column depends on the seed, and on the 2**18-sample chunks
# its 10**6-sample draw is taken in
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
    (0, "0x1.600fd1e6ee7c6p-1"),
    (3, "0x1.3a6d63e2f65ccp+0"),
])
def test_restoration_suite_keeps_its_bits(seed, sigmas):
    suite = run_suites(["restoration"], seed=seed).suites[0]
    assert suite.passed
    got = {name: float.hex(float(v)) for name, v in suite.measured.items()}
    assert got == _RESTORATION_BITS | {"monte_carlo_sigmas": sigmas}
    assert list(got) == list(_RESTORATION_BITS)  # the report's order too


# sha256 of the `rdpc verify` report file; a change that means to move a
# report byte declares it and re-pins these in its own commit
@pytest.mark.parametrize("seed, digest", [
    (0, "45b426c29610b0bd6d86b7f36d1509acd5c8f6d94f98cf0355a731dec2b506f0"),
    (3, "2e1149ea541675a7cd7eec13d787bcf5b80c6367cf94be1b4377d17a1fbc2308"),
])
def test_verify_report_keeps_its_bytes(tmp_path, seed, digest):
    out = tmp_path / "verify.json"
    assert cli.main(["verify", "--seed", str(seed), "--workers", "1", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
