"""End-to-end checks of the command line: output schemas, exit codes,
config merging, and determinism. Everything drives ``main`` directly."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import rdpc
from rdpc import GaussianPairSource, rpc_gaussian
from rdpc.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


RDC_EXAMPLE = ["rdc", "binary", "--a", "0.3", "--p1", "0.1", "--d", "0.1",
               "--c", "0.85"]


def test_point_query_payload(capsys):
    code, out, _ = run(capsys, *RDC_EXAMPLE)
    assert code == 0
    payload = json.loads(out)
    assert payload["rate"] == pytest.approx(0.342282530869852, abs=1e-12)
    assert payload["unit"] == "bits"
    assert payload["feasible"] is True
    assert payload["region"] == "distortion_limited"
    assert set(payload["witness"]) == {"p_a", "p_b"}
    assert payload["inputs"]["d"] == 0.1
    assert payload["tool_version"]


def test_point_json_round_trips(capsys):
    _, out, _ = run(capsys, *RDC_EXAMPLE)
    assert json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n" == out


def _refuse_constant(token):
    raise ValueError(f"not strict JSON: {token}")


@pytest.mark.parametrize("argv, path, text", [
    (["rdc", "gaussian", "--d", "0.0", "--c", "0.9"], ("rate",), "Infinity"),
    (["rpc-given-d", "--d", "0.5", "--c", "0.9"], ("inputs", "p"), "Infinity"),
    (["oracle", "--family", "gaussian", "--p", "0.1", "--c=-inf"], ("constraints", "C"),
     "-Infinity"),
])
def test_infinities_are_strict_json_strings(capsys, argv, path, text):
    # RFC 8259 has no Infinity token; the string is what float() reads back
    _, out, _ = run(capsys, *argv)
    value = json.loads(out, parse_constant=_refuse_constant)
    for key in path:
        value = value[key]
    assert value == text and float(value) == float(text)


def test_infeasible_point_exits_two(capsys):
    code, out, _ = run(capsys, "rdc", "binary", "--a", "0.3", "--p1", "0.1",
                       "--d", "0.3", "--c", "0.4")
    assert code == 2
    payload = json.loads(out)
    assert payload["rate"] is None
    assert payload["feasible"] is False
    assert payload["region"] == "infeasible"


def test_gaussian_point_matches_library(capsys):
    code, out, _ = run(capsys, "rpc", "gaussian", "--sigma-x", "1",
                       "--sigma-s", "0.7", "--theta1", "0.63",
                       "--p", "0.01", "--c", "0.562264")
    assert code == 0
    src = GaussianPairSource(0.0, 0.0, 1.0**2, 0.7**2, 0.63)
    expected = rpc_gaussian(src, 0.01, 0.562264)
    payload = json.loads(out)
    assert payload["rate"] == expected.rate
    assert payload["unit"] == "nats"


@pytest.mark.parametrize(
    "argv",
    [
        RDC_EXAMPLE + ["--units", "nats"],
        RDC_EXAMPLE + ["--format", "csv"],
        RDC_EXAMPLE + ["--emit-plot-script"],
        RDC_EXAMPLE[:-2],  # missing --c
        ["restore", "--units", "bits"],
        ["rpc-given-d", "--d", "0.5", "--rate", "0.4", "--p", "0.01"],
        ["rpc-given-d", "--d", "0.5", "0.6", "--p", "1", "--c", "0.9"],
        ["oracle", "--family", "binary", "--a", "0.3", "--p1", "0.1"],
        ["verify", "--format", "csv"],
        ["rpc-given-d", "--rate", "0.4", "--c", "0.9"],
    ],
)
def test_usage_errors_exit_one(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("flag", ["--sigma-n", "--a-min", "--a-max"])
def test_restore_refuses_non_finite_inputs(capsys, flag):
    # the gain grid's ends are checked before np.linspace, which would warn
    # and hand the sweep a NaN the user never passed
    for value in ("nan", "inf", "-inf"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "restore", f"{flag}={value}", "--a-steps", "3")
        assert code == 1 and out == ""
        assert "must be finite" in err
        if flag != "--sigma-n":
            assert f"{flag} must be finite: {value}" in err


_ORACLE = ["oracle", "--family", "binary", "--a", "0.3", "--p1", "0.1", "--c", "0.99"]


def test_bad_flags_exit_one(capsys):
    # the oracle's grid flags had no effect and are gone
    gone = [_ORACLE + flag for flag in (["--resolution", "0.01"], ["--sigma-steps", "201"],
                                        ["--theta-steps", "201"], ["--no-refine"])]
    for argv in (["bogus"], [], ["rdc"], ["verify", "--suite", "nope"], *gone):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        capsys.readouterr()
        assert exc.value.code == 1


def test_suite_choices_are_the_verify_suites(capsys, tmp_path):
    # --suite reads its choices from verify when argparse checks or lists
    # them: the help lists all nine, and an unknown suite exits 1 whether
    # it comes from argv or from --config
    names = rdpc.SUITE_NAMES
    assert len(names) == 9
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    assert "--suite {" + ",".join(names) + "}" in " ".join(capsys.readouterr().out.split())
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nope"])
    err = capsys.readouterr().err
    assert exc.value.code == 1 and "invalid choice" in err and all(n in err for n in names)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suite": ["entropy", "nope"]}))
    code, out, err = run(capsys, "verify", "--config", str(cfg))
    assert code == 1 and out == ""
    assert err == ("rdpc: error: config key 'suite': invalid choice 'nope' (choose from "
                   + ", ".join(map(repr, names)) + ")\n")
    cfg.write_text(json.dumps({"suite": ["entropy"]}))
    code, out, _ = run(capsys, "verify", "--config", str(cfg))
    assert code == 0 and [s["name"] for s in json.loads(out)["suites"]] == ["entropy"]


def test_binary_source_help_states_the_accepted_ranges(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rdc", "binary", "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "--p1 P1 label flip probability, in [0, a], below 1/2" in text
    assert "--a A P(S=1), in [p1, 1/2]" in text


def test_import_loads_no_scipy_integrate_or_special():
    # every CLI command pays the import. The oracle grids compute their
    # entropies with numpy and need no scipy.special, so no scipy module
    # loads. The KL builds its Gauss rules itself: numpy.polynomial's
    # import and its first LAPACK call would each add about 1 MB to the
    # process.
    code = (
        "import sys, rdpc; "
        "print(sorted(m for m in ('scipy.integrate', 'scipy.special') "
        "if m in sys.modules)); "
        "rdpc.binary_min_rate(rdpc.BinaryPairSource(0.3, 0.1), {'D': 0.2, 'C': 0.8}, "
        "resolution=1e-2); "
        "print('scipy.special' in sys.modules); "
        "rdpc.kl_of_gain(rdpc.default_model(), 0.5); "
        "rdpc.kl_of_gain(rdpc.RestorationModel(rdpc.GaussianMixture2(0.4, 0.6, -1.0, 2.0, 0.5, "
        "1.5), 0.7, 0.0), 0.5); "
        "print(any(m.split('.')[0] == 'scipy' for m in sys.modules)); "
        "print('numpy.polynomial' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(rdpc.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout
    assert out.split() == ["[]", "False", "False", "False"]


_CLOSED_FORM_LAYER = ["rdpc", "rdpc.closed_form", "rdpc.entropy", "rdpc.errors",
                      "rdpc.optimize", "rdpc.results", "rdpc.sources"]
_LAZY = ("rdpc.oracle", "rdpc.restoration", "rdpc.rpc_given_d", "rdpc.verify")


def _fresh(code):
    env = dict(os.environ, PYTHONPATH=str(Path(rdpc.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=env).stdout.split("\n")


@pytest.mark.parametrize("module, extra", [("rdpc", []), ("rdpc.cli", ["rdpc.cli"])])
def test_import_loads_only_the_closed_form_layer(module, extra):
    out = _fresh(f"import sys, {module}; print(sorted(m for m in sys.modules if m.startswith('rdpc')))")
    assert out[0] == repr(sorted(_CLOSED_FORM_LAYER + extra))


def test_channel_statistics_load_no_lazy_module():
    # they live with the sources, so checking a closed form's witness
    # neither loads nor compiles the oracle
    out = _fresh(
        "import sys, rdpc; "
        "rdpc.binary_channel_stats(rdpc.BinaryPairSource(0.3, 0.1), rdpc.BinaryChannel(0.9, 0.2)); "
        "rdpc.gaussian_recon_stats(rdpc.GaussianPairSource(0.0, 0.0, 1.0, 1.0, 0.5), "
        "rdpc.GaussianReconstruction(0.0, 0.5, 0.4)); "
        f"print([m for m in {_LAZY!r} if m in sys.modules])"
    )
    assert out[0] == "[]"


@pytest.mark.parametrize("argv, loaded", [
    (RDC_EXAMPLE, []),
    (["rpc", "gaussian", "--p", "0.2", "--c", "0.562264"], []),
    (_ORACLE, ["rdpc.oracle"]),
    (["rpc-given-d", "--d", "0.5", "--c", "0.762264"], ["rdpc.rpc_given_d"]),
    (["restore", "--a-steps", "3"], ["rdpc.restoration"]),
    (["verify", "--suite", "entropy"], list(_LAZY)),
])
def test_a_command_loads_only_the_modules_it_uses(tmp_path, argv, loaded):
    # each command imports its own module in its handler; building the
    # parser imports none of them, not even for --suite's choices
    argv = [*argv, "--out", str(tmp_path / "out.json")]
    out = _fresh(f"import sys; from rdpc.cli import main; print(main({argv!r})); "
                 f"print([m for m in {_LAZY!r} if m in sys.modules])")
    assert out[:2] == ["0", repr(loaded)]


def test_python_m_rdpc_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(Path(rdpc.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-m", "rdpc", "--version"], capture_output=True,
                         text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == rdpc.__version__


def test_surface_csv_schema_and_order(capsys):
    code, out, _ = run(capsys, "surface", "--family", "rdc-binary",
                       "--a", "0.3", "--p1", "0.1",
                       "--d-min", "0", "--d-max", "0.3", "--d-steps", "2",
                       "--c-min", "0.5", "--c-max", "1", "--c-steps", "3")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "d_or_p,c,rate,unit,region,feasible"
    assert len(lines) == 1 + 2 * 3
    # outer loop over D, inner over C
    first = [line.split(",")[:2] for line in lines[1:4]]
    assert [d for d, _ in first] == ["0", "0", "0"]
    assert [c for _, c in first] == ["0.5", "0.75", "1"]
    assert all(line.split(",")[3] == "bits" for line in lines[1:])


def test_surface_json_round_trips(capsys):
    code, out, _ = run(capsys, "surface", "--family", "rpc-gaussian",
                       "--p-min", "0.001", "--p-max", "0.01", "--p-steps", "2",
                       "--c-min", "0.4", "--c-max", "1.2", "--c-steps", "2",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["rows"]) == 4
    assert json.dumps(payload, sort_keys=True, indent=2) + "\n" == out
    assert all(row["unit"] == "nats" for row in payload["rows"])


def test_restore_csv_schema(capsys):
    code, out, _ = run(capsys, "restore", "--a-min", "0.5", "--a-max", "1.0",
                       "--a-steps", "6")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "a,mse,kl_nats,error_rate"
    assert len(lines) == 7
    assert lines[1].startswith("0.5,")


def test_frontier_csv_schema(capsys):
    code, out, _ = run(capsys, "rpc-given-d", "--d", "0.5", "--rate", "0.4",
                       "--c-steps", "4")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "C_nats,min_P_nats,rate_nats,sigma_xh"
    assert len(lines) == 5


def test_frontier_default_distortion_triple(capsys, tmp_path):
    out_base = tmp_path / "front.csv"
    code, _, _ = run(capsys, "rpc-given-d", "--rate", "0.4", "--c-steps", "3",
                     "--out", str(out_base), "--emit-plot-script")
    assert code == 0
    emitted = sorted(p.name for p in tmp_path.iterdir())
    assert emitted == [
        "front.csv.plot.py", "front_d0.5.csv", "front_d0.6.csv",
        "front_d0.8.csv",
    ]
    script = (tmp_path / "front.csv.plot.py").read_text()
    compile(script, "front.csv.plot.py", "exec")
    assert "front_d0.8.csv" in script


def test_point_query_needs_single_distortion(capsys):
    code, out, _ = run(capsys, "rpc-given-d", "--d", "0.5", "--p", "1",
                       "--c", "0.9")
    assert code == 0
    assert json.loads(out)["inputs"]["d"] == 0.5


def test_plot_script_needs_out(capsys):
    code, _, err = run(capsys, "restore", "--a-steps", "3",
                       "--emit-plot-script")
    assert code == 1
    assert "--out" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["restore", "--a-steps", "3", "--format", "json", "--out", "r.json",
         "--emit-plot-script"],
        ["surface", "--family", "rpc-gaussian", "--p-min", "0", "--p-max", "0.1",
         "--p-steps", "2", "--c-min", "0.5", "--c-max", "1", "--c-steps", "2",
         "--format", "json", "--out", "s.json", "--emit-plot-script"],
        ["rpc-given-d", "--rate", "0.4", "--d", "0.5", "--c-steps", "3",
         "--format", "json", "--out", "f.json", "--emit-plot-script"],
        ["restore", "--a-steps", "3", "--emit-plot-script"],
        ["rpc-given-d", "--rate", "0.4", "--d", "0.5", "0.6", "--c-steps", "3",
         "--emit-plot-script"],
    ],
)
def test_plot_script_refused_before_any_output(capsys, tmp_path, monkeypatch, argv):
    # a plot script reads the CSV at --out; without one the command stops
    # before it computes or writes anything
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "error" in err
    assert list(tmp_path.iterdir()) == []


def _csv_tables(text):
    """{label: (header, rows)} from CSV text, labels from "# d=" lines."""
    tables, label = {}, None
    for block in text.strip().split("\n\n"):
        lines = block.split("\n")
        if lines[0].startswith("# d="):
            label = float(lines.pop(0)[len("# d="):])
        header, *rows = lines
        tables[label] = (header.split(","), [row.split(",") for row in rows])
    return tables


def _json_cell(value):
    """A JSON value as the CSV writes it; null is an infeasible NaN."""
    if value is None:
        return "nan"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".9g")
    return str(value)


@pytest.mark.parametrize(
    "argv",
    [
        ["surface", "--family", "rdc-binary", "--a", "0.3", "--p1", "0.1",
         "--d-min", "0", "--d-max", "0.3", "--d-steps", "3",
         "--c-min", "0.3", "--c-max", "1", "--c-steps", "4"],
        ["surface", "--family", "rpc-gaussian", "--p-min", "0.001", "--p-max", "0.01",
         "--p-steps", "2", "--c-min", "-1", "--c-max", "1.2", "--c-steps", "3"],
        ["restore", "--a-min", "0.5", "--a-max", "1.0", "--a-steps", "4"],
        ["rpc-given-d", "--rate", "0.4", "--d", "0.5", "--c-steps", "4"],
        ["rpc-given-d", "--rate", "0.4", "--d", "0.5", "0.6", "--c-steps", "4"],
    ],
)
def test_dataset_json_and_csv_carry_the_same_rows(capsys, argv):
    code, csv_out, _ = run(capsys, *argv)
    assert code == 0
    code, json_out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    payload = json.loads(json_out)
    if "frontiers" in payload:
        tables = {f["d"]: f["rows"] for f in payload["frontiers"]}
    else:
        tables = {None: payload["rows"]}
    csv_tables = _csv_tables(csv_out)
    if len(csv_tables) == 1:
        assert len(tables) == 1
        csv_tables = dict(zip(tables, csv_tables.values()))
    assert csv_tables.keys() == tables.keys()
    nulls = 0
    for label, rows in tables.items():
        header, csv_rows = csv_tables[label]
        assert len(rows) == len(csv_rows)
        for row, csv_row in zip(rows, csv_rows):
            assert [_json_cell(row[k]) for k in header] == csv_row
            nulls += "nan" in csv_row
            if label is None:
                assert set(row) == set(header)
            else:
                # a frontier row's JSON-only key
                assert set(row) == {*header, "feasible"}
                assert row["feasible"] is (row["min_P_nats"] is not None)
    # every argv but restore's has an infeasible entry
    assert (nulls > 0) is (argv[0] != "restore")


def test_out_writes_file_and_nothing_to_stdout(capsys, tmp_path):
    target = tmp_path / "pt.json"
    code, out, _ = run(capsys, *RDC_EXAMPLE, "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["unit"] == "bits"


def test_config_supplies_defaults_flags_win(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"a": 0.3, "p1": 0.1, "d": 0.1}))
    code, out, _ = run(capsys, "rdc", "binary", "--config", str(cfg),
                       "--c", "0.85")
    assert code == 0
    assert json.loads(out)["rate"] == pytest.approx(0.342282530869852, abs=1e-12)

    code, out, _ = run(capsys, "rdc", "binary", "--config", str(cfg),
                       "--d", "0.3", "--c", "0.85")
    assert json.loads(out)["inputs"]["d"] == 0.3


def test_config_must_be_an_object(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    code, _, err = run(capsys, "rdc", "binary", "--config", str(cfg),
                       "--a", "0.3", "--p1", "0.1", "--d", "0.1", "--c", "0.9")
    assert code == 1
    assert "object" in err


@pytest.mark.parametrize("argv, config, key", [
    (["rpc-given-d", "--c", "0.9"], {"d": 0.5}, "d"),
    (["restore"], {"a_steps": "x"}, "a_steps"),
    (["verify"], {"seed": "zero"}, "seed"),
    (["restore", "--a-steps", "3"], {"format": "xml"}, "format"),
])
def test_config_values_are_parsed_like_their_flags(capsys, tmp_path, argv, config, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run(capsys, *argv, "--config", str(cfg))
    assert code == 1 and out == ""
    assert err.startswith("rdpc: error: ") and repr(key) in err


def test_workers_env_default(capsys, monkeypatch):
    # workers have no effect, so no environment variable selects them
    argv = _ORACLE
    monkeypatch.delenv("RDPC_WORKERS", raising=False)
    code, plain, _ = run(capsys, *argv)
    assert code == 0
    monkeypatch.setenv("RDPC_WORKERS", "many")
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert out == plain and err == ""


def test_oracle_exit_codes(capsys):
    code, out, _ = run(capsys, "oracle", "--family", "binary", "--a", "0.3",
                       "--p1", "0.1", "--c", "0.4")
    assert code == 2
    assert json.loads(out)["rate"] is None


@pytest.mark.parametrize("family, bounds", [
    ("binary", ["--a", "0.3", "--p1", "0.1", "--d", "0.2"]),
    ("gaussian", ["--p", "0.1"]),
])
def test_oracle_minus_inf_bound_is_infeasible(capsys, family, bounds):
    code, out, _ = run(capsys, "oracle", "--family", family, *bounds, "--c=-inf")
    assert code == 2
    assert json.loads(out)["feasible"] is False
    code, out, _ = run(capsys, "oracle", "--family", family, *bounds, "--c=inf")
    assert code == 0
    assert "C" not in json.loads(out)["constraints"]


def test_verify_subcommand(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "entropy", "--seed", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True
    assert payload["seed"] == 0
    assert "tool_version" in payload


def test_verify_refuses_a_negative_seed(capsys):
    code, out, err = run(capsys, "verify", "--seed", "-1", "--suite", "entropy")
    assert code == 1 and out == ""
    assert err.startswith("rdpc: error: ") and "Traceback" not in err


def test_repeated_runs_are_byte_identical(capsys):
    argv = ["surface", "--family", "rdc-gaussian", "--d-min", "0.1",
            "--d-max", "1.0", "--d-steps", "4", "--c-min", "0.4",
            "--c-max", "1.1", "--c-steps", "4"]
    _, first, _ = run(capsys, *argv)
    _, again, _ = run(capsys, *argv)
    assert first == again
