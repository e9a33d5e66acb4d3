"""End-to-end checks of the command line: output schemas, exit codes,
config merging, and determinism. Everything drives ``main`` directly."""

import argparse
import json
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import rdpc
from rdpc import GaussianPairSource, cli, rpc_gaussian
from rdpc.cli import build_parser, main


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
    (["rpc-given-d", "point", "--d", "0.5", "--c", "0.9"], ("inputs", "p"), "Infinity"),
    (["oracle", "gaussian", "--p", "0.1", "--c=-inf"], ("constraints", "C"), "-Infinity"),
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
        RDC_EXAMPLE[:-2],  # missing --c
        ["rpc-given-d", "frontier", "--d", "0.5"],  # missing --rate
        ["rpc-given-d", "point", "--p", "1", "--c", "0.9"],  # missing --d
        ["oracle", "binary", "--a", "0.3", "--p1", "0.1"],
        ["rpc-given-d", "point", "--d", "0.5"],  # missing --c
        ["rpc-given-d", "frontier", "--rate", "0.4", "--c-steps", "0"],
        ["rpc-given-d", "frontier", "--rate", "0.4", "--c-min", "1", "--c-max", "0"],
        ["surface", "rdc-binary", "--a", "0.3", "--p1", "0.1"],  # missing --d-min
        ["oracle", "binary", "--c", "0.9"],  # missing --a
        ["restore", "--a-steps", "0"],
        # a negative deviation, or one whose square overflows
        ["rdc", "gaussian", "--sigma-x", "-1", "--d", "0.5", "--c", "0"],
        ["oracle", "gaussian", "--sigma-x", "-2", "--d", "0.5"],
        ["rdc", "gaussian", "--sigma-x", "1e200", "--d", "0.5", "--c", "0"],
        ["rpc-given-d", "point", "--sigma-s", "-0.7", "--d", "0.5", "--c", "0.9"],
    ],
)
def test_usage_errors_exit_one(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert "error" in err and "Traceback" not in err


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


_ORACLE = ["oracle", "binary", "--a", "0.3", "--p1", "0.1", "--c", "0.99"]
_C_GRID = ["--c-min", "0.5", "--c-max", "1", "--c-steps", "2"]


# a valid argv of each leaf command
_COMMANDS = {
    "rdc binary": RDC_EXAMPLE,
    "rdc gaussian": ["rdc", "gaussian", "--d", "0.3", "--c", "0.8"],
    "rpc binary": ["rpc", "binary", "--a", "0.3", "--p1", "0.1", "--p", "0.2", "--c", "0.6"],
    "rpc gaussian": ["rpc", "gaussian", "--p", "0.2", "--c", "0.562264"],
    "rpc-given-d point": ["rpc-given-d", "point", "--d", "0.5", "--c", "0.762264"],
    "rpc-given-d frontier": ["rpc-given-d", "frontier", "--rate", "0.4", "--d", "0.5",
                             "--c-steps", "2"],
    "surface rdc-binary": ["surface", "rdc-binary", "--a", "0.3", "--p1", "0.1", "--d-min", "0",
                           "--d-max", "0.3", "--d-steps", "2", *_C_GRID],
    "surface rdc-gaussian": ["surface", "rdc-gaussian", "--d-min", "0.1", "--d-max", "1",
                             "--d-steps", "2", *_C_GRID],
    "surface rpc-binary": ["surface", "rpc-binary", "--a", "0.3", "--p1", "0.1", "--p-min", "0",
                           "--p-max", "0.1", "--p-steps", "2", *_C_GRID],
    "surface rpc-gaussian": ["surface", "rpc-gaussian", "--p-min", "0.001", "--p-max", "0.01",
                             "--p-steps", "2", *_C_GRID],
    "oracle binary": _ORACLE,
    "oracle gaussian": ["oracle", "gaussian", "--p", "0.1"],
    "restore": ["restore", "--a-steps", "3"],
    "verify": ["verify", "--suite", "entropy"],
}
_DATASETS = ("rpc-given-d frontier", "surface rdc-binary", "surface rdc-gaussian",
             "surface rpc-binary", "surface rpc-gaussian", "restore")
# flags a command used to take, with no effect or only to raise an error
_REMOVED = [
    *((name, ["--units", "bits"]) for name in _COMMANDS),
    *((name, flag) for name in _COMMANDS if name != "verify"
      for flag in (["--seed", "1"], ["--workers", "2"])),
    *((name, flag) for name in _COMMANDS if name not in _DATASETS
      for flag in (["--format", "json"], ["--emit-plot-script"])),
]
# flags of another family or mode, which a leaf used to parse and then
# ignore or refuse in its handler
_FOREIGN = [
    ("surface rdc-binary", ["--sigma-x", "1"]), ("surface rdc-binary", ["--p-min", "0"]),
    ("oracle gaussian", ["--a", "0.3"]), ("oracle binary", ["--theta1", "0.5"]),
    ("rpc-given-d point", ["--c-steps", "3"]), ("rpc-given-d point", ["--format", "json"]),
    ("rpc-given-d point", ["--rate", "0.4"]), ("rpc-given-d frontier", ["--p", "0.1"]),
    ("rpc-given-d frontier", ["--c", "0.9"]),
]


def test_bad_flags_exit_one(capsys, tmp_path, monkeypatch):
    # the oracle's grid flags had no effect and are gone, as are the flags
    # a command does not read; argparse refuses them before any work
    assert len(_COMMANDS) == 14 and len(_REMOVED) == 56
    monkeypatch.chdir(tmp_path)
    gone = [_ORACLE + flag for flag in (["--resolution", "0.01"], ["--sigma-steps", "201"],
                                        ["--theta-steps", "201"], ["--no-refine"])]
    gone += [[*_COMMANDS[name], *flag, "--out", "out"] for name, flag in _REMOVED + _FOREIGN]
    # a long flag is spelled in full: --p is not --p1, --sigma not --sigma-n
    gone += [["rdc", "binary", "--a", "0.3", "--p", "0.1", "--d", "0.1", "--c", "0.85"],
             ["restore", "--sigma", "0.5", "--a-st", "3"],
             # a point query takes one --d
             ["rpc-given-d", "point", "--d", "0.5", "0.6", "--c", "0.9", "--out", "out"]]
    # the family or mode is a subcommand, not an option
    old = [["surface", "--family", "rdc-binary", *_COMMANDS["surface rdc-binary"][2:]],
           ["oracle", "--family", "binary", *_ORACLE[2:]],
           ["rpc-given-d", "--d", "0.5", "--c", "0.762264"],
           ["rpc-given-d", "--rate", "0.4", "--d", "0.5", "--c-steps", "2"]]
    for argv in (["bogus"], [], ["rdc"], ["surface"], ["oracle", "--c", "0.9"],
                 ["rpc-given-d"], ["verify", "--suite", "nope"], *old, *gone):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 1
        assert out == "" and list(tmp_path.iterdir()) == []
        if argv in gone:
            assert "error: unrecognized arguments: " in err, argv


def test_every_declared_flag_is_read(capsys, tmp_path, monkeypatch):
    # each leaf's handler, run on one argv, reads every flag the leaf
    # declares, so a flag with no effect cannot come back unseen
    monkeypatch.chdir(tmp_path)
    declared, read = {}, {}
    for argv in _COMMANDS.values():
        ns = build_parser().parse_args(argv)
        seen = read[ns.parser.prog] = set()

        class Logged(argparse.Namespace):
            def __getattribute__(self, name):
                seen.add(name)
                return super().__getattribute__(name)

        assert ns.handler(Logged(**vars(ns))) in (0, 2), argv
        declared[ns.parser.prog] = {a.dest for a in ns.parser._actions if a.option_strings}
    capsys.readouterr()
    assert len(declared) == len(_COMMANDS)
    for prog, dests in declared.items():
        assert dests - {"help", "config"} <= read[prog], prog


def _readme_examples():
    """(argv, exit code) of each `rdpc` line in the sh blocks of README's
    CLI section: `\\` continuations joined, a trailing `# ...` comment
    dropped, and the code 0 unless the comment reads "exits N"."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", section, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            command, _, comment = line.partition("#")
            if command.startswith("rdpc "):
                code = re.search(r"exits (\d)", comment)
                examples.append((shlex.split(command)[1:], int(code[1]) if code else 0))
    return examples


def test_readme_has_cli_examples():
    commands = {argv[0] for argv, _ in _readme_examples()}
    assert commands == {"rdc", "rpc", "rpc-given-d", "surface", "oracle", "restore", "verify"}


@pytest.mark.parametrize("argv, code", _readme_examples())
def test_readme_cli_example_exits_as_documented(capsys, tmp_path, monkeypatch, argv, code):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == code
    capsys.readouterr()


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


def test_surface_help_names_each_family_s_grid_axes(capsys):
    # each surface lists its own axis triple and the C triple, and no other
    for family in ("rdc-binary", "rdc-gaussian", "rpc-binary", "rpc-gaussian"):
        with pytest.raises(SystemExit) as exc:
            main(["surface", family, "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        own = "DC" if family.startswith("rdc") else "PC"
        for axis in "DPC":
            for end, what in (("min", "start"), ("max", "end"), ("steps", "size")):
                flag = f"--{axis.lower()}-{end}"
                line = f"{flag} {flag[2:].upper().replace('-', '_')} {axis} grid {what}"
                assert (line in text) is (axis in own), (family, flag)
        assert ("--sigma-x" in text) is family.endswith("gaussian")
        assert ("--p1" in text) is family.endswith("binary")


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
    (["rpc-given-d", "point", "--d", "0.5", "--c", "0.762264"], ["rdpc.rpc_given_d"]),
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
    code, out, _ = run(capsys, "surface", "rdc-binary",
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
    code, out, _ = run(capsys, "surface", "rpc-gaussian",
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
    code, out, _ = run(capsys, "rpc-given-d", "frontier", "--d", "0.5", "--rate", "0.4",
                       "--c-steps", "4")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "C_nats,min_P_nats,rate_nats,sigma_xh"
    assert len(lines) == 5


def test_frontier_default_distortion_triple(capsys, tmp_path):
    out_base = tmp_path / "front.csv"
    code, _, _ = run(capsys, "rpc-given-d", "frontier", "--rate", "0.4", "--c-steps", "3",
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


# a matplotlib with what the emitted scripts call: no-op axes, and a
# savefig that writes its path into the file
_STUB_MATPLOTLIB = {
    "__init__.py": "def use(backend):\n    pass\n",
    "pyplot.py": '''\
class _Any:
    def __getattr__(self, name):
        return lambda *args, **kwargs: None


class _Figure(_Any):
    def savefig(self, path, **kwargs):
        with open(path, "w") as fh:
            fh.write(str(path))


def subplots(nrows=1, ncols=1, **kwargs):
    axes = [_Any() for _ in range(nrows * ncols)]
    return _Figure(), axes[0] if len(axes) == 1 else axes
''',
}


@pytest.mark.parametrize("argv, png", [
    (["surface", "rdc-binary", "--a", "0.3", "--p1", "0.1", "--d-min", "0",
      "--d-max", "0.4", "--d-steps", "3", "--c-min", "0.5", "--c-max", "1", "--c-steps", "3"],
     "data.csv.png"),
    (["restore", "--a-steps", "3"], "data.csv.png"),
    (["rpc-given-d", "frontier", "--rate", "0.4", "--c-steps", "3"], "data_d0.5.csv.png"),
])
def test_emitted_plot_scripts_run(capsys, tmp_path, argv, png):
    """Each script runs on the CSVs beside it, in a child process that
    imports the stub matplotlib, so a CSV column renamed in the CLI but not
    in its script fails here."""
    out = tmp_path / "data.csv"
    code, _, _ = run(capsys, *argv, "--out", str(out), "--emit-plot-script")
    assert code == 0
    stub = tmp_path / "stub" / "matplotlib"
    stub.mkdir(parents=True)
    for name, text in _STUB_MATPLOTLIB.items():
        (stub / name).write_text(text)
    path = os.pathsep.join(p for p in (str(stub.parent), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, f"{out}.plot.py"], cwd=tmp_path, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    assert (tmp_path / png).read_text() == str(tmp_path / png)


@pytest.mark.parametrize("argv", [
    ["rpc-given-d", "point", "--d", "0.5", "--p", "1e300", "--c", "0.5"],
    ["rpc-given-d", "point", "--d", "0.5", "--p", "0.1", "--c", "400"],
    ["rpc-given-d", "frontier", "--d", "0.5", "--rate", "1.0", "--c-min", "399", "--c-max",
     "400", "--c-steps", "2"],
])
def test_huge_finite_bounds_answer_without_a_traceback(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert out and "Traceback" not in err


def test_point_query_needs_single_distortion(capsys):
    code, out, _ = run(capsys, "rpc-given-d", "point", "--d", "0.5", "--p", "1",
                       "--c", "0.9")
    assert code == 0
    assert json.loads(out)["inputs"]["d"] == 0.5


def test_an_overflowing_noise_level_exits_one(capsys):
    # sigma_n**2 would overflow in every restoration metric
    code, out, err = run(capsys, "restore", "--sigma-n", "1e160", "--a-steps", "3")
    assert code == 1 and out == ""
    assert err.startswith("rdpc: error: noise level") and "Traceback" not in err


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
        ["surface", "rpc-gaussian", "--p-min", "0", "--p-max", "0.1",
         "--p-steps", "2", "--c-min", "0.5", "--c-max", "1", "--c-steps", "2",
         "--format", "json", "--out", "s.json", "--emit-plot-script"],
        ["rpc-given-d", "frontier", "--rate", "0.4", "--d", "0.5", "--c-steps", "3",
         "--format", "json", "--out", "f.json", "--emit-plot-script"],
        ["restore", "--a-steps", "3", "--emit-plot-script"],
        ["rpc-given-d", "frontier", "--rate", "0.4", "--d", "0.5", "0.6", "--c-steps", "3",
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
        ["surface", "rdc-binary", "--a", "0.3", "--p1", "0.1",
         "--d-min", "0", "--d-max", "0.3", "--d-steps", "3",
         "--c-min", "0.3", "--c-max", "1", "--c-steps", "4"],
        ["surface", "rpc-gaussian", "--p-min", "0.001", "--p-max", "0.01",
         "--p-steps", "2", "--c-min", "-1", "--c-max", "1.2", "--c-steps", "3"],
        ["restore", "--a-min", "0.5", "--a-max", "1.0", "--a-steps", "4"],
        ["rpc-given-d", "frontier", "--rate", "0.4", "--d", "0.5", "--c-steps", "4"],
        ["rpc-given-d", "frontier", "--rate", "0.4", "--d", "0.5", "0.6", "--c-steps", "4"],
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


def test_main_builds_the_parser_once(capsys, monkeypatch):
    built = []

    def counted():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._shared_parser.cache_clear()
    try:
        for argv in (RDC_EXAMPLE, RDC_EXAMPLE, ["rpc", "gaussian", "--p", "0.2", "--c", "0.562264"],
                     ["verify", "--suite", "entropy"]):
            assert run(capsys, *argv)[0] == 0
    finally:
        cli._shared_parser.cache_clear()
    assert len(built) == 1


def test_a_config_leaves_the_next_call_its_built_in_defaults(capsys, tmp_path):
    # --config sets defaults on a parser of its own, not on the shared one
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sigma_x": 2, "a_steps": 4}))
    point = ["rpc", "gaussian", "--p", "0.2", "--c", "0.562264"]
    for extra, sigma_x in ((["--config", str(cfg)], 2.0), ([], 1.0)):
        _, out, _ = run(capsys, *point, *extra)
        assert json.loads(out)["inputs"]["sigma_x"] == sigma_x
    for extra, rows in ((["--config", str(cfg)], 4), ([], 146)):
        code, out, _ = run(capsys, "restore", *extra)
        assert code == 0 and len(out.strip().split("\n")) == 1 + rows


def test_two_verify_calls_in_one_process_write_the_same_bytes(tmp_path):
    outs = [tmp_path / "first.json", tmp_path / "second.json"]
    for out in outs:
        assert main(["verify", "--seed", "0", "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


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


def test_config_beats_a_built_in_default_and_a_flag_beats_both(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sigma_x": 2, "a_steps": 4}))
    point = ["rpc", "gaussian", "--p", "0.2", "--c", "0.562264", "--config", str(cfg)]
    for extra, sigma_x in (([], 2.0), (["--sigma-x", "3"], 3.0)):
        _, out, _ = run(capsys, *point, *extra)
        assert json.loads(out)["inputs"]["sigma_x"] == sigma_x
    for extra, rows in (([], 4), (["--a-steps", "3"], 3)):
        code, out, _ = run(capsys, "restore", "--config", str(cfg), *extra)
        assert code == 0 and len(out.strip().split("\n")) == 1 + rows


def test_a_suite_flag_replaces_the_config_list(capsys, tmp_path):
    # --suite appends, but the flags given replace the config's list
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suite": ["entropy"]}))
    code, out, _ = run(capsys, "verify", "--config", str(cfg), "--suite", "mgl")
    assert code == 0 and [s["name"] for s in json.loads(out)["suites"]] == ["mgl"]


def test_config_must_be_an_object(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    code, _, err = run(capsys, "rdc", "binary", "--config", str(cfg),
                       "--a", "0.3", "--p1", "0.1", "--d", "0.1", "--c", "0.9")
    assert code == 1
    assert "object" in err


@pytest.mark.parametrize("argv, config, key", [
    (["rpc-given-d", "frontier", "--rate", "0.4"], {"d": 0.5}, "d"),
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
    code, out, _ = run(capsys, "oracle", "binary", "--a", "0.3",
                       "--p1", "0.1", "--c", "0.4")
    assert code == 2
    assert json.loads(out)["rate"] is None


@pytest.mark.parametrize("family, bounds", [
    ("binary", ["--a", "0.3", "--p1", "0.1", "--d", "0.2"]),
    ("gaussian", ["--p", "0.1"]),
])
def test_oracle_minus_inf_bound_is_infeasible(capsys, family, bounds):
    code, out, _ = run(capsys, "oracle", family, *bounds, "--c=-inf")
    assert code == 2
    assert json.loads(out)["feasible"] is False
    code, out, _ = run(capsys, "oracle", family, *bounds, "--c=inf")
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
    argv = ["surface", "rdc-gaussian", "--d-min", "0.1",
            "--d-max", "1.0", "--d-steps", "4", "--c-min", "0.4",
            "--c-max", "1.1", "--c-steps", "4"]
    _, first, _ = run(capsys, *argv)
    _, again, _ = run(capsys, *argv)
    assert first == again


def test_a_binary_point_at_its_marginal_near_one_half_exits_zero(capsys):
    # (1 - eps - b) / (1 - 2 eps) rounds to 1 + 2.8e-8 here; the point is feasible
    code, out, err = run(capsys, "rdc", "binary", "--a", "0.499999999", "--p1", "0",
                         "--d", "0.499999999", "--c", "1")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["feasible"] is True and payload["witness"] == {"p_a": 1.0, "p_b": 1.0}


def test_a_config_switch_given_as_true_is_taken(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"emit_plot_script": True}))
    out = tmp_path / "restore.csv"
    code, _, _ = run(capsys, "restore", "--a-steps", "3", "--config", str(cfg), "--out", str(out))
    assert code == 0 and Path(f"{out}.plot.py").is_file()


@pytest.mark.parametrize("argv, config, message", [
    (["restore", "--a-steps", "3"], None, "cannot read config "),
    (["restore", "--a-steps", "3"], {"emit_plot_script": "yes"},
     "config key 'emit_plot_script': must be true or false: 'yes'"),
    (["surface", "rdc-binary", "--a", "0.3", "--p1", "0.1", "--d-min", "0.5",
      "--d-max", "0.1", "--d-steps", "3", "--c-min", "0.5", "--c-max", "0.9", "--c-steps", "3"],
     {}, "--d-max must be >= --d-min"),
    (["rpc-given-d", "point", "--p", "0.1", "--c", "0.9"], {}, "missing required value --d"),
])
def test_refused_inputs_exit_one_with_their_message(capsys, tmp_path, argv, config, message):
    cfg = tmp_path / "cfg.json"
    if config is not None:
        cfg.write_text(json.dumps(config))
    code, out, err = run(capsys, *argv, "--config", str(cfg))
    assert code == 1 and out == ""
    assert err.startswith(f"rdpc: error: {message}")
