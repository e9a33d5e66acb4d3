"""The package surface the benchmark harness under ``perfbench/`` relies
on. The harness files are read as syntax trees, never imported, so a
change that drops a name they use fails here rather than in a benchmark
run."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import rdpc
from rdpc import cli

HARNESS = sorted((Path(__file__).resolve().parent.parent / "perfbench").glob("*.py"))


def _trees():
    return [(path.name, ast.parse(path.read_text())) for path in HARNESS]


def test_the_harness_is_present():
    assert {"run.py", "workloads.py", "tracer.py"} <= {path.name for path in HARNESS}


@pytest.mark.parametrize("name, tree", _trees())
def test_every_rdpc_name_the_harness_uses_exists(name, tree):
    modules = {"rdpc": rdpc, "cli": cli}
    used = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            used.add((node.value.id, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "rdpc":
            used.update(("rdpc", alias.name) for alias in node.names)
        elif (isinstance(node, ast.Assign) and len(node.targets) == 1
              and getattr(node.targets[0], "id", None) == "CURVE_FAMILIES"):
            # the closed forms a workload looks up by name on the package
            used.update(("rdpc", elt.value) for elt in node.value.elts)
    missing = sorted(f"{mod}.{attr}" for mod, attr in used
                     if not hasattr(modules[mod], attr))
    assert not missing, f"{name} uses names the package no longer has: {missing}"


@pytest.mark.parametrize("fn", [rdpc.binary_min_rate, rdpc.gaussian_min_rate, rdpc.run_suites])
def test_harness_entry_points_accept_workers(fn):
    assert "workers" in inspect.signature(fn).parameters


def test_every_oracle_keyword_the_harness_passes_is_accepted():
    """``workloads.call_oracle`` calls ``<kind>_min_rate(src, cons,
    refine=..., workers=..., **GRIDS[(kind, grid)])``, so an oracle that
    drops one of those keywords fails here rather than in a benchmark run."""
    tree = ast.parse(next(p for p in HARNESS if p.name == "workloads.py").read_text())
    grids = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign) and len(node.targets) == 1
                 and getattr(node.targets[0], "id", None) == "GRIDS")
    assert {kind for kind, _ in grids} == {"binary", "gaussian"}
    for (kind, _), grid in grids.items():
        oracle = inspect.signature(getattr(rdpc, f"{kind}_min_rate"))
        oracle.bind(None, {}, refine=False, workers=1, **grid)  # TypeError if refused


def _tracer_tables():
    """``SPANS`` and ``COUNTS`` of ``perfbench/tracer.py``."""
    tree = ast.parse(next(p for p in HARNESS if p.name == "tracer.py").read_text())
    return {node.target.id: ast.literal_eval(node.value) for node in tree.body
            if isinstance(node, ast.AnnAssign)
            and getattr(node.target, "id", "") in ("SPANS", "COUNTS")}


def _owner(path):
    """A module, or a class inside one, from its dotted name, as the tracer
    resolves it; AttributeError if the module has no such class."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, name = path.rpartition(".")
        return getattr(importlib.import_module(module), name)


def test_every_path_the_tracer_patches_resolves():
    """``Tracer.__enter__`` imports each owner of ``SPANS`` and ``COUNTS``,
    a module or a class inside one, so a renamed module would crash every
    traced run."""
    tables = _tracer_tables()
    paths = {path for owners in tables["SPANS"].values() for path in owners}
    paths |= {path for sites in tables["COUNTS"].values() for path, _ in sites}

    def resolves(path):
        try:
            _owner(path)
        except AttributeError:
            return False
        return True

    assert len(paths) >= 10
    assert not sorted(p for p in paths if not resolves(p))


# tracer targets whose code is gone from rdpc; the benchmark's next revision
# drops them from perfbench/tracer.py, and this set with them
_RETIRED = {"entropy.numeric_kl", "optimize.golden_min", "sources.mixture_density",
            "rpc_given_d.eval_at", "closed_form.rpc_binary_witness"}


def test_every_tracer_target_resolves_unless_retired():
    """A ``SPANS`` or ``COUNTS`` target that no owner has is skipped by
    ``Tracer.__enter__``, so its metric reads 0 with no error. Each target
    must resolve on at least one owner, or be listed in ``_RETIRED``; a
    listed one that resolves again fails too, so the list stays exact."""
    tables = _tracer_tables()
    sites = {name: [(owner, name.rpartition(".")[2]) for owner in owners]
             for name, owners in tables["SPANS"].items()}
    sites.update(tables["COUNTS"])
    resolved = {name for name, pairs in sites.items()
                if any(hasattr(_owner(owner), attr) for owner, attr in pairs)}
    assert _RETIRED <= set(sites)
    assert sorted(set(sites) - resolved - _RETIRED) == []
    assert sorted(_RETIRED & resolved) == []
