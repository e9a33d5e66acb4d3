"""The package namespace: ``import rdpc`` loads the closed-form layer, and
every other public name is imported and bound on first use (PEP 562)."""

import ast
import importlib
from pathlib import Path

import pytest

import rdpc

SRC = Path(rdpc.__file__).parent


def test_every_public_name_is_its_home_modules_object():
    for name in rdpc.__all__:
        home = importlib.import_module(f"rdpc.{rdpc._HOME[name]}")
        assert getattr(rdpc, name) is getattr(home, name), name


def test_star_import_binds_every_public_name():
    ns = {}
    exec("from rdpc import *", ns)
    assert [name for name in rdpc.__all__ if ns.get(name) is not getattr(rdpc, name)] == []


def test_dir_lists_every_public_name():
    assert set(rdpc.__all__) <= set(dir(rdpc))


@pytest.mark.parametrize("name", ["nope", "_HOMEX", "oracle_min_rate", "cli_main"])
def test_an_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=f"has no attribute {name!r}"):
        getattr(rdpc, name)
    assert not hasattr(rdpc, name)


@pytest.mark.parametrize("name", ["binary_min_rate", "frontier", "rate_given_pcd", "run_suites",
                                  "SUITE_NAMES"])
def test_a_lazy_name_is_bound_on_first_access(monkeypatch, name):
    value = getattr(rdpc, name)
    monkeypatch.delitem(vars(rdpc), name)
    assert getattr(rdpc, name) is value
    assert vars(rdpc)[name] is value


def test_a_submodule_resolves_as_an_attribute(monkeypatch):
    monkeypatch.delitem(vars(rdpc), "verify")
    assert rdpc.verify is importlib.import_module("rdpc.verify")


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_module_level_import_is_read(path):
    # a name a module imports but never reads is dead weight at import time
    tree = ast.parse(path.read_text())
    bound = {
        (alias.asname or alias.name).partition(".")[0]
        for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert sorted(bound - read) == []
