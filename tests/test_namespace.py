"""The lazy package namespace and the modules each command loads.

``desimone`` resolves each public name on first use by importing the module
that owns it, and ``python -m desimone`` loads only the layers a command
runs. The subprocess tests check which modules a fresh interpreter has
loaded after a command, not how long it took.
"""

import ast
import importlib
import subprocess
import sys

import pytest

import desimone
from desimone import spec_path
from test_cli import _cli_env


def test_every_exported_name_is_its_modules_object():
    for name in desimone.__all__:
        module = importlib.import_module(f"desimone.{desimone._OWNER[name]}")
        assert getattr(desimone, name) is getattr(module, name), name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from desimone import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(desimone.__all__)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        desimone.nope
    assert not hasattr(desimone, "nope")
    with pytest.raises(ImportError):
        exec("from desimone import nope", {})


def test_a_submodule_is_still_importable_by_name():
    from desimone import analysis

    assert analysis is sys.modules["desimone.analysis"]
    assert analysis.fingerprint_buckets is desimone.fingerprint_buckets


def test_dir_lists_every_exported_name():
    assert set(desimone.__all__) <= set(dir(desimone))
    assert "__version__" in dir(desimone)


# Runs the command as ``python -m desimone`` does.
RUN_MAIN = (
    "import runpy\n"
    "sys.argv[0] = 'desimone'\n"
    "try:\n"
    "    runpy.run_module('desimone', run_name='__main__', alter_sys=True)\n"
    "except SystemExit:\n"
    "    pass\n"
)


def _modules(code, *argv):
    """Every module a fresh interpreter holds after running ``code``."""
    proc = subprocess.run(
        [sys.executable, "-c", "import sys\n" + code + "print(sorted(sys.modules))\n", *argv],
        capture_output=True, text=True, env=_cli_env(), timeout=60,
    )
    assert proc.stderr == ""
    return set(ast.literal_eval(proc.stdout.splitlines()[-1]))


def _loaded(code, *argv):
    """The package modules a fresh interpreter holds after running ``code``."""
    return {m for m in _modules(code, *argv) if m.startswith("desimone")}


def test_importing_the_package_loads_no_layer():
    assert _loaded("import desimone\n") == {"desimone"}


def test_validate_loads_only_the_parser():
    loaded = _loaded(RUN_MAIN, "validate", str(spec_path("prob_par")), "--json")
    assert loaded == {
        "desimone", "desimone.cli", "desimone.rulespec", "desimone.semiring",
        "desimone.terms",
    }


@pytest.mark.parametrize(
    "argv, absent",
    [
        (["ast", "leaky", "c0", "--json"], {"analysis", "law", "corpus"}),
        (["traces", "prob_par", "par(pre_a(nil), nil)", "--json"],
         {"analysis", "law", "corpus"}),
        (["congruence", "prob_par", "--size", "3", "--depth", "2", "--json"],
         {"law", "corpus"}),
    ],
)
def test_a_command_loads_no_layer_it_does_not_run(argv, absent):
    command, spec, *rest = argv
    loaded = _loaded(RUN_MAIN, command, str(spec_path(spec)), *rest)
    assert "desimone.trace" in loaded  # the command ran
    assert loaded.isdisjoint(f"desimone.{module}" for module in absent)


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "copy_nonaffine", "--json"],
        ["ast", "leaky", "c0", "--json"],
        ["congruence", "prob_par", "--size", "3", "--depth", "2", "--json"],
        ["step", "prob_par", "par(pre_a(nil), nil)", "--json"],
    ],
)
def test_no_command_imports_dataclasses_or_inspect(argv):
    # the package's records are ``terms.Record``s: generating dataclasses
    # costs a cold process about 10 ms, most of it importing ``inspect``
    command, spec, *rest = argv
    loaded = _modules(RUN_MAIN, command, str(spec_path(spec)), *rest)
    assert "desimone.cli" in loaded  # the command ran
    assert not (loaded - _modules("")) & {"dataclasses", "inspect"}
