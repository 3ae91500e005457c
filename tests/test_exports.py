"""The package's public names agree with each module's ``__all__``."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import seqcontest

MODULES = sorted(m.name for m in pkgutil.iter_modules(seqcontest.__path__) if not m.ispkg)

ORACLE_NAMES = [
    "oracle_grid_spne",
    "GridTooLarge",
    "jonckheere_terpstra_exact",
    "JTExactResult",
    "Polynomial",
    "RecursionLadder",
    "optimal_first_mover_walk",
    "_roots",
]


def test_library_modules_found():
    assert {"core", "equilibrium", "behavior", "simulate", "stats", "cli"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_exists(name):
    module = importlib.import_module(f"seqcontest.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing


def test_top_level_exports_are_listed_where_defined():
    # behavior, simulate and stats resolve on first use, so their names are
    # looked up too
    exports = dict(vars(seqcontest))
    exports.update((attr, getattr(seqcontest, attr)) for attr in seqcontest.__all__)
    unlisted = []
    for attr, value in exports.items():
        defined_in = getattr(value, "__module__", None)
        if attr.startswith("_") or not (defined_in or "").startswith("seqcontest."):
            continue
        if attr not in importlib.import_module(defined_in).__all__:
            unlisted.append(f"{defined_in}.{attr}")
    assert not unlisted


def test_oracles_are_not_library_names():
    exposed = [
        f"{name}.{attr}"
        for name in MODULES
        for attr in ORACLE_NAMES
        if hasattr(importlib.import_module(f"seqcontest.{name}"), attr)
    ]
    exposed += [attr for attr in ORACLE_NAMES if hasattr(seqcontest, attr)]
    assert not exposed


REEXPORTED = ["core", "equilibrium", "behavior", "simulate", "stats"]


@pytest.mark.parametrize("name", REEXPORTED)
def test_every_public_name_is_importable_from_the_package(name):
    module = importlib.import_module(f"seqcontest.{name}")
    different = [
        attr for attr in module.__all__
        if getattr(seqcontest, attr, None) is not getattr(module, attr)
    ]
    assert not different


def test_no_name_is_public_in_two_modules():
    seen = {}
    for name in REEXPORTED:
        for attr in importlib.import_module(f"seqcontest.{name}").__all__:
            seen.setdefault(attr, []).append(name)
    assert not {attr: where for attr, where in seen.items() if len(where) > 1}


@pytest.mark.parametrize("name", sorted(seqcontest._LAZY_EXPORTS))
def test_lazy_names_are_the_module_public_names(name):
    module = importlib.import_module(f"seqcontest.{name}")
    assert list(seqcontest._LAZY_EXPORTS[name]) == module.__all__
    assert {name, *module.__all__} <= set(dir(seqcontest))


def test_star_import_binds_every_public_name():
    # a fresh process, in which no lazy module has been imported yet
    src = os.path.dirname(os.path.dirname(seqcontest.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import importlib\n"
        "names = {}\n"
        "exec('from seqcontest import *', names)\n"
        f"for name in {REEXPORTED!r}:\n"
        "    module = importlib.import_module('seqcontest.' + name)\n"
        "    for attr in module.__all__:\n"
        "        if names.get(attr) is not getattr(module, attr):\n"
        "            print(f'{name}.{attr}')\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout == ""
