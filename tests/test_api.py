"""Each public name has one import path, `spl.<module>.<name>`.

A module's `__all__` is the list of its public names, so it must name
every public function and class the module defines and nothing it lacks;
the package itself re-exports none of them.
"""

import importlib
import inspect
import pkgutil

import spl

MODULES = [importlib.import_module(f"spl.{m.name}") for m in pkgutil.iter_modules(spl.__path__)]
WITH_ALL = [mod for mod in MODULES if hasattr(mod, "__all__")]


def test_modules_with_all():
    names = {mod.__name__ for mod in WITH_ALL}
    assert names >= {
        "spl.core_primes", "spl.shifted_counts", "spl.linear_forms",
        "spl.weighted_sums", "spl.dickman", "spl.experiments",
    }


def test_all_names_exist():
    missing = [f"{mod.__name__}.{n}" for mod in WITH_ALL for n in mod.__all__ if not hasattr(mod, n)]
    assert missing == []


def test_all_lists_every_public_function_and_class():
    unlisted = [
        f"{mod.__name__}.{n}"
        for mod in WITH_ALL
        for n, v in vars(mod).items()
        if not n.startswith("_")
        and (inspect.isfunction(v) or inspect.isclass(v))
        and v.__module__ == mod.__name__
        and n not in mod.__all__
    ]
    assert unlisted == []


def test_package_reexports_nothing():
    importlib.import_module("spl.cli")  # binds every submodule the CLI uses on the package
    reexported = [
        n for n, v in vars(spl).items()
        if not n.startswith("_") and (inspect.isfunction(v) or inspect.isclass(v))
    ]
    assert reexported == []
