"""Each public name has one import path, `spl.<module>.<name>`.

A module's `__all__` is the list of its public names, so it must name
every public function and class the module defines and nothing it lacks;
the package itself re-exports none of them. `spl.errors` has one class
per CLI exit code.
"""

import importlib
import inspect
import pkgutil

import pytest

import spl
from spl import cli, errors, weighted_sums

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


@pytest.mark.parametrize(
    "cls, code, prefix",
    [
        (errors.ArgumentError, 1, "error: "),
        (errors.RangeError, 2, "error: "),
        (errors.VerificationError, 3, "verification failed: "),
    ],
    ids=["argument", "range", "verification"],
)
def test_one_exception_class_per_exit_code(capsys, monkeypatch, cls, code, prefix):
    subclasses = {
        v for v in vars(errors).values()
        if inspect.isclass(v) and issubclass(v, errors.SplError) and v is not errors.SplError
    }
    assert subclasses == {errors.ArgumentError, errors.RangeError, errors.VerificationError}

    def leaf(*args):
        raise cls("from the leaf")

    monkeypatch.setattr(weighted_sums, "weighted_tuple_sum", leaf)
    assert cli.main(["wsum", "--g", "1", "--ell", "1", "--z", "4"]) == code
    out, err = capsys.readouterr()
    assert out == "" and err == f"{prefix}from the leaf\n"
