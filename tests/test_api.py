"""Each public name has one import path, `spl.<module>.<name>`.

A module's `__all__` is the list of its public names, so it must name
every public function and class the module defines and nothing it lacks;
the package itself re-exports none of them, and each has a caller in the
package or the benchmark. `spl.errors` has one class per CLI exit code.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import spl
from spl import cli, errors, weighted_sums

MODULES = [importlib.import_module(f"spl.{m.name}") for m in pkgutil.iter_modules(spl.__path__)]
WITH_ALL = [mod for mod in MODULES if hasattr(mod, "__all__")]
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# the paper's sieve majorant, kept to be reported beside M(t) (ROADMAP item 9)
NO_CALLER_YET = {"spl.linear_forms.sieve_bound_value"}


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


def test_every_public_name_has_a_caller():
    """Every `__all__` name is read by the package or the benchmark, not only by tests.

    A reference is a Name, an Attribute or an import alias anywhere in
    the package's modules or in perfbench/*.py but its tests.
    """
    paths = [*Path(spl.__file__).parent.glob("*.py"), *PERFBENCH.glob("*.py")]
    field = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}
    referenced = {
        getattr(node, field[type(node)])
        for path in paths
        if not path.name.startswith("test_")
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if type(node) in field
    }
    uncalled = {f"{mod.__name__}.{n}" for mod in WITH_ALL for n in mod.__all__ if n not in referenced}
    assert uncalled == NO_CALLER_YET


def test_every_private_name_is_read():
    """Every module-level `_name` a module of the package defines is read somewhere in the package.

    A read is a loaded Name, an Attribute or an import alias; the
    definition itself does not count, so a constant or helper left behind
    by a cut shows here.
    """
    trees = [ast.parse(path.read_text(), str(path)) for path in Path(spl.__file__).parent.glob("*.py")]
    defined = set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            defined.update(t.id for t in targets if isinstance(t, ast.Name))
    private = {n for n in defined if n.startswith("_") and not n.startswith("__")}
    read = {
        node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else node.name
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        or isinstance(node, (ast.Attribute, ast.alias))
    }
    assert sorted(private - read) == []


def test_every_imported_name_is_read_where_imported():
    """Every name a module of the package imports is read in that module.

    An import alias does not count as a read of its own name here (it does
    in test_every_private_name_is_read), so an import kept after its last
    use in the module is cut shows here. `from __future__` binds nothing.
    """
    unread = []
    for path in Path(spl.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(), str(path))
        bound = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            or isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names
        }
        read = {
            node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unread += [f"{path.stem}.{name}" for name in sorted(bound - read)]
    assert unread == []


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
