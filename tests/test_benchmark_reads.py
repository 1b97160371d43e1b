"""The benchmark drives spl through names it reads from the package.

`perfbench/worker.py` calls functions on module aliases (`cp.`, `sc.`, ...)
and `perfbench/traced_cli.py` wraps the functions its TRACED table names
and the lazy `SieveCache` views. Deleting any of them breaks only a
benchmark run, so these tests read both scripts (without importing them)
and check every such name against the package.
"""

import ast
import importlib
import json
import subprocess
import sys
from functools import cached_property
from pathlib import Path

import pytest

from conftest import child_env
from spl.core_primes import SieveCache

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tree(name: str) -> ast.Module:
    path = PERFBENCH / name
    return ast.parse(path.read_text(), str(path))


def test_worker_module_attributes_exist():
    tree = _tree("worker.py")
    aliases = {
        a.asname: importlib.import_module(f"spl.{a.name}")
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "spl"
        for a in node.names
        if a.asname
    }
    assert set(aliases) >= {"cp", "sc", "lf", "ex", "ws"}
    missing = [
        f"worker.py:{node.lineno} {node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in aliases
        and not hasattr(aliases[node.value.id], node.attr)
    ]
    assert missing == []


def test_traced_names_exist():
    tree = _tree("traced_cli.py")
    traced = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED" for t in node.targets)
    )
    missing = [
        f"{layer}.{name}"
        for layer, names in traced.items()
        for name in names
        if not hasattr(importlib.import_module(f"spl.{layer}"), name)
    ]
    assert missing == []


def test_sieve_views_are_cached_properties():
    # traced_cli wraps each view's `.func` to time its first access
    for view in ("flags", "primes"):
        assert isinstance(SieveCache.__dict__[view], cached_property)


# small inputs of the cli-session commands, and the library spans each must record
TRACED_COMMANDS = {
    "count t --x 1000 --theta 1/2": {"shifted_counts.large_factor_count.cold"},
    "count tk --x 1000 --k 2 --theta 1/4 --method both": {
        "shifted_counts.tuple_count_fast.k2",
        "shifted_counts.tuple_count_oracle",
    },
    "dickman theta1": {"dickman.solve_theta1"},
    "verify abel --x 10000 --k 2 --theta 1/4 --shifts 2": {
        "linear_forms.inverse_power_prime_sum",
        "linear_forms.abel_identity_rhs",
    },
    "experiment density --theta 1/2 --x-grid 100": {"experiments.density_table", "experiments.write_csv"},
    "wsum --g 2 --ell 1 --z 100 --holder": {"weighted_sums.holder_verify.g2"},
}


@pytest.mark.parametrize("command", TRACED_COMMANDS)
def test_traced_cli_records_library_spans(tmp_path, command):
    """traced_cli wraps spl.cli's module attributes before main runs; a command that
    reaches its library functions some other way runs untraced and records no span."""
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "traced_cli.py"), "test", str(spans),
         *command.split(), "--cache-dir", str(tmp_path / "cache")],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    names = {span["name"] for span in json.loads(spans.read_text())}
    assert TRACED_COMMANDS[command] <= names, sorted(names)
