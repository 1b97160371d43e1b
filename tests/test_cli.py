import importlib.util
import json
import math
import subprocess
import sys
from itertools import takewhile
from pathlib import Path

import pytest

from spl.cli import build_parser, main
from spl.core_primes import load_sieve

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _benchmark_commands() -> list:
    """Every argv the cli-session benchmark runs, plus its sieve build."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    inputs = workloads.make_inputs("cli-session", 1, tiny=True)
    cmds = [argv for _, argv in workloads.cli_commands(inputs)]
    return cmds + [["sieve", "build", "--limit", str(inputs["limit"])]]


BENCHMARK_COMMANDS = _benchmark_commands()


def _leaf(argv) -> str:
    """The subcommand path of argv, e.g. 'count t'."""
    return " ".join(takewhile(lambda a: not a.startswith("--"), argv))


@pytest.fixture()
def cache_dir(tmp_path):
    return str(tmp_path / "cache")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCountCommands:
    def test_tk_both_agree(self, capsys, cache_dir):
        code, out, _ = run(
            capsys, "count", "tk", "--x", "35", "--k", "2", "--theta", "1/4",
            "--method", "both", "--cache-dir", cache_dir,
        )
        assert code == 0
        assert out.strip() == "oracle=3 fast=3"

    def test_tk_unordered(self, capsys, cache_dir):
        code, out, _ = run(
            capsys, "count", "tk", "--x", "35", "--k", "2", "--theta", "1/4",
            "--method", "oracle", "--unordered", "--cache-dir", cache_dir,
        )
        assert code == 0
        assert out.strip() == "2"  # multisets {3,3} and {3,5}

    def test_both_mismatch_exits_three(self, capsys, cache_dir, monkeypatch):
        import spl.cli as cli_mod

        monkeypatch.setattr(cli_mod, "tuple_count_fast", lambda *a, **k: 999)
        code, out, _ = run(
            capsys, "count", "tk", "--x", "35", "--k", "2", "--theta", "1/4",
            "--method", "both", "--cache-dir", cache_dir,
        )
        assert code == 3
        assert out.strip() == "oracle=3 fast=999"

    def test_single_counters(self, capsys, cache_dir):
        code, out, _ = run(capsys, "count", "t", "--x", "100", "--theta", "1/2", "--cache-dir", cache_dir)
        assert code == 0 and out.strip() == "13"
        code, out, _ = run(capsys, "count", "tprime", "--x", "100", "--theta", "1/2", "--cache-dir", cache_dir)
        assert code == 0 and out.strip() == "8"
        code, out, _ = run(capsys, "count", "tc", "--x", "10", "--theta", "1/2", "--cache-dir", cache_dir)
        assert code == 0 and out.strip() == "2"

    @pytest.mark.parametrize("bad", ["0.5", "3/2", "5/5", "x"])
    def test_theta_rejected(self, capsys, cache_dir, bad):
        code, _, err = run(capsys, "count", "t", "--x", "10", "--theta", bad, "--cache-dir", cache_dir)
        assert code == 1
        assert "theta" in err

    def test_tk_both_below_two_to_the_k(self, capsys, cache_dir):
        code, out, _ = run(
            capsys, "count", "tk", "--x", "-10", "--k", "2", "--theta", "1/4",
            "--method", "both", "--cache-dir", cache_dir,
        )
        assert code == 0
        assert out.strip() == "oracle=0 fast=0"

    def test_capacity_exit_code(self, capsys, cache_dir):
        code, _, err = run(
            capsys, "count", "t", "--x", str(2**41), "--theta", "1/2", "--cache-dir", cache_dir
        )
        assert code == 2


class TestOtherCommands:
    def test_msim(self, capsys, cache_dir):
        code, out, _ = run(capsys, "msim", "--t", "20", "--shifts", "2", "--cache-dir", cache_dir)
        assert code == 0 and out.strip() == "4"

    def test_msim_degenerate_shifts(self, capsys, cache_dir):
        code, _, err = run(capsys, "msim", "--t", "20", "--shifts", "2,2", "--cache-dir", cache_dir)
        assert code == 1

    def test_wsum(self, capsys):
        code, out, _ = run(capsys, "wsum", "--g", "2", "--ell", "1", "--z", "4")
        assert code == 0
        assert float(out.strip()) == pytest.approx(1 / 3, abs=1e-9)

    def test_wsum_holder(self, capsys):
        code, out, _ = run(capsys, "wsum", "--g", "2", "--ell", "1", "--z", "6", "--holder")
        assert code == 0
        assert "bound=" in out

    def test_wsum_budget_exit_code(self, capsys):
        code, _, err = run(capsys, "wsum", "--g", "2", "--ell", "1", "--z", "1000000")
        assert code == 2

    def test_dickman_theta2(self, capsys):
        code, out, _ = run(capsys, "dickman", "theta2")
        assert code == 0
        assert float(out.strip()) == pytest.approx(0.3734, abs=5e-4)

    def test_dickman_rho(self, capsys):
        code, out, _ = run(capsys, "dickman", "rho", "--u", "2.0")
        assert code == 0
        assert float(out.strip()) == pytest.approx(0.30685281944, abs=1e-8)

    def test_dickman_density(self, capsys):
        code, out, _ = run(capsys, "dickman", "density", "--theta", "1/2")
        assert code == 0
        assert float(out.strip()) == pytest.approx(0.6931471805, abs=1e-7)


class TestVerify:
    def test_mobius_ok(self, capsys):
        code, out, _ = run(capsys, "verify", "mobius", "--hmax", "100", "--L", "2")
        assert code == 0
        assert out.startswith("ok")

    def test_abel_ok(self, capsys, cache_dir):
        code, out, _ = run(
            capsys, "verify", "abel", "--x", "10000", "--k", "2", "--theta", "1/4",
            "--shifts", "2", "--cache-dir", cache_dir,
        )
        assert code == 0
        assert "rel=" in out

    def test_abel_sieve_reaches_only_the_forms_at_the_kth_root(self, capsys, cache_dir):
        """x = 1e13 is past the sieve ceiling, but both sides need only 2 * isqrt(x) + 1."""
        x = 10**13
        code, out, err = run(
            capsys, "verify", "abel", "--x", str(x), "--k", "2", "--theta", "1/4",
            "--shifts", "2", "--cache-dir", cache_dir,
        )
        assert code == 0, err
        fields = dict(tok.split("=") for tok in out.split())
        assert fields["lhs"] == fields["rhs"]
        assert load_sieve(Path(cache_dir) / "sieve.spl").limit <= 2 * math.isqrt(x) + 1


class TestOutOfDomainArguments:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "abel", "--x", "1000", "--k", "0", "--theta", "1/4", "--shifts", "2"],
            ["verify", "abel", "--x", "1000", "--k", "-1", "--theta", "1/4", "--shifts", "2"],
            ["experiment", "rearrange", "--x", "1000", "--k", "0", "--theta", "1/4"],
            ["experiment", "apsum", "--x", "1", "--p-list", "3"],
            ["experiment", "apsum", "--x", "1000", "--p-list", "1,3"],
            ["experiment", "ratio", "--k", "2", "--theta", "1/4", "--x-grid", "0"],
            ["experiment", "density", "--theta", "1/2", "--x-grid", ","],
        ],
    )
    def test_exit_one_with_message(self, capsys, cache_dir, argv):
        code, out, err = run(capsys, *argv, "--cache-dir", cache_dir)
        assert code == 1 and out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["dickman", "rho", "--u", "2", "--step", "0"], 1),
            (["dickman", "rho", "--u", "2", "--step", "-0.001"], 1),
            (["dickman", "rho", "--u", "2", "--u-max", "nan"], 1),
            (["dickman", "theta1", "--step", "1e-300"], 2),
        ],
    )
    def test_bad_rho_grid(self, capsys, argv, code):
        got, out, err = run(capsys, *argv)
        assert got == code and out == ""
        assert err.startswith("error: ")

    def test_rearrange_k1_keeps_the_empty_sum_term(self, capsys, cache_dir):
        """At k = 1 both sides are the sum of 1/p: (empty h-sum)^0 = 1 counts."""
        code, out, _ = run(
            capsys, "experiment", "rearrange", "--x", "1000", "--k", "1",
            "--theta", "1/4", "--format", "json", "--cache-dir", cache_dir,
        )
        assert code == 0
        raw = json.loads(out)["raw"]
        assert raw["double_sum"] == raw["substitution_majorant"] > 0


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "bogus")
        assert code == 1

    def test_missing_subcommand(self, capsys):
        code, _, _ = run(capsys)
        assert code == 1

    def test_console_script_wired(self):
        proc = subprocess.run(
            [sys.executable, "-m", "spl.cli", "dickman", "rho", "--u", "0.5"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "1"


class TestFlags:
    def test_benchmark_commands_parse(self, cache_dir):
        """Each command the benchmark runs, with the --cache-dir it appends."""
        leaves = set()
        for argv in BENCHMARK_COMMANDS:
            args = build_parser().parse_args(argv + ["--cache-dir", cache_dir])
            assert args.cache_dir == cache_dir
            leaves.add(_leaf(argv))
        assert len(leaves) == 17  # every leaf command of spl

    @pytest.mark.parametrize("argv", BENCHMARK_COMMANDS, ids=_leaf)
    def test_sieve_limit_rejected(self, capsys, cache_dir, argv):
        code, out, _ = run(capsys, *argv, "--sieve-limit", "10", "--cache-dir", cache_dir)
        assert code == 1 and out == ""

    @pytest.mark.parametrize(
        "argv",
        [a for a in BENCHMARK_COMMANDS if a[0] != "experiment"],
        ids=_leaf,
    )
    def test_table_flags_only_on_experiments(self, capsys, cache_dir, argv):
        code, out, _ = run(capsys, *argv, "--format", "json", "--cache-dir", cache_dir)
        assert code == 1 and out == ""
        code, out, _ = run(capsys, *argv, "--output", "-", "--cache-dir", cache_dir)
        assert code == 1 and out == ""

    def test_empty_cache_dir_means_default(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("SPL_CACHE_DIR", str(tmp_path / "default"))
        code, out, _ = run(capsys, "count", "t", "--x", "100", "--theta", "1/2", "--cache-dir", "")
        assert code == 0 and out.strip() == "13"
        assert (tmp_path / "default" / "sieve.spl").exists()


class TestExperimentsAndCache:
    def test_worker_outputs_byte_identical(self, capsys, tmp_path, cache_dir):
        """An --output file holds exactly the bytes the command prints to stdout."""
        argv = ["experiment", "ratio", "--k", "2", "--theta", "1/4",
                "--x-grid", "1000,10000", "--cache-dir", cache_dir]
        path = tmp_path / "a.csv"
        code, _, _ = run(capsys, *argv, "--output", str(path))
        assert code == 0
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert path.read_bytes() == out.encode()

    def test_density_json_stdout(self, capsys, cache_dir):
        code, out, _ = run(
            capsys, "experiment", "density", "--theta", "1/2", "--x-grid", "100",
            "--format", "json", "--cache-dir", cache_dir,
        )
        assert code == 0
        assert '"experiment":"density"' in out

    def test_rearrange_and_apsum(self, capsys, cache_dir):
        code, out, _ = run(
            capsys, "experiment", "rearrange", "--x", "1000", "--k", "2",
            "--theta", "1/4", "--cache-dir", cache_dir,
        )
        assert code == 0 and "double_sum" in out
        code, out, _ = run(
            capsys, "experiment", "apsum", "--x", "1000", "--p-list", "3,5",
            "--cache-dir", cache_dir,
        )
        assert code == 0 and "exact_p3" in out

    def test_rearrange_budget_checked_before_the_sieve(self, capsys, cache_dir):
        """x above the rearrange budget exits 2 without sizing or saving a sieve."""
        code, out, err = run(
            capsys, "experiment", "rearrange", "--x", "200001", "--k", "2",
            "--theta", "1/4", "--cache-dir", cache_dir,
        )
        assert code == 2 and out == "" and "capped" in err
        assert not (Path(cache_dir) / "sieve.spl").exists()

    def test_sieve_build_persists_and_grows(self, capsys, cache_dir, tmp_path):
        code, out, _ = run(capsys, "sieve", "build", "--limit", "500", "--cache-dir", cache_dir)
        assert code == 0 and "limit=500" in out
        # a query beyond the cached range triggers an atomic rebuild
        code, out, _ = run(capsys, "count", "t", "--x", "2000", "--theta", "1/2", "--cache-dir", cache_dir)
        assert code == 0
        code, out, _ = run(capsys, "sieve", "build", "--limit", "100", "--cache-dir", cache_dir)
        assert "limit=2000" in out  # reused the larger cache
