import argparse
import importlib.util
import io
import json
import math
import subprocess
import sys
from itertools import takewhile
from pathlib import Path

import pytest

import spl.dickman as dickman
from spl import experiments
from spl.cli import build_parser, main
from spl.core_primes import ensure_sieve, load_sieve
from spl.shifted_counts import Theta

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
# frozen stdout bytes of the Dickman-reading commands; any change to a real they print shows here
DICKMAN_GOLDEN = json.loads((Path(__file__).parent / "golden_dickman.json").read_text())


def _benchmark_commands() -> list:
    """Every argv the cli-session benchmark runs, plus its sieve build."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    inputs = workloads.make_inputs("cli-session", 1, tiny=True)
    cmds = [argv for _, argv in workloads.cli_commands(inputs)]
    return cmds + [["sieve", "build", "--limit", str(inputs["limit"])]]


BENCHMARK_COMMANDS = _benchmark_commands()


def _leaf_options(parser, path=()):
    """Yield (leaf command, its option strings but -h/--help) under parser."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        opts = {o for a in parser._actions for o in a.option_strings} - {"-h", "--help"}
        yield " ".join(path), opts
        return
    for name, child in subs[0].choices.items():
        yield from _leaf_options(child, path + (name,))


LEAF_OPTIONS = dict(_leaf_options(build_parser()))


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

    def test_dickman_past_eight(self, capsys, cache_dir):
        """1/theta past 8, as for every k >= 5 in the paper's window."""
        wide = dickman.build_rho_table(10.0)  # reaches u = 11
        code, out, _ = run(capsys, "dickman", "rho", "--u", "9")
        assert code == 0 and out == f"{dickman.rho(wide, 9.0):.12g}\n"
        theta = Theta(1, 10)
        code, out, _ = run(capsys, "dickman", "density", "--theta", "1/10")
        assert code == 0 and out == f"{dickman.limiting_density(wide, theta):.12g}\n"
        code, out, _ = run(
            capsys, "experiment", "density", "--theta", "1/10", "--x-grid", "1000",
            "--cache-dir", cache_dir,
        )
        assert code == 0
        buf = io.StringIO()
        records = experiments.density_table(ensure_sieve(1000, cache_dir), wide, theta, [1000])
        experiments.write_csv(records, buf)
        assert out == buf.getvalue()


@pytest.mark.parametrize("command", sorted(DICKMAN_GOLDEN))
def test_dickman_golden_bytes(capsys, cache_dir, command):
    code, out, err = run(capsys, *command.split(), "--cache-dir", cache_dir)
    assert code == 0, err
    assert out == DICKMAN_GOLDEN[command]


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
            ["dickman", "rho", "--u", "-1"],  # below rho's domain, not past a table
        ],
    )
    def test_exit_one_with_message(self, capsys, cache_dir, argv):
        code, out, err = run(capsys, *argv, "--cache-dir", cache_dir)
        assert code == 1 and out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["dickman", "rho", "--u", "nan"], 1),
            (["dickman", "rho", "--u", "inf"], 1),
            (["dickman", "rho", "--u", "134"], 2),
            (["dickman", "density", "--theta", "1/134"], 2),
            (["experiment", "density", "--theta", "1/134", "--x-grid", "1000"], 2),
        ],
    )
    def test_bad_rho_query(self, capsys, monkeypatch, argv, code):
        """Non-finite u exits 1; a u past the ceiling exits 2 before any table or sieve."""
        import spl.cli as cli_mod

        def refuse(*args):
            raise AssertionError("built a table or sieve")

        monkeypatch.setattr(dickman.np, "ones", refuse)
        monkeypatch.setattr(cli_mod, "ensure_sieve", refuse)
        got, out, err = run(capsys, *argv)
        assert got == code and out == ""
        assert err.startswith("error: ")

    def test_table_flags_removed(self, capsys):
        """A Dickman table is sized from the query; --u-max and --step are gone."""
        code, out, err = run(capsys, "dickman", "rho", "--u", "2", "--u-max", "8")
        assert code == 1 and out == ""
        assert "unrecognized arguments: --u-max" in err

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

    def test_leaf_options_pinned(self):
        """Every settable option of every leaf; a new one has to be added here."""
        table = {"--cache-dir", "--output", "--format"}
        assert LEAF_OPTIONS == {
            "sieve build": {"--cache-dir", "--limit"},
            "count t": {"--cache-dir", "--x", "--theta"},
            "count tprime": {"--cache-dir", "--x", "--theta"},
            "count tc": {"--cache-dir", "--x", "--theta"},
            "count tk": {"--cache-dir", "--x", "--k", "--theta", "--method", "--unordered"},
            "msim": {"--cache-dir", "--t", "--shifts"},
            "wsum": {"--cache-dir", "--g", "--ell", "--z", "--holder"},
            "dickman rho": {"--cache-dir", "--u"},
            "dickman theta1": {"--cache-dir"},
            "dickman theta2": {"--cache-dir"},
            "dickman density": {"--cache-dir", "--theta"},
            "verify abel": {"--cache-dir", "--x", "--k", "--theta", "--shifts"},
            "verify mobius": {"--cache-dir", "--hmax", "--L"},
            "experiment ratio": table | {"--k", "--theta", "--x-grid"},
            "experiment density": table | {"--theta", "--x-grid"},
            "experiment rearrange": table | {"--x", "--k", "--theta"},
            "experiment apsum": table | {"--x", "--p-list"},
        }

    def test_benchmark_options_present(self):
        # perfbench/run.py appends --cache-dir to every command it runs
        assert all("--cache-dir" in opts for opts in LEAF_OPTIONS.values())
        assert all(
            "--format" in opts for leaf, opts in LEAF_OPTIONS.items() if leaf.startswith("experiment ")
        )
        assert "--method" in LEAF_OPTIONS["count tk"]
        assert "--holder" in LEAF_OPTIONS["wsum"]

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
