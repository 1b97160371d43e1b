import argparse
import importlib.util
import io
import json
import math
import re
import subprocess
import sys
import time
from itertools import takewhile
from pathlib import Path

import pytest

from conftest import child_env
import spl.dickman as dickman
from spl import experiments, weighted_sums
from spl.cli import build_parser, main
from spl.core_primes import ensure_sieve, load_sieve
from spl.shifted_counts import Theta

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
# frozen stdout bytes of the Dickman-reading commands; any change to a real they print shows here
DICKMAN_GOLDEN = json.loads((Path(__file__).parent / "golden_dickman.json").read_text())
# frozen stdout bytes of the other README commands, on small inputs
README_GOLDEN = json.loads((Path(__file__).parent / "golden_readme.json").read_text())


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

    def test_tk_sieve_reaches_half_of_x(self, capsys, cache_dir):
        """At k = 2 no member of a pair with product <= x exceeds x // 2: the sieve stops there."""
        code, out, err = run(
            capsys, "count", "tk", "--x", "10000000", "--k", "2", "--theta", "1/4",
            "--cache-dir", cache_dir,
        )
        assert (code, out, err) == (0, "4386\n", "")
        assert load_sieve(Path(cache_dir) / "sieve.spl").limit == 5000000

    def test_both_mismatch_exits_three(self, capsys, cache_dir, monkeypatch):
        import spl.cli as cli_mod

        monkeypatch.setattr(cli_mod, "tuple_count_fast", lambda *a, **k: 999)
        code, out, _ = run(
            capsys, "count", "tk", "--x", "35", "--k", "2", "--theta", "1/4",
            "--method", "both", "--cache-dir", cache_dir,
        )
        assert code == 3
        assert out.strip() == "oracle=3 fast=999"

    def test_tk_default_is_the_fast_count(self, capsys, cache_dir, monkeypatch):
        """Without --method the fast count is printed alone, and the oracle never runs."""
        import spl.cli as cli_mod

        def refuse(*args, **kwargs):
            raise AssertionError("ran the oracle")

        monkeypatch.setattr(cli_mod, "tuple_count_oracle", refuse)
        code, out, err = run(
            capsys, "count", "tk", "--x", "35", "--k", "2", "--theta", "1/4", "--cache-dir", cache_dir,
        )
        assert (code, out, err) == (0, "3\n", "")

    def test_tk_has_no_oracle_only_method(self, capsys, cache_dir):
        """The oracle answers only beside the fast count, as the check of --method both."""
        code, out, err = run(
            capsys, "count", "tk", "--x", "35", "--k", "2", "--theta", "1/4",
            "--method", "oracle", "--cache-dir", cache_dir,
        )
        assert code == 1 and out == ""
        assert "invalid choice: 'oracle'" in err
        assert not (Path(cache_dir) / "sieve.spl").exists()

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "tk", "--x", "35", "--k", "2", "--method", "both"],
            ["count", "tprime", "--x", "1000"],
            ["verify", "abel", "--x", "10000", "--k", "2", "--shifts", "2"],
            ["experiment", "rearrange", "--x", "1000", "--k", "3"],
        ],
        ids=_leaf,
    )
    def test_theta_denominator_ceiling(self, capsys, cache_dir, argv):
        """A huge denominator would build huge powers; it exits 2 before any sieve."""
        code, out, err = run(capsys, *argv, "--theta", "1/3000000000", "--cache-dir", cache_dir)
        assert code == 2 and out == ""
        assert err == "error: theta denominator 3000000000 exceeds ceiling 10000\n"
        assert not (Path(cache_dir) / "sieve.spl").exists()

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["--g", "2", "--ell", "1000", "--z", "100", "--holder"],
            ["--g", "1", "--ell", "704", "--z", "1000"],
        ],
    )
    def test_wsum_float_overflow_exit_code(self, capsys, argv):
        code, out, err = run(capsys, "wsum", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: (g=") and "overflows float64" in err

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["--g", "5", "--ell", "1", "--z", "4"], "0"),
            (["--g", "5", "--ell", "1", "--z", "4", "--holder"], "w=0 bound=0 G=15 L=32768"),
            (["--g", "3000", "--ell", "1", "--z", "40"], "0"),
        ],
    )
    def test_wsum_without_tuples(self, capsys, argv, line):
        """A g past z - 2 has no tuple: its sum is 0 at once, with no moment row made."""
        start = time.perf_counter()
        code, out, err = run(capsys, "wsum", *argv)
        assert (code, out, err) == (0, line + "\n", "")
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize(
        "argv, reason",
        [
            (["--g", "100000", "--ell", "1", "--z", "40", "--holder"], "moment bins exceed the ceiling"),
            (["--g", "5", "--ell", "100000000", "--z", "4", "--holder"], "L = 2^(G * ell) has more than 4300"),
            (["--g", "200", "--ell", "1", "--z", "4", "--holder"], "L = 2^(G * ell) has more than 4300"),
        ],
    )
    def test_wsum_holder_refused(self, capsys, argv, reason):
        """Moment rows past their ceiling, or an L too long to print, exit 2 with one line."""
        start = time.perf_counter()
        code, out, err = run(capsys, "wsum", *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: (g=") and reason in err and err.count("\n") == 1
        assert time.perf_counter() - start < 1.0

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
        code, out, _ = run(capsys, "dickman", "rho", "--u", "9")
        assert code == 0 and out == f"{dickman.rho(9.0):.12g}\n"
        theta = Theta(1, 10)
        code, out, _ = run(capsys, "dickman", "density", "--theta", "1/10")
        assert code == 0 and out == f"{dickman.limiting_density(theta):.12g}\n"
        code, out, _ = run(
            capsys, "experiment", "density", "--theta", "1/10", "--x-grid", "1000",
            "--cache-dir", cache_dir,
        )
        assert code == 0
        buf = io.StringIO()
        records = experiments.density_table(ensure_sieve(1000, cache_dir), theta, [1000])
        experiments.write_csv(records, buf)
        assert out == buf.getvalue()


@pytest.mark.parametrize("command", sorted(DICKMAN_GOLDEN))
def test_dickman_golden_bytes(capsys, cache_dir, command):
    code, out, err = run(capsys, *command.split(), "--cache-dir", cache_dir)
    assert code == 0, err
    assert out == DICKMAN_GOLDEN[command]


@pytest.mark.parametrize("command", sorted(README_GOLDEN))
def test_readme_golden_bytes(capsys, cache_dir, command):
    code, out, err = run(capsys, *command.split(), "--cache-dir", cache_dir)
    assert code == 0, err
    assert out == README_GOLDEN[command]


@pytest.fixture(scope="module")
def large_cache_dir(tmp_path_factory):
    """A sieve file to 10^6: at least 10x the reach of every README golden command."""
    path = tmp_path_factory.mktemp("large") / "cache"
    ensure_sieve(10**6, path)
    return str(path)


@pytest.mark.parametrize("command", sorted(README_GOLDEN))
def test_readme_golden_bytes_on_a_larger_warm_cache(capsys, monkeypatch, large_cache_dir, command):
    """Same bytes as on a fresh cache, from sieves of exactly the reach each command asks for."""
    import spl.cli as cli_mod

    calls = []

    def spy(limit, directory=None):
        cache = ensure_sieve(limit, directory)
        calls.append((limit, cache.limit))
        return cache

    monkeypatch.setattr(cli_mod, "ensure_sieve", spy)
    code, out, err = run(capsys, *command.split(), "--cache-dir", large_cache_dir)
    assert code == 0, err
    assert out == README_GOLDEN[command]
    assert all(asked == got for asked, got in calls), calls
    assert load_sieve(Path(large_cache_dir) / "sieve.spl").limit == 10**6  # never rebuilt


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

    def test_abel_mismatch_exits_three(self, capsys, cache_dir, monkeypatch):
        import spl.cli as cli_mod

        monkeypatch.setattr(cli_mod, "abel_identity_rhs", lambda *a: 1.0)
        code, out, err = run(
            capsys, "verify", "abel", "--x", "10000", "--k", "2", "--theta", "1/4",
            "--shifts", "2", "--cache-dir", cache_dir,
        )
        assert code == 3 and "rhs=1 " in out
        assert err.startswith("verification failed: partial-summation identity failed")

    def test_mobius_mismatch_exits_three(self, capsys, monkeypatch):
        monkeypatch.setattr(weighted_sums, "mobius_expansion_check", lambda h, L: (h, h + 1))
        code, out, err = run(capsys, "verify", "mobius", "--hmax", "5", "--L", "2")
        assert code == 3 and out == ""
        assert err == "verification failed: divisor expansion failed at h=2, L=2: 2 != 3\n"


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
            ["count", "tk", "--x", "50000", "--k", "1", "--theta", "1/4"],
            ["experiment", "ratio", "--k", "1", "--theta", "1/4", "--x-grid", "50000"],
            ["experiment", "ratio", "--k", "2", "--theta", "1/4", "--x-grid", "50000,0"],
            ["experiment", "apsum", "--x", "50000", "--p-list", "1"],
            ["experiment", "density", "--theta", "1/2", "--x-grid", "0,-5"],
            ["experiment", "density", "--theta", "1/2", "--x-grid", "1"],
            ["sieve", "build", "--limit", "1"],
            ["experiment", "apsum", "--x", "1000", "--p-list", "3,3"],
            ["experiment", "apsum", "--x", "100", "--p-list", "99999999999999999999"],
        ],
    )
    def test_exit_one_with_message(self, capsys, cache_dir, argv):
        """Refused before any sieve is sized or saved."""
        code, out, err = run(capsys, *argv, "--cache-dir", cache_dir)
        assert code == 1 and out == ""
        assert err.startswith("error: ")
        assert not (Path(cache_dir) / "sieve.spl").exists()

    @pytest.mark.parametrize(
        "argv, out",
        [
            (["count", "tk", "--x", "100", "--theta", "1/4", "--method", "both"], "oracle=0 fast=0\n"),
            (
                ["experiment", "ratio", "--theta", "1/4", "--x-grid", "10000"],
                "experiment,x,k,theta,tuple_count,ratio,ratio_running_max,ratio_running_min,band\n"
                f"ratio,10000,{10**20},1/4,0,0,0,0,0\n",
            ),
            (["verify", "abel", "--x", "100", "--theta", "1/4", "--shifts", "2"], ""),
            (["experiment", "rearrange", "--x", "100", "--theta", "1/4"], ""),
        ],
        ids=["count tk", "experiment ratio", "verify abel", "experiment rearrange"],
    )
    def test_huge_k_answered_or_refused_at_once(self, capsys, cache_dir, argv, out):
        """k = 10^20: no 2^k or k-th power is built; past 2^63 the Abel range is refused."""
        code, got, err = run(capsys, *argv, "--k", str(10**20), "--cache-dir", cache_dir)
        assert got == out
        if out:
            assert code == 0 and err == ""
        else:
            assert code == 2 and err == f"error: the range p <= x^(1/k) needs k < 2^63, got {10**20}\n"
            assert not (Path(cache_dir) / "sieve.spl").exists()

    @pytest.mark.parametrize("k", ["1", "0"])
    def test_rearrange_refuses_k_below_two(self, capsys, cache_dir, k):
        code, out, err = run(
            capsys, "experiment", "rearrange", "--x", "1000", "--k", k, "--theta", "1/4",
            "--cache-dir", cache_dir,
        )
        assert code == 1 and out == ""
        assert err == f"error: rearrangement needs k >= 2, got {k}\n"
        assert not (Path(cache_dir) / "sieve.spl").exists()

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_abel_refuses_k_below_one(self, capsys, cache_dir, k):
        code, out, err = run(
            capsys, "verify", "abel", "--x", "1000", "--k", k, "--theta", "1/4",
            "--shifts", "2", "--cache-dir", cache_dir,
        )
        assert code == 1 and out == ""
        assert err == f"error: the range p <= x^(1/k) needs k >= 1, got {k}\n"
        assert not (Path(cache_dir) / "sieve.spl").exists()

    def test_ratio_grid_must_be_integers(self, capsys, cache_dir):
        code, out, err = run(
            capsys, "experiment", "ratio", "--k", "2", "--theta", "1/4", "--x-grid", "1e6",
            "--cache-dir", cache_dir,
        )
        assert code == 1 and out == ""
        assert err == "error: expected comma-separated integers, got '1e6'\n"
        assert not (Path(cache_dir) / "sieve.spl").exists()

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["dickman", "rho", "--u", "nan"], 1),
            (["dickman", "rho", "--u", "inf"], 1),
            (["dickman", "rho", "--u", "134"], 2),
            (["dickman", "density", "--theta", "1/134"], 2),
            (["experiment", "density", "--theta", "1/134", "--x-grid", "1000"], 2),
            (["wsum", "--g", "1", "--ell", "1", "--z", "1000000000"], 2),
        ],
    )
    def test_bad_rho_query(self, capsys, monkeypatch, argv, code):
        """Non-finite u exits 1; a u or z past its ceiling exits 2 before any table or sieve."""
        import spl.cli as cli_mod

        def refuse(*args, **kwargs):
            raise AssertionError("built a table or sieve")

        monkeypatch.setattr(dickman.np, "ones", refuse)
        for name in ("arange", "zeros"):
            monkeypatch.setattr(weighted_sums.np, name, refuse)
        monkeypatch.setattr(cli_mod, "ensure_sieve", refuse)
        got, out, err = run(capsys, *argv)
        assert got == code and out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("text", ["1/" + "9" * 5000, "2" + "0" * 5000 + "/4" + "0" * 5000])
    @pytest.mark.parametrize("argv", [["count", "t", "--x", "10"], ["dickman", "density"]], ids=_leaf)
    def test_theta_past_the_digit_limit(self, capsys, cache_dir, argv, text):
        """Past Python's int() digit limit, even when theta reduces to 1/2; no sieve is built."""
        code, out, err = run(capsys, *argv, "--theta", text, "--cache-dir", cache_dir)
        assert code == 2 and out == ""
        assert err == f"error: theta terms are limited to {sys.get_int_max_str_digits()} digits\n"
        assert not (Path(cache_dir) / "sieve.spl").exists()

    def test_table_flags_removed(self, capsys):
        """A Dickman table is sized from the query; --u-max and --step are gone."""
        code, out, err = run(capsys, "dickman", "rho", "--u", "2", "--u-max", "8")
        assert code == 1 and out == ""
        assert "unrecognized arguments: --u-max" in err


class TestOutOfMemory:
    @pytest.mark.parametrize(
        "exc, message",
        [
            (MemoryError("Unable to allocate 124. MiB for an array"), "Unable to allocate 124. MiB for an array"),
            (MemoryError(), "out of memory"),
        ],
        ids=["numpy", "bare"],
    )
    def test_exit_two_with_one_error_line(self, capsys, monkeypatch, cache_dir, exc, message):
        """An allocation that does not fit, here the primes view, exits 2 with one error line."""
        from spl.core_primes import SieveCache

        def fail(self):
            raise exc

        monkeypatch.setattr(SieveCache, "primes", property(fail))
        code, out, err = run(capsys, "count", "t", "--x", "1000", "--theta", "1/2", "--cache-dir", cache_dir)
        assert (code, out, err) == (2, "", f"error: {message}\n")


# every integer a leaf reads, from an option's own int or a comma-separated list of them
_INTEGER_VALUE = re.compile(r"-?\d+(,-?\d+)*")
# one case per leaf and option: (argv, index of the value); --hmax is excluded, as
# verify mobius checks every h up to it, so its work grows with its value
_BOUNDARY_CASES = {
    f"{_leaf(argv)} {argv[i - 1]}": (argv, i)
    for argv in BENCHMARK_COMMANDS
    for i in range(1, len(argv))
    if argv[i - 1].startswith("--") and argv[i - 1] != "--hmax" and _INTEGER_VALUE.fullmatch(argv[i])
}


@pytest.mark.parametrize("argv, i", _BOUNDARY_CASES.values(), ids=list(_BOUNDARY_CASES))
def test_integer_argument_at_the_digit_limit(capsys, cache_dir, argv, i):
    """A 4300-digit value, the most int() converts, in one integer argument of a leaf:
    the command answers or refuses within 2 s, and no exception escapes main."""
    argv = [*argv[:i], "9" * 4300, *argv[i + 1 :]]
    start = time.perf_counter()
    code, _, _ = run(capsys, *argv, "--cache-dir", cache_dir)
    assert code in (0, 1, 2)
    assert time.perf_counter() - start < 2.0


class TestOsErrors:
    @pytest.mark.parametrize(
        "argv, where",
        [
            (["experiment", "apsum", "--x", "1000", "--p-list", "3", "--output"], "missing/out.csv"),
            (["experiment", "apsum", "--x", "1000", "--p-list", "3", "--output"], "."),
            (["count", "t", "--x", "100", "--theta", "1/2", "--cache-dir"], "file"),
            (["sieve", "build", "--limit", "100", "--cache-dir"], "file/sub"),
        ],
        ids=["output-missing-dir", "output-is-dir", "cache-dir-is-file", "cache-dir-under-file"],
    )
    def test_exit_one_with_message(self, capsys, tmp_path, argv, where):
        """An unusable --output or --cache-dir is an error line and exit 1, not a traceback."""
        (tmp_path / "file").write_text("")
        extra = [] if "--cache-dir" in argv else ["--cache-dir", str(tmp_path / "cache")]
        code, out, err = run(capsys, *argv, str(tmp_path / where), *extra)
        assert code == 1 and out == ""
        assert err.startswith("error: [Errno ")
        assert not (tmp_path / "cache" / "sieve.spl").exists()  # --output fails before the sieve

    @pytest.mark.parametrize(
        "argv",
        [
            ["experiment", "apsum", "--x", "1000", "--p-list", "3,3"],  # ArgumentError: exit 1
            ["experiment", "density", "--theta", "1/2", "--x-grid", str(2**41)],  # RangeError: exit 2
        ],
        ids=["argument-error", "range-error"],
    )
    def test_failed_command_leaves_output_untouched(self, capsys, tmp_path, cache_dir, argv):
        path = tmp_path / "out.csv"
        path.write_text("kept\n")
        code, out, err = run(capsys, *argv, "--output", str(path), "--cache-dir", cache_dir)
        assert code in (1, 2) and out == "" and err.startswith("error: ")
        assert path.read_text() == "kept\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]  # no temp file left

    def test_symlinked_output_writes_the_target(self, capsys, tmp_path, cache_dir):
        """A symlink at --output is written through and survives."""
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_text("old\n")
        link.symlink_to(target)
        argv = ["experiment", "apsum", "--x", "1000", "--p-list", "3", "--cache-dir", cache_dir]
        code, out, _ = run(capsys, *argv, "--output", str(link))
        assert code == 0 and out == ""
        assert link.is_symlink() and link.resolve() == target
        assert run(capsys, *argv)[1] == target.read_text()


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
            env=child_env(),
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
            "count tk": {"--cache-dir", "--x", "--k", "--theta", "--method"},
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

    def test_rearrange_with_two_in_range(self, capsys, cache_dir):
        """(x/2)^theta < 2 puts p = 2 in the range; its q = 3 = 2*1 + 1 is in the majorant."""
        code, out, err = run(
            capsys, "experiment", "rearrange", "--x", "1000", "--k", "3",
            "--theta", "1/10", "--cache-dir", cache_dir,
        )
        assert (code, err) == (0, "")
        majorant, ok = out.splitlines()[1].split(",")[5:8:2]
        assert (majorant, ok) == ("2.10273566843", "true")

    def test_rearrange_majorant_exceeded_exits_three(self, capsys, cache_dir, monkeypatch):
        monkeypatch.setattr(experiments, "progression_double_sum", lambda *a: 1e9)
        code, out, err = run(
            capsys, "experiment", "rearrange", "--x", "1000", "--k", "2",
            "--theta", "1/4", "--cache-dir", cache_dir,
        )
        assert code == 3 and out == ""
        assert err.startswith("verification failed: double sum exceeded its substitution majorant")

    def test_rearrange_past_the_ceiling_refused_before_the_sieve(self, capsys, cache_dir):
        """The sieve reach is at least x: an x past the ceiling exits 2 at once, before
        the shift bound raises x to the power den - num, and no sieve is sized or saved."""
        for x, shown in [(2**40 + 1, str(2**40 + 1)), (10**4000, "~10^4000.0")]:
            start = time.perf_counter()
            code, out, err = run(
                capsys, "experiment", "rearrange", "--x", str(x), "--k", "2",
                "--theta", "1/9999", "--cache-dir", cache_dir,
            )
            assert time.perf_counter() - start < 1.0
            assert code == 2 and out == ""
            assert err == f"error: sieve limit {shown} exceeds ceiling {2**40}\n"
            assert not (Path(cache_dir) / "sieve.spl").exists()

    def test_rearrange_at_a_million(self, capsys, cache_dir):
        """x = 1e6 is answered: the report's x is bounded by its sieve reach alone."""
        code, out, err = run(
            capsys, "experiment", "rearrange", "--x", "1000000", "--k", "2",
            "--theta", "1/4", "--format", "json", "--cache-dir", cache_dir,
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["derived"]["s_le_majorant"] is True

    def test_sieve_build_persists_and_grows(self, capsys, cache_dir, tmp_path):
        code, out, _ = run(capsys, "sieve", "build", "--limit", "500", "--cache-dir", cache_dir)
        assert code == 0 and "limit=500" in out
        # a query beyond the cached range triggers an atomic rebuild
        code, out, _ = run(capsys, "count", "t", "--x", "2000", "--theta", "1/2", "--cache-dir", cache_dir)
        assert code == 0
        code, out, _ = run(capsys, "sieve", "build", "--limit", "100", "--cache-dir", cache_dir)
        assert "limit=100" in out  # cut from the larger cache, which stays
        assert load_sieve(Path(cache_dir) / "sieve.spl").limit == 2000
        code, out, _ = run(capsys, "sieve", "build", "--limit", "1", "--cache-dir", cache_dir)
        assert code == 1 and out == ""  # refused before the cache is read
