"""Command-line entry point.

Exit codes, all returned by `main`: 0 success, 1 ArgumentError or OSError, 2 RangeError (a ceiling,
budget or table range) or MemoryError (an allocation that does not fit),
3 VerificationError (an identity or inequality did not hold).
"""

from __future__ import annotations

import argparse
import errno
import os
import sys

from . import dickman, experiments, weighted_sums
from .core_primes import ensure_sieve
from .errors import ArgumentError, RangeError, VerificationError
from .linear_forms import (
    abel_identity_rhs,
    count_simultaneous,
    form_sieve_limit,
    inverse_power_prime_sum,
    range_bounds_exact,
    system_from_shifts,
)
from .shifted_counts import (
    Theta,
    large_factor_count,
    large_factor_count_fixed,
    smooth_shift_count,
    tuple_count_fast,
    tuple_count_oracle,
    tuple_sieve_limit,
)

ABEL_REL_TOL = 1e-10


def _cache_for(args, needed: int):
    # an empty --cache-dir means the default directory, as an absent one does
    return ensure_sieve(max(needed, 2), args.cache_dir or None)


def _parse_int_list(text: str) -> list:
    try:
        values = [int(tok) for tok in text.split(",") if tok]
    except ValueError as exc:
        raise ArgumentError(f"expected comma-separated integers, got {text!r}") from exc
    if not values:
        raise ArgumentError(f"expected at least one integer, got {text!r}")
    return values


def _check_output(output) -> None:
    """Raise the OSError that opening `output` for writing would, without opening it.

    Called before any sieve is sized, so an unusable path fails first; the
    table is written with a plain open() once the command has succeeded, so a
    failed command leaves a file already at `output` untouched.  A symlink is
    followed, and a device or FIFO is only checked, never opened here.
    """
    path = os.path.realpath(output)
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), output)
    target = path if os.path.exists(path) else os.path.dirname(path)
    if not os.path.isdir(target) and target != path:
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), output)
    if not os.access(target, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), output)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--cache-dir", default=None, help="sieve cache directory (default $SPL_CACHE_DIR or ./cache)"
    )
    table = argparse.ArgumentParser(add_help=False, parents=[common])
    table.add_argument("--output", default=None, help="output path for the table ('-' = stdout)")
    table.add_argument("--format", choices=("csv", "json"), default="csv")

    p = argparse.ArgumentParser(
        prog="spl",
        description="Shifted-primes laboratory: exact counters, sieve majorants, "
        "Dickman tables, and identity checks.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("sieve", help="sieve cache maintenance")
    ps_sub = ps.add_subparsers(dest="action", required=True)
    ps_build = ps_sub.add_parser("build", parents=[common], help="build and persist the primality bitset")
    ps_build.add_argument("--limit", type=int, required=True)

    pc = sub.add_parser("count", help="shifted-prime counters")
    pc_sub = pc.add_subparsers(dest="counter", required=True)
    for name in ("t", "tprime", "tc"):
        q = pc_sub.add_parser(name, parents=[common])
        q.add_argument("--x", type=int, required=True)
        q.add_argument("--theta", required=True)
    q = pc_sub.add_parser("tk", parents=[common])
    q.add_argument("--x", type=int, required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--theta", required=True)
    q.add_argument("--method", choices=("fast", "both"), default="fast")

    pm = sub.add_parser("msim", parents=[common], help="count primes making every shift form prime")
    pm.add_argument("--t", type=int, required=True)
    pm.add_argument("--shifts", required=True, help="comma-separated shifts h1,h2,...")

    pw = sub.add_parser("wsum", parents=[common], help="weighted tuple sum with local factors")
    pw.add_argument("--g", type=int, required=True)
    pw.add_argument("--ell", type=int, required=True)
    pw.add_argument("--z", type=int, required=True)
    pw.add_argument("--holder", action="store_true", help="also verify the moment bound")

    pd = sub.add_parser("dickman", help="Dickman function and thresholds")
    pd_sub = pd.add_subparsers(dest="what", required=True)
    q = pd_sub.add_parser("rho", parents=[common])
    q.add_argument("--u", type=float, required=True)
    for name in ("theta1", "theta2"):
        pd_sub.add_parser(name, parents=[common])
    q = pd_sub.add_parser("density", parents=[common])
    q.add_argument("--theta", required=True)

    pv = sub.add_parser("verify", help="identity checks (exit 3 on failure)")
    pv_sub = pv.add_subparsers(dest="check", required=True)
    q = pv_sub.add_parser("abel", parents=[common])
    q.add_argument("--x", type=int, required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--theta", required=True)
    q.add_argument("--shifts", required=True)
    q = pv_sub.add_parser("mobius", parents=[common])
    q.add_argument("--hmax", type=int, required=True)
    q.add_argument("--L", type=int, required=True)

    pe = sub.add_parser("experiment", help="emit experiment tables")
    pe_sub = pe.add_subparsers(dest="which", required=True)
    q = pe_sub.add_parser("ratio", parents=[table])
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--theta", required=True)
    q.add_argument("--x-grid", required=True)
    q = pe_sub.add_parser("density", parents=[table])
    q.add_argument("--theta", required=True)
    q.add_argument("--x-grid", required=True)
    q = pe_sub.add_parser("rearrange", parents=[table])
    q.add_argument("--x", type=int, required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--theta", required=True)
    q = pe_sub.add_parser("apsum", parents=[table])
    q.add_argument("--x", type=int, required=True)
    q.add_argument("--p-list", required=True)
    return p


def _run_count(args) -> None:
    theta = Theta.parse(args.theta)
    cache = _cache_for(args, tuple_sieve_limit(args.x, args.k) if args.counter == "tk" else args.x)
    if args.counter == "t":
        print(large_factor_count(cache, args.x, theta))
    elif args.counter == "tprime":
        print(large_factor_count_fixed(cache, args.x, theta))
    elif args.counter == "tc":
        print(smooth_shift_count(cache, args.x, theta))
    else:
        fast = tuple_count_fast(cache, args.x, args.k, theta)
        if args.method == "fast":
            print(fast)
        else:
            oracle = tuple_count_oracle(cache, args.x, args.k, theta)
            print(f"oracle={oracle} fast={fast}")
            if oracle != fast:
                raise VerificationError(f"counter mismatch: oracle={oracle} fast={fast}")


def _run_dickman(args) -> None:
    if args.what == "rho":
        value = dickman.rho(args.u)
    elif args.what == "density":
        value = dickman.limiting_density(Theta.parse(args.theta))
    else:
        value = dickman.solve_theta1() if args.what == "theta1" else dickman.solve_theta2()
    print(f"{value:.12g}")


def _run_verify(args) -> None:
    if args.check == "abel":
        theta = Theta.parse(args.theta)
        system = system_from_shifts(_parse_int_list(args.shifts))
        v = range_bounds_exact(args.x, args.k, theta)[1]  # no prime above v enters either side
        cache = _cache_for(args, form_sieve_limit(v, system))
        lhs = inverse_power_prime_sum(cache, args.x, args.k, theta, system)
        rhs = abel_identity_rhs(cache, args.x, args.k, theta, system)
        rel = abs(lhs - rhs) / max(lhs, 1e-30)
        print(f"lhs={lhs:.12g} rhs={rhs:.12g} rel={rel:.3g}")
        if rel > ABEL_REL_TOL:
            raise VerificationError(f"partial-summation identity failed: rel={rel:.3g}")
    else:
        for h in range(2, args.hmax + 1):
            lhs, rhs = weighted_sums.mobius_expansion_check(h, args.L)
            if lhs != rhs:
                raise VerificationError(f"divisor expansion failed at h={h}, L={args.L}: {lhs} != {rhs}")
        print(f"ok: h <= {args.hmax}, L = {args.L}")


def _run_experiment(args) -> None:
    theta = Theta.parse(args.theta) if hasattr(args, "theta") else None
    to_file = bool(args.output) and args.output != "-"
    if to_file:
        _check_output(args.output)
    records = _experiment_records(args, theta)
    writer = experiments.write_csv if args.format == "csv" else experiments.write_jsonl
    if to_file:
        with open(args.output, "w") as fh:
            writer(records, fh)
    else:
        writer(records, sys.stdout)


def _experiment_records(args, theta) -> list:
    if args.which == "ratio":
        grid = _parse_int_list(args.x_grid)
        cache = _cache_for(args, experiments.ratio_sieve_limit(args.k, grid))
        return experiments.ratio_table(cache, args.k, theta, grid)
    elif args.which == "density":
        grid = _parse_int_list(args.x_grid)
        cache = _cache_for(args, experiments.density_sieve_limit(theta, grid))
        return experiments.density_table(cache, theta, grid)
    elif args.which == "rearrange":
        cache = _cache_for(args, experiments.rearrange_sieve_limit(args.x, args.k, theta))
        return [experiments.rearrangement_report(cache, args.x, args.k, theta)]
    else:
        p_list = _parse_int_list(args.p_list)
        cache = _cache_for(args, experiments.apsum_sieve_limit(args.x, p_list))
        return [experiments.ap_recip_heuristic_table(cache, args.x, p_list)]


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return 0 if exc.code == 0 else 1
    try:
        if args.command == "sieve":
            cache = ensure_sieve(args.limit, args.cache_dir or None)
            print(f"sieve ready: limit={cache.limit}")
        elif args.command == "count":
            _run_count(args)
        elif args.command == "msim":
            system = system_from_shifts(_parse_int_list(args.shifts))
            cache = _cache_for(args, form_sieve_limit(args.t, system))
            print(count_simultaneous(cache, args.t, system))
        elif args.command == "wsum":
            if args.holder:
                diag = weighted_sums.holder_verify(args.g, args.ell, args.z)
                print(
                    f"w={diag.w_value:.12g} bound={diag.holder_bound:.12g} "
                    f"G={diag.G} L={diag.L}"
                )
            else:
                print(f"{weighted_sums.weighted_tuple_sum(args.g, args.ell, args.z):.12g}")
        elif args.command == "dickman":
            _run_dickman(args)
        elif args.command == "verify":
            _run_verify(args)
        else:
            _run_experiment(args)
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 3
    except (ArgumentError, OSError) as exc:  # OSError: an unusable --output or --cache-dir
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RangeError, MemoryError) as exc:
        # a bare MemoryError, as Python raises it, carries no message
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
