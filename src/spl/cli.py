"""Command-line entry point.

Exit codes: 0 success, 1 argument error, 2 range/capacity error, 3 failed
verification (an identity or inequality assertion did not hold).
"""

from __future__ import annotations

import argparse
import sys

from . import dickman, experiments, weighted_sums
from .core_primes import ensure_sieve, floor_root
from .errors import ArgumentError, SplError, VerificationError
from .linear_forms import (
    abel_identity_rhs,
    count_simultaneous,
    form_sieve_limit,
    inverse_power_prime_sum,
    system_from_shifts,
)
from .shifted_counts import (
    Theta,
    large_factor_count,
    large_factor_count_fixed,
    smooth_shift_count,
    tuple_count_fast,
    tuple_count_oracle,
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


def _emit(args, records) -> None:
    writer = experiments.write_csv if args.format == "csv" else experiments.write_jsonl
    if args.output and args.output != "-":
        with open(args.output, "w") as fh:
            writer(records, fh)
    else:
        writer(records, sys.stdout)


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
    q.add_argument("--method", choices=("oracle", "fast", "both"), default="fast")
    q.add_argument("--unordered", action="store_true", help="count multisets instead of ordered tuples")

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


def _run_count(args) -> int:
    theta = Theta.parse(args.theta)
    cache = _cache_for(args, args.x)
    if args.counter == "t":
        print(large_factor_count(cache, args.x, theta))
    elif args.counter == "tprime":
        print(large_factor_count_fixed(cache, args.x, theta))
    elif args.counter == "tc":
        print(smooth_shift_count(cache, args.x, theta))
    else:
        ordered = not args.unordered
        oracle = fast = None
        if args.method != "fast":
            oracle = tuple_count_oracle(cache, args.x, args.k, theta, ordered=ordered)
        if args.method != "oracle":
            fast = tuple_count_fast(cache, args.x, args.k, theta, ordered=ordered)
        if args.method != "both":
            print(fast if oracle is None else oracle)
        else:
            print(f"oracle={oracle} fast={fast}")
            if oracle != fast:
                raise VerificationError(f"counter mismatch: oracle={oracle} fast={fast}")
    return 0


def _run_dickman(args) -> int:
    if args.what == "rho":
        value = dickman.rho(dickman.build_rho_table(args.u), args.u)
    elif args.what == "density":
        theta = Theta.parse(args.theta)
        value = dickman.limiting_density(dickman.build_rho_table(1.0 / theta.as_real), theta)
    else:
        solve = dickman.solve_theta1 if args.what == "theta1" else dickman.solve_theta2
        value = solve(dickman.build_rho_table(dickman.SOLVER_U))
    print(f"{value:.12g}")
    return 0


def _run_verify(args) -> int:
    if args.check == "abel":
        theta = Theta.parse(args.theta)
        system = system_from_shifts(_parse_int_list(args.shifts))
        # no prime above x^(1/k) enters either side
        cache = _cache_for(args, form_sieve_limit(floor_root(args.x, args.k), system))
        lhs = inverse_power_prime_sum(cache, args.x, args.k, theta, system)
        rhs = abel_identity_rhs(cache, args.x, args.k, theta, system)
        rel = abs(lhs - rhs) / max(lhs, 1e-30)
        print(f"lhs={lhs:.12g} rhs={rhs:.12g} rel={rel:.3g}")
        if rel > ABEL_REL_TOL:
            raise VerificationError(f"partial-summation identity failed: rel={rel:.3g}")
        return 0
    for h in range(2, args.hmax + 1):
        lhs, rhs = weighted_sums.mobius_expansion_check(h, args.L)
        if lhs != rhs:
            raise VerificationError(f"divisor expansion failed at h={h}, L={args.L}: {lhs} != {rhs}")
    print(f"ok: h <= {args.hmax}, L = {args.L}")
    return 0


def _run_experiment(args) -> int:
    theta = Theta.parse(args.theta) if hasattr(args, "theta") else None
    if args.which == "ratio":
        grid = _parse_int_list(args.x_grid)
        cache = _cache_for(args, max(grid))
        records = experiments.ratio_table(cache, args.k, theta, grid)
    elif args.which == "density":
        grid = _parse_int_list(args.x_grid)
        table = dickman.build_rho_table(1.0 / theta.as_real)
        cache = _cache_for(args, max(grid))
        records = experiments.density_table(cache, table, theta, grid)
    elif args.which == "rearrange":
        cache = _cache_for(args, experiments.rearrange_sieve_limit(args.x, args.k, theta))
        records = [experiments.rearrangement_report(cache, args.x, args.k, theta)]
    else:
        cache = _cache_for(args, args.x)
        records = [
            experiments.ap_recip_heuristic_table(cache, args.x, _parse_int_list(args.p_list))
        ]
    _emit(args, records)
    return 0


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
            return 0
        if args.command == "count":
            return _run_count(args)
        if args.command == "msim":
            system = system_from_shifts(_parse_int_list(args.shifts))
            cache = _cache_for(args, form_sieve_limit(args.t, system))
            print(count_simultaneous(cache, args.t, system))
            return 0
        if args.command == "wsum":
            if args.holder:
                diag = weighted_sums.holder_verify(args.g, args.ell, args.z)
                print(
                    f"w={diag.w_value:.12g} bound={diag.holder_bound:.12g} "
                    f"G={diag.G} L={diag.L}"
                )
            else:
                print(f"{weighted_sums.weighted_tuple_sum(args.g, args.ell, args.z):.12g}")
            return 0
        if args.command == "dickman":
            return _run_dickman(args)
        if args.command == "verify":
            return _run_verify(args)
        return _run_experiment(args)
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 3
    except ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SplError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
