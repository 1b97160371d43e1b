"""Command-line entry point.

Exit codes: 0 success, 1 argument error, 2 range/capacity error, 3 failed
verification (an identity or inequality assertion did not hold).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

from . import dickman, experiments, weighted_sums
from .core_primes import ensure_sieve, floor_root, sieve_cache_dir
from .errors import ArgumentError, SplError, VerificationError
from .linear_forms import (
    abel_identity_rhs,
    count_simultaneous,
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


@dataclass(frozen=True)
class RunConfig:
    sieve_limit: int | None
    cache_dir: Path
    output: str | None
    format: str

    def __post_init__(self):
        if self.sieve_limit is not None and self.sieve_limit < 2:
            raise ArgumentError(f"sieve limit must be >= 2, got {self.sieve_limit}")
        if self.format not in ("csv", "json"):
            raise ArgumentError(f"format must be csv or json, got {self.format}")


def _config(args) -> RunConfig:
    return RunConfig(
        sieve_limit=args.sieve_limit,
        cache_dir=Path(args.cache_dir) if args.cache_dir else sieve_cache_dir(),
        output=args.output,
        format=args.format,
    )


def _cache_for(cfg: RunConfig, needed: int):
    limit = max(needed, cfg.sieve_limit or 0, 2)
    return ensure_sieve(limit, cfg.cache_dir)


def _parse_int_list(text: str) -> list:
    try:
        values = [int(tok) for tok in text.split(",") if tok]
    except ValueError as exc:
        raise ArgumentError(f"expected comma-separated integers, got {text!r}") from exc
    if not values:
        raise ArgumentError(f"expected at least one integer, got {text!r}")
    return values


def _emit(cfg: RunConfig, records) -> None:
    writer = experiments.write_csv if cfg.format == "csv" else experiments.write_jsonl
    if cfg.output and cfg.output != "-":
        with open(cfg.output, "w") as fh:
            writer(records, fh)
    else:
        writer(records, sys.stdout)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--sieve-limit", type=int, default=None, help="minimum sieve size to build")
    common.add_argument(
        "--cache-dir", default=None, help="sieve cache directory (default $SPL_CACHE_DIR or ./cache)"
    )
    common.add_argument("--output", default=None, help="output path for experiment tables ('-' = stdout)")
    common.add_argument("--format", choices=("csv", "json"), default="csv")

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
    q.add_argument("--u-max", type=float, default=8.0)
    q.add_argument("--step", type=float, default=2.0**-10)
    for name in ("theta1", "theta2"):
        q = pd_sub.add_parser(name, parents=[common])
        q.add_argument("--u-max", type=float, default=8.0)
        q.add_argument("--step", type=float, default=2.0**-10)
    q = pd_sub.add_parser("density", parents=[common])
    q.add_argument("--theta", required=True)
    q.add_argument("--u-max", type=float, default=8.0)
    q.add_argument("--step", type=float, default=2.0**-10)

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
    q = pe_sub.add_parser("ratio", parents=[common])
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--theta", required=True)
    q.add_argument("--x-grid", required=True)
    q = pe_sub.add_parser("density", parents=[common])
    q.add_argument("--theta", required=True)
    q.add_argument("--x-grid", required=True)
    q.add_argument("--u-max", type=float, default=8.0)
    q = pe_sub.add_parser("rearrange", parents=[common])
    q.add_argument("--x", type=int, required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--theta", required=True)
    q = pe_sub.add_parser("apsum", parents=[common])
    q.add_argument("--x", type=int, required=True)
    q.add_argument("--p-list", required=True)
    return p


def _run_count(cfg, args) -> int:
    theta = Theta.parse(args.theta)
    cache = _cache_for(cfg, args.x)
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
    table = dickman.build_rho_table(args.u_max, args.step)
    if args.what == "rho":
        print(f"{dickman.rho(table, args.u):.12g}")
    elif args.what == "theta1":
        print(f"{dickman.solve_theta1(table):.12g}")
    elif args.what == "theta2":
        print(f"{dickman.solve_theta2(table):.12g}")
    else:
        theta = Theta.parse(args.theta)
        print(f"{dickman.limiting_density(table, theta):.12g}")
    return 0


def _run_verify(cfg, args) -> int:
    if args.check == "abel":
        theta = Theta.parse(args.theta)
        shifts = _parse_int_list(args.shifts)
        system = system_from_shifts(shifts)
        v = floor_root(args.x, args.k)  # no prime p above v enters either side
        needed = max(args.x, max(h * v + 1 for h in shifts))
        cache = _cache_for(cfg, needed)
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


def _run_experiment(cfg, args) -> int:
    theta = Theta.parse(args.theta) if hasattr(args, "theta") else None
    if args.which == "ratio":
        grid = _parse_int_list(args.x_grid)
        cache = _cache_for(cfg, max(grid))
        records = []
        for rec in experiments.ratio_table(cache, args.k, theta, grid):
            print(f"ratio cell x={rec.inputs['x']} done", file=sys.stderr)
            records.append(rec)
    elif args.which == "density":
        grid = _parse_int_list(args.x_grid)
        cache = _cache_for(cfg, max(grid))
        table = dickman.build_rho_table(args.u_max)
        records = experiments.density_table(cache, table, theta, grid)
        for rec in records:
            print(f"density cell x={rec.inputs['x']} done", file=sys.stderr)
    elif args.which == "rearrange":
        v = floor_root(args.x, args.k)  # no prime p above v enters the report
        needed = max(args.x, v * experiments.rearrange_h_cap(args.x, theta) + 1)
        cache = _cache_for(cfg, needed)
        records = [experiments.rearrangement_report(cache, args.x, args.k, theta)]
    else:
        cache = _cache_for(cfg, args.x)
        records = [
            experiments.ap_recip_heuristic_table(cache, args.x, _parse_int_list(args.p_list))
        ]
    _emit(cfg, records)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return 0 if exc.code == 0 else 1
    try:
        cfg = _config(args)
        if args.command == "sieve":
            cache = ensure_sieve(args.limit, cfg.cache_dir)
            print(f"sieve ready: limit={cache.limit}")
            return 0
        if args.command == "count":
            return _run_count(cfg, args)
        if args.command == "msim":
            shifts = _parse_int_list(args.shifts)
            system = system_from_shifts(shifts)
            cache = _cache_for(cfg, max(h * args.t + 1 for h in shifts))
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
            return _run_verify(cfg, args)
        return _run_experiment(cfg, args)
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
