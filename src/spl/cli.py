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

# Set before the first package import, which loads numpy: spl's BLAS calls are small, and
# starting OpenBLAS's thread pool costs each command ~70-100 ms of CPU. A caller's value stays.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

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


# Every leaf option, declared once; a leaf names the ones it takes after --cache-dir, in order.
OPTIONS = {
    **dict.fromkeys(("limit", "x", "k", "t", "g", "ell", "z", "hmax", "L"), dict(type=int, required=True)),
    **dict.fromkeys(("theta", "x-grid", "p-list"), dict(required=True)),
    "u": dict(type=float, required=True),
    "cache-dir": dict(default=None, help="sieve cache directory (default $SPL_CACHE_DIR or ./cache)"),
    "output": dict(default=None, help="output path for the table ('-' = stdout)"),
    "format": dict(choices=("csv", "json"), default="csv"),
    "method": dict(choices=("fast", "both"), default="fast"),
    "shifts": dict(required=True, help="comma-separated shifts h1,h2,..."),
    "holder": dict(action="store_true", help="also verify the moment bound"),
}


def leaf(group, name: str, options: tuple, run, help=None, **bound) -> None:
    """Add the leaf command `name` to `group`, taking --cache-dir and then `options`.

    The parsed args carry `run`, the leaf's handler, and each of `bound`, for a
    handler that several leaves share (e.g. the counter it calls); no `bound`
    name may be an option's or a group's dest, or one value would hide the other.
    """
    # argparse lists a leaf in its group's help only when add_parser is given a help
    described = {"help": help} if help is not None else {}
    q = group.add_parser(name, **described)
    for option in ("cache-dir", *options):
        q.add_argument(f"--{option}", **OPTIONS[option])
    q.set_defaults(run=run, **bound)


def build_parser() -> argparse.ArgumentParser:
    # Library functions are bound here or read by the handlers as they run, never
    # earlier, so a function replaced on this module first is the one a command calls.
    p = argparse.ArgumentParser(
        prog="spl",
        description="Shifted-primes laboratory: exact counters, sieve majorants, "
        "Dickman tables, and identity checks.",
    )
    # a group's dest is read only by argparse, to name a missing subcommand (exit 1)
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("sieve", help="sieve cache maintenance")
    ps_sub = ps.add_subparsers(dest="action", required=True)
    leaf(ps_sub, "build", ("limit",), _run_sieve, help="build and persist the primality bitset")

    pc = sub.add_parser("count", help="shifted-prime counters")
    pc_sub = pc.add_subparsers(dest="counter", required=True)
    leaf(pc_sub, "t", ("x", "theta"), _run_single, count=large_factor_count)
    leaf(pc_sub, "tprime", ("x", "theta"), _run_single, count=large_factor_count_fixed)
    leaf(pc_sub, "tc", ("x", "theta"), _run_single, count=smooth_shift_count)
    leaf(pc_sub, "tk", ("x", "k", "theta", "method"), _run_tuple)

    leaf(sub, "msim", ("t", "shifts"), _run_msim, help="count primes making every shift form prime")
    leaf(sub, "wsum", ("g", "ell", "z", "holder"), _run_wsum, help="weighted tuple sum with local factors")

    pd = sub.add_parser("dickman", help="Dickman function and thresholds")
    pd_sub = pd.add_subparsers(dest="what", required=True)
    leaf(pd_sub, "rho", ("u",), _run_dickman, value=lambda args: dickman.rho(args.u))
    leaf(pd_sub, "theta1", (), _run_dickman, value=lambda args: dickman.solve_theta1())
    leaf(pd_sub, "theta2", (), _run_dickman, value=lambda args: dickman.solve_theta2())
    leaf(
        pd_sub, "density", ("theta",), _run_dickman,
        value=lambda args: dickman.limiting_density(Theta.parse(args.theta)),
    )

    pv = sub.add_parser("verify", help="identity checks (exit 3 on failure)")
    pv_sub = pv.add_subparsers(dest="check", required=True)
    leaf(pv_sub, "abel", ("x", "k", "theta", "shifts"), _run_abel)
    leaf(pv_sub, "mobius", ("hmax", "L"), _run_mobius)

    pe = sub.add_parser("experiment", help="emit experiment tables")
    pe_sub = pe.add_subparsers(dest="which", required=True)
    table = ("output", "format")
    leaf(pe_sub, "ratio", (*table, "k", "theta", "x-grid"), _run_experiment, records=_ratio_records)
    leaf(pe_sub, "density", (*table, "theta", "x-grid"), _run_experiment, records=_density_records)
    leaf(pe_sub, "rearrange", (*table, "x", "k", "theta"), _run_experiment, records=_rearrange_records)
    leaf(pe_sub, "apsum", (*table, "x", "p-list"), _run_experiment, records=_apsum_records)
    return p


def _run_sieve(args) -> None:
    cache = ensure_sieve(args.limit, args.cache_dir or None)
    print(f"sieve ready: limit={cache.limit}")


def _run_single(args) -> None:
    """`count t`, `tprime` or `tc`: the leaf binds the counter as `args.count`."""
    theta = Theta.parse(args.theta)
    cache = _cache_for(args, args.x)
    print(args.count(cache, args.x, theta))


def _run_tuple(args) -> None:
    theta = Theta.parse(args.theta)
    cache = _cache_for(args, tuple_sieve_limit(args.x, args.k))
    fast = tuple_count_fast(cache, args.x, args.k, theta)
    if args.method == "fast":
        print(fast)
    else:
        oracle = tuple_count_oracle(cache, args.x, args.k, theta)
        print(f"oracle={oracle} fast={fast}")
        if oracle != fast:
            raise VerificationError(f"counter mismatch: oracle={oracle} fast={fast}")


def _run_msim(args) -> None:
    system = system_from_shifts(_parse_int_list(args.shifts))
    cache = _cache_for(args, form_sieve_limit(args.t, system))
    print(count_simultaneous(cache, args.t, system))


def _run_wsum(args) -> None:
    if args.holder:
        diag = weighted_sums.holder_verify(args.g, args.ell, args.z)
        print(
            f"w={diag.w_value:.12g} bound={diag.holder_bound:.12g} "
            f"G={diag.G} L={diag.L}"
        )
    else:
        print(f"{weighted_sums.weighted_tuple_sum(args.g, args.ell, args.z):.12g}")


def _run_dickman(args) -> None:
    """A `dickman` leaf: the leaf binds the value it prints as `args.value`."""
    print(f"{args.value(args):.12g}")


def _run_abel(args) -> None:
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


def _run_mobius(args) -> None:
    for h in range(2, args.hmax + 1):
        lhs, rhs = weighted_sums.mobius_expansion_check(h, args.L)
        if lhs != rhs:
            raise VerificationError(f"divisor expansion failed at h={h}, L={args.L}: {lhs} != {rhs}")
    print(f"ok: h <= {args.hmax}, L = {args.L}")


def _run_experiment(args) -> None:
    """An `experiment` leaf: the leaf binds its record builder as `args.records`."""
    theta = Theta.parse(args.theta) if hasattr(args, "theta") else None
    to_file = bool(args.output) and args.output != "-"
    if to_file:
        _check_output(args.output)
    records = args.records(args, theta)
    writer = experiments.write_csv if args.format == "csv" else experiments.write_jsonl
    if to_file:
        with open(args.output, "w") as fh:
            writer(records, fh)
    else:
        writer(records, sys.stdout)


def _ratio_records(args, theta) -> list:
    grid = _parse_int_list(args.x_grid)
    cache = _cache_for(args, experiments.ratio_sieve_limit(args.k, grid))
    return experiments.ratio_table(cache, args.k, theta, grid)


def _density_records(args, theta) -> list:
    grid = _parse_int_list(args.x_grid)
    cache = _cache_for(args, experiments.density_sieve_limit(theta, grid))
    return experiments.density_table(cache, theta, grid)


def _rearrange_records(args, theta) -> list:
    cache = _cache_for(args, experiments.rearrange_sieve_limit(args.x, args.k, theta))
    return [experiments.rearrangement_report(cache, args.x, args.k, theta)]


def _apsum_records(args, theta) -> list:
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
        args.run(args)
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
