"""One pass of the ``counts`` or ``wsum`` workload in a fresh process.

Usage: python perfbench/worker.py SPEC_JSON OUT_JSON

The spec gives the workload, its inputs, a private cache directory, the
spawn time (perf_counter of the parent) and whether to trace. The worker
sets up (imports, and for ``counts`` a cold sieve build, a warm load and
the first access of the ``flags``/``primes`` views), runs the timed pass,
then (``counts`` only) the untimed small-x cross-checks, and writes every
op's value, error and latency plus its spans to OUT_JSON.

Each timed pass makes an odd number of calls, so that with the passes
pooled the p50 and p75 latencies fall inside one call's samples rather
than between two calls of very different cost.
"""

from __future__ import annotations

import inspect
import json
import math
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracer import Tracer, maxrss_mb  # noqa: E402


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _plain(v):
    """JSON-ready form of a public call's result."""
    if hasattr(v, "item") and getattr(v, "ndim", 1) == 0:
        return v.item()
    if isinstance(v, (bool, int, float, str)) or v is None:
        return v
    return repr(v)


class Session:
    def __init__(self, tracer: Tracer):
        self.tr = tracer
        self.ops: list = []

    def op(self, key: str, span: str, fn, *args, phase: str = "pass", **kw):
        """Call fn under a span; record value or error and latency under key."""
        t0 = time.perf_counter()
        value = err = None
        with self.tr.span(span):
            try:
                value = fn(*args, **kw)
            except Exception as exc:  # an op that raises counts as failed
                err = f"{type(exc).__name__}: {exc}"
        self.ops.append({"key": key, "phase": phase, "ms": (time.perf_counter() - t0) * 1e3,
                         "value": value, "error": err})
        return value


def _fast_w2(sc, cache, x, k, theta):
    """workers=2 while the public signature has it, else the plain call."""
    if "workers" in inspect.signature(sc.tuple_count_fast).parameters:
        return sc.tuple_count_fast(cache, x, k, theta, workers=2)
    return sc.tuple_count_fast(cache, x, k, theta)


def run_counts(s: Session, inp: dict, cache_dir: Path) -> dict:
    from spl import core_primes as cp, experiments as ex, linear_forms as lf, shifted_counts as sc

    th, thk = sc.Theta.parse(inp["theta"]), sc.Theta.parse(inp["theta_k"])
    with s.tr.span("core_primes.ensure_sieve.cold") as rec:
        cp.ensure_sieve(inp["limit"], cache_dir)
    if rec is not None:
        rec["file_mb"] = sum(f.stat().st_size for f in cache_dir.iterdir()) / 2**20
    with s.tr.span("core_primes.ensure_sieve.warm"):
        cache = cp.ensure_sieve(inp["limit"], cache_dir)
    with s.tr.span("core_primes.flags.first"):
        cache.flags
    with s.tr.span("core_primes.primes.first"):
        cache.primes
    setup_end = time.perf_counter()

    x, system = inp["x"], lf.system_from_shifts(inp["shifts"])
    with s.tr.span("pass") as root:
        t0, c0 = time.perf_counter(), _cpu_s()
        s.op("T", "shifted_counts.large_factor_count.cold", sc.large_factor_count, cache, x, th)
        s.op("Tprime", "shifted_counts.large_factor_count_fixed.warm",
             sc.large_factor_count_fixed, cache, x, th)
        s.op("Tc", "shifted_counts.smooth_shift_count.warm", sc.smooth_shift_count, cache, x, th)
        s.op("tk3", "shifted_counts.tuple_count_fast.k3", sc.tuple_count_fast, cache, x, 3, thk)
        s.op("tk2_w1", "shifted_counts.tuple_count_fast.k2", sc.tuple_count_fast,
             cache, inp["x_k2"], 2, thk)
        s.op("tk2_w2", "_parallel.tuple_count_fast.k2.w2", _fast_w2, sc, cache, inp["x_k2"], 2, thk)
        s.op("pds", "experiments.progression_double_sum", ex.progression_double_sum,
             cache, inp["x_pds"], 2, thk)
        s.op("msim", "linear_forms.count_simultaneous", lf.count_simultaneous,
             cache, inp["t_msim"], system)
        s.op("abel_lhs", "linear_forms.inverse_power_prime_sum", lf.inverse_power_prime_sum,
             cache, inp["x_abel"], 2, thk, system)
        s.op("abel_rhs", "linear_forms.abel_identity_rhs", lf.abel_identity_rhs,
             cache, inp["x_abel"], 2, thk, system)
        s.op("tk_oracle", "shifted_counts.tuple_count_oracle", sc.tuple_count_oracle,
             cache, inp["x_oracle"], 2, thk)
        s.op("tk_fast_small", "shifted_counts.tuple_count_fast.k2.oracle_x", sc.tuple_count_fast,
             cache, inp["x_oracle"], 2, thk)
        s.op("pi", "core_primes.prime_count", cp.prime_count, cache, x)
        wall, cpu, peak = time.perf_counter() - t0, _cpu_s() - c0, maxrss_mb()
    with s.tr.span("verify"):
        for xc in inp["x_checks"]:
            s.op(f"check.pi.{xc}", "core_primes.prime_count", cp.prime_count, cache, xc,
                 phase="verify")
            for t in inp["theta_checks"]:
                tt = sc.Theta.parse(t)
                s.op(f"check.T.{xc}@{t}", "shifted_counts.large_factor_count.warm",
                     sc.large_factor_count, cache, xc, tt, phase="verify")
                s.op(f"check.Tc.{xc}@{t}", "shifted_counts.smooth_shift_count.warm",
                     sc.smooth_shift_count, cache, xc, tt, phase="verify")
    return {"setup_end": setup_end, "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak,
            "pass_id": root and root["id"]}


def _sample_grid(grid, extra) -> dict:
    n = len(grid) - 1
    pts = set(range(0, n + 1, max(n // 32, 1))) | {n} | {z for z in extra if z <= n}
    return {str(z): float(grid[z]) for z in sorted(pts)}


def _holder_summary(diags, extra) -> dict:
    return {
        "count": len(diags),
        "violations": sum(d.w_value > d.holder_bound * (1.0 + 1e-9) for d in diags),
        "at": {str(d.z): [d.w_value, d.holder_bound] for d in diags
               if d.z in extra or d is diags[-1]},
    }


def run_wsum(s: Session, inp: dict, cache_dir: Path) -> dict:
    from spl import weighted_sums as ws

    setup_end = time.perf_counter()
    checks = {inp["z_route_g2"], inp["z_route_g3"], inp["z_route_holder"]}
    with s.tr.span("pass") as root:
        t0, c0 = time.perf_counter(), _cpu_s()
        g2 = s.op("grid_g2", "weighted_sums.weighted_tuple_sum_grid.g2",
                  ws.weighted_tuple_sum_grid, 2, 2, inp["z_g2"])
        g3 = s.op("grid_g3", "weighted_sums.weighted_tuple_sum_grid.g3",
                  ws.weighted_tuple_sum_grid, 3, 3, inp["z_g3"])
        hg = s.op("holder_grid_g3", "weighted_sums.holder_grid.g3", ws.holder_grid,
                  3, 2, inp["z_holder_grid"])
        hv = s.op("holder_verify_g4", "weighted_sums.holder_verify.g4", ws.holder_verify,
                  4, 1, inp["z_holder_g4"])
        s.op("route_g2", "weighted_sums.weighted_tuple_sum.g2", ws.weighted_tuple_sum,
             2, 2, inp["z_route_g2"])
        s.op("route_g3", "weighted_sums.weighted_tuple_sum.g3", ws.weighted_tuple_sum,
             3, 3, inp["z_route_g3"])
        rh = s.op("route_holder_g3", "weighted_sums.holder_verify.g3", ws.holder_verify,
                  3, 2, inp["z_route_holder"])
        wall, cpu, peak = time.perf_counter() - t0, _cpu_s() - c0, maxrss_mb()
    # Summaries are taken after timing so they cost the pass nothing.
    summaries = {
        "grid_g2": lambda: _sample_grid(g2, checks),
        "grid_g3": lambda: _sample_grid(g3, checks),
        "holder_grid_g3": lambda: _holder_summary(hg, checks),
        "holder_verify_g4": lambda: _holder_summary([hv], checks),
        "route_holder_g3": lambda: _holder_summary([rh], checks),
    }
    for op in s.ops:
        if op["error"] is None and op["key"] in summaries:
            op["value"] = summaries[op["key"]]()
    return {"setup_end": setup_end, "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak,
            "pass_id": root and root["id"]}


def main(spec_path: str, out_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    tr = Tracer(spec["run_id"], enabled=spec["trace"])
    s = Session(tr)
    with tr.span("cli.import"):
        import spl.cli  # the whole package, as a spl command imports it
    meta = {"abel_rel_tol": getattr(spl.cli, "ABEL_REL_TOL", 1e-10)}
    run = run_counts if spec["workload"] == "counts" else run_wsum
    res = run(s, spec["inputs"], Path(spec["cache_dir"]))
    res["setup_s"] = res.pop("setup_end") - spec["t_spawn"]
    for op in s.ops:
        v = op["value"]
        if not isinstance(v, (dict, list)):
            op["value"] = _plain(v)
        if isinstance(op["value"], float) and not math.isfinite(op["value"]):
            op["error"] = op["error"] or f"non-finite result {op['value']}"
    res.update(ops=s.ops, spans=tr.spans, meta=meta)
    Path(out_path).write_text(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
