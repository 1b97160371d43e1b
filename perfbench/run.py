"""The spl benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload counts|wsum|cli-session \\
        --seed N --seconds S --trace 0|1

Workloads (closed loop, one client, at most two worker processes):

* ``counts``: one serial session of the sieve -> greatest-prime-factor
  table -> counter path at x ~ 1e8, in a fresh process per pass.
* ``wsum``: the weighted-sums scans only; no sieve is built, so sieve and
  counter changes should not move it.
* ``cli-session``: the README command list as fresh ``spl`` processes
  against a sieve cache built during set-up; exercises the cache read path.

Passes repeat until ``--seconds`` have elapsed (at least one). With
``--trace 0`` the last stdout line is a JSON object holding the end-to-end
metrics (medians over passes); with ``--trace 1`` passes alternate traced
and untraced and it holds the per-layer metrics taken from the traced
passes' spans. Every op (one public call or one command) is checked: it
fails if it raises, exits non-zero, disagrees with its second route, or,
on the default seed, differs from the outputs frozen in ``golden.json``.
Everything is written under ``.bench_build/perfbench`` in the checkout,
never to the repository's ``./cache``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import workloads as wl  # noqa: E402
from tracer import self_times, subtree  # noqa: E402

SETUP_REPEATS = 3  # cli-session set-up builds per run; the median is reported
CHILD_TIMEOUT_S = 150
LAYERS = ("core_primes", "shifted_counts", "_parallel", "experiments", "linear_forms",
          "weighted_sums", "dickman", "cli")

END_TO_END = [
    ("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
    ("cmd_p50_ms", "ms"), ("cmd_p75_ms", "ms"),
]


class BenchError(RuntimeError):
    pass


def _median(vals, default=0.0):
    vals = [v for v in vals if v is not None]
    return statistics.median(vals) if vals else default


def _quartiles(vals):
    if len(vals) < 2:
        return (vals[0],) * 3 if vals else (0.0, 0.0, 0.0)
    return statistics.quantiles(vals, n=4)


# ---------------------------------------------------------------------------
# Child processes.
# ---------------------------------------------------------------------------


class Context:
    def __init__(self, workload, seed, tiny, workdir, check_golden=True):
        self.workload, self.workdir = workload, workdir
        self.inputs = wl.make_inputs(workload, seed, tiny)
        self.run_id = f"{workload}-s{seed}-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                        SPL_CACHE_DIR=str(workdir / "cache"))
        self.golden = None
        if seed == wl.DEFAULT_SEED and not tiny and check_golden:
            try:
                self.golden = wl.load_golden(workload, self.inputs)
            except (OSError, KeyError, ValueError) as exc:
                raise BenchError(f"cannot use the frozen outputs: {exc}") from exc
        self.n = 0

    def fresh(self, stem: str) -> Path:
        self.n += 1
        return self.workdir / f"{stem}-{self.n}"


def spawn(ctx: Context, argv: list, out: Path) -> dict:
    """Run argv to completion; wall time spawn->exit and the child's rusage."""
    err = out.with_suffix(".err")
    with open(out, "wb") as fo, open(err, "wb") as fe:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fo, stderr=fe, cwd=ROOT, env=ctx.env)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        status = None
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            if status is None:  # interrupted: leave no child running
                proc.kill()
                proc.wait()
        t1 = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "start": t0, "end": t1, "ms": (t1 - t0) * 1e3,
            "cpu_s": ru.ru_utime + ru.ru_stime, "maxrss_mb": ru.ru_maxrss / 1024.0,
            "stdout": out.read_text(), "stderr": err.read_text()[-2000:]}


def worker_pass(ctx: Context, traced: bool) -> dict:
    cache_dir = ctx.fresh("cache")
    cache_dir.mkdir(parents=True)
    spec, out = ctx.fresh("spec.json"), ctx.fresh("out.json")
    t_spawn = time.perf_counter()
    spec.write_text(json.dumps({"workload": ctx.workload, "inputs": ctx.inputs, "trace": traced,
                                "cache_dir": str(cache_dir), "t_spawn": t_spawn,
                                "run_id": ctx.run_id}))
    r = spawn(ctx, [sys.executable, str(HERE / "worker.py"), str(spec), str(out)],
              ctx.fresh("worker.log"))
    shutil.rmtree(cache_dir, ignore_errors=True)
    if r["rc"] != 0 or not out.exists():
        raise BenchError(f"{ctx.workload} worker exited {r['rc']}: {r['stderr']}")
    res = json.loads(out.read_text())
    values = {op["key"]: op["value"] for op in res["ops"]}
    bad = {op["key"]: op["error"] for op in res["ops"] if op["error"]}
    if not bad:
        check = wl.check_counts if ctx.workload == "counts" else wl.check_wsum
        bad.update(check(values, ctx.inputs, res["meta"]))
        if ctx.golden is not None:
            bad.update(wl.check_golden_values(values, ctx.golden))
    spans = res["spans"]
    verify = next((s["id"] for s in spans if s["name"] == "verify"), None)
    skip = {s["id"] for s in subtree(spans, verify)} if verify else set()
    return {
        "traced": traced, "wall_s": res["wall_s"], "cpu_s": res["cpu_s"],
        "setup_s": res["setup_s"], "peak_rss_mb": res["peak_rss_mb"],
        "lat_ms": [op["ms"] for op in res["ops"] if op["phase"] == "pass"],
        "attempted": len(res["ops"]), "bad": bad, "values": values,
        "spans": [s for s in spans if s["id"] not in skip], "pass_id": res["pass_id"],
    }


def _cli_argv(ctx: Context, traced: bool, args: list, spans_out: Path) -> list:
    args = [*args, "--cache-dir", str(ctx.workdir / "cache")]
    if traced:
        return [sys.executable, str(HERE / "traced_cli.py"), ctx.run_id, str(spans_out), *args]
    return [sys.executable, "-m", "spl.cli", *args]


def _command_span(ctx, r, name, parent, spans_out, traced) -> list:
    sid = f"{ctx.run_id}:{spans_out.name}"
    spans = [{"id": sid, "name": name, "parent": parent, "run": ctx.run_id, "start": r["start"],
              "end": r["end"], "rss0": 0.0, "rss1": r["maxrss_mb"]}]
    if traced and spans_out.exists():
        for s in json.loads(spans_out.read_text()):
            spans.append({**s, "parent": s["parent"] or sid})
    return spans


def _dir_state(directory: Path) -> dict:
    return {f.name: (f.stat().st_size, f.stat().st_mtime_ns) for f in directory.iterdir()}


def cli_setup(ctx: Context, traced: bool) -> tuple:
    """Build the session's warm cache SETUP_REPEATS times; keep the last."""
    times, spans = [], []
    cache = ctx.workdir / "cache"
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(cache, ignore_errors=True)
        spans_out = ctx.fresh("setup-spans.json")
        argv = _cli_argv(ctx, traced, ["sieve", "build", "--limit", str(ctx.inputs["limit"])],
                         spans_out)
        r = spawn(ctx, argv, ctx.fresh("setup.out"))
        if r["rc"] != 0:
            raise BenchError(f"sieve build exited {r['rc']}: {r['stderr']}")
        times.append(r["ms"] / 1e3)
        spans += _command_span(ctx, r, "cli.sieve_build", None, spans_out, traced)
    return times, spans


def cli_pass(ctx: Context, traced: bool, meta: dict) -> dict:
    pass_id = f"{ctx.run_id}:pass{ctx.n}"
    spans, outs, bad, lat, cpu, peak = [], {}, {}, [], 0.0, 0.0
    warm = _dir_state(ctx.workdir / "cache")
    t0 = time.perf_counter()
    for name, args in wl.cli_commands(ctx.inputs):
        spans_out = ctx.fresh("spans.json")
        r = spawn(ctx, _cli_argv(ctx, traced, args, spans_out), ctx.fresh("cmd.out"))
        lat.append(r["ms"])
        cpu += r["cpu_s"]
        peak = max(peak, r["maxrss_mb"])
        outs[name] = r["stdout"]
        if r["rc"] != 0:
            bad[name] = f"exit {r['rc']}: {r['stderr'][-300:]}"
        elif _dir_state(ctx.workdir / "cache") != warm:
            bad[name] = "rewrote the warm sieve cache"
            warm = _dir_state(ctx.workdir / "cache")
        spans += _command_span(ctx, r, f"cli.{name}", pass_id, spans_out, traced)
    t1 = time.perf_counter()
    spans.append({"id": pass_id, "name": "pass", "parent": None, "run": ctx.run_id,
                  "start": t0, "end": t1, "rss0": 0.0, "rss1": 0.0})
    if not bad:
        bad.update(wl.check_cli(outs, ctx.inputs, meta))
        if ctx.golden is not None:
            bad.update(wl.check_golden_cli(outs, ctx.golden))
    return {"traced": traced, "wall_s": t1 - t0, "cpu_s": cpu, "peak_rss_mb": peak,
            "lat_ms": lat, "attempted": len(lat), "bad": bad, "values": outs,
            "spans": spans, "pass_id": pass_id}


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------


def end_to_end(passes: list, setup: list) -> dict:
    plain = [p for p in passes if not p["traced"]]
    lat = [v for p in plain for v in p["lat_ms"]]
    _, p50, p75 = _quartiles(lat)
    return {
        "wall_s": _median([p["wall_s"] for p in plain]),
        "cpu_s": _median([p["cpu_s"] for p in plain]),
        "setup_s": _median(setup),
        "peak_rss_mb": _median([p["peak_rss_mb"] for p in plain]),
        "cmd_p50_ms": p50,
        "cmd_p75_ms": p75,
    }


def _cli_names() -> list:
    return [name for name, _ in wl.cli_commands(wl.make_inputs("cli-session", wl.DEFAULT_SEED))]


def per_layer_table() -> list:
    """(metric, unit, better, how) for every per-layer metric.

    how is (kind, span name[, attribute]): "dur" is the median span
    duration, "grow" the median high-water RSS rise charged to the span
    itself, "attr" a median span attribute, "computed" a work count from
    the inputs, "self" the mean per-pass self time of a layer.
    """
    t = []

    def dur(metric, span, unit="s"):
        t.append((metric, unit, "lower", ("dur", span)))

    def grow(metric, span):
        t.append((metric, "MB", "lower", ("grow", span)))

    dur("core_primes.ensure_sieve.cold_s", "core_primes.ensure_sieve.cold")
    dur("core_primes.ensure_sieve.warm_s", "core_primes.ensure_sieve.warm")
    t.append(("core_primes.sieve_file_mb", "MB", "lower", ("attr", "core_primes.ensure_sieve", "file_mb")))
    dur("core_primes.flags.first_s", "core_primes.flags.first")
    dur("core_primes.primes.first_s", "core_primes.primes.first")
    grow("core_primes.primes.rss_growth_mb", "core_primes.primes.first")
    sc = "shifted_counts."
    dur(sc + "large_factor_count.cold_s", sc + "large_factor_count.cold")
    grow(sc + "large_factor_count.rss_growth_mb", sc + "large_factor_count.cold")
    dur(sc + "large_factor_count_fixed.warm_s", sc + "large_factor_count_fixed.warm")
    dur(sc + "smooth_shift_count.warm_s", sc + "smooth_shift_count.warm")
    dur(sc + "tuple_count_fast.k2.wall_s", sc + "tuple_count_fast.k2")
    dur(sc + "tuple_count_fast.k3.wall_s", sc + "tuple_count_fast.k3")
    grow(sc + "tuple_count_fast.k3.rss_growth_mb", sc + "tuple_count_fast.k3")
    t.append((sc + "tuple_count_fast.k2.r_values", "count", "lower", ("computed", "r_values")))
    dur(sc + "tuple_count_oracle.wall_s", sc + "tuple_count_oracle")
    dur("_parallel.tuple_count_fast.k2.w2.wall_s", "_parallel.tuple_count_fast.k2.w2")
    t.append(("_parallel.speedup_w2", "ratio", "higher", ("speedup",)))
    dur("experiments.progression_double_sum.wall_s", "experiments.progression_double_sum")
    t.append(("experiments.progression_double_sum.moduli", "count", "lower", ("computed", "moduli")))
    dur("experiments.ratio_table.wall_s", "experiments.ratio_table")
    dur("experiments.density_table.wall_s", "experiments.density_table")
    t.append(("experiments.write_csv.bytes", "bytes", "lower", ("attr", "experiments.write_csv", "bytes")))
    for fn in ("count_simultaneous", "inverse_power_prime_sum", "abel_identity_rhs"):
        dur(f"linear_forms.{fn}.wall_s", f"linear_forms.{fn}")
    for fn, g in (("weighted_tuple_sum_grid", 2), ("weighted_tuple_sum_grid", 3),
                  ("holder_grid", 3), ("holder_verify", 4)):
        base = f"weighted_sums.{fn}.g{g}"
        dur(base + ".wall_s", base)
        t.append((base + ".tuples", "count", "lower", ("computed", base)))
        t.append((base + ".tuples_per_s", "1/s", "higher", ("rate", base)))
    for fn in ("build_rho_table", "solve_theta1", "solve_theta2"):
        dur(f"dickman.{fn}.wall_s", f"dickman.{fn}")
    dur("cli.import_ms", "cli.import", "ms")
    for name in _cli_names():
        dur(f"cli.{name}.wall_ms", f"cli.{name}", "ms")
    for layer in LAYERS:
        t.append((f"{layer}.self_s", "s", "lower", ("self", layer)))
    t.append(("trace.wall_s", "s", "lower", ("trace", "wall")))
    t.append(("trace.unaccounted_s", "s", "lower", ("trace", "unaccounted")))
    t.append(("trace.overhead_s", "s", "lower", ("trace", "overhead")))
    t.append(("trace.spans", "count", "lower", ("trace", "spans")))
    return t


def _computed(ctx: Context, what: str) -> int:
    inp, w = ctx.inputs, ctx.workload
    if what == "r_values":
        x = {"counts": inp.get("x_k2"), "cli-session": inp.get("x_tk")}.get(w)
        return wl.r_values(x, 2) if x else 0
    if what == "moduli":
        if w == "counts":
            return wl.pds_moduli(inp["x_pds"], 2, 1, 4)
        return wl.pds_moduli(inp["x_rearrange"], 3, 1, 6) if w == "cli-session" else 0
    if w != "wsum":
        return 0
    z = {"weighted_tuple_sum_grid.g2": "z_g2", "weighted_tuple_sum_grid.g3": "z_g3",
         "holder_grid.g3": "z_holder_grid", "holder_verify.g4": "z_holder_g4"}
    return wl.tuples(int(what[-1]), inp[z[what.split(".", 1)[1]]])


def per_layer(ctx: Context, passes: list, setup_spans: list) -> dict:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    spans = setup_spans + [s for p in traced for s in p["spans"]]
    selfs = self_times(spans)
    by_name: dict = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def dur(name):
        return _median([s["end"] - s["start"] for s in by_name.get(name, [])])

    layer_self = {layer: [] for layer in LAYERS}
    walls, unaccounted, n_spans = [], [], []
    for p in traced:
        tree = subtree(p["spans"], p["pass_id"])
        n_spans.append(len(tree))
        sums = dict.fromkeys(LAYERS, 0.0)
        for s in tree:
            layer = s["name"].split(".", 1)[0]
            if s["id"] == p["pass_id"]:
                walls.append(s["end"] - s["start"])
                unaccounted.append(selfs[s["id"]][0])
            elif layer in sums:
                sums[layer] += selfs[s["id"]][0]
        for layer in LAYERS:
            layer_self[layer].append(sums[layer])
    mean = statistics.fmean
    out = {}
    for metric, unit, _, how in per_layer_table():
        kind = how[0]
        if kind == "dur":
            v = dur(how[1]) * (1e3 if unit == "ms" else 1.0)
        elif kind == "grow":
            v = _median([selfs[s["id"]][1] for s in by_name.get(how[1], [])])
        elif kind == "attr":
            v = _median([s.get(how[2]) for n, ss in by_name.items() if n.startswith(how[1])
                         for s in ss])
        elif kind == "computed":
            v = _computed(ctx, how[1])
        elif kind == "rate":
            wall = dur(how[1])
            v = _computed(ctx, how[1]) / wall if wall > 0 else 0.0
        elif kind == "speedup":
            w1, w2 = dur("shifted_counts.tuple_count_fast.k2"), dur("_parallel.tuple_count_fast.k2.w2")
            v = w1 / w2 if w1 > 0 and w2 > 0 and ctx.workload == "counts" else 0.0
        elif kind == "self":
            v = mean(layer_self[how[1]])
        elif how[1] == "wall":
            v = mean(walls)
        elif how[1] == "unaccounted":
            v = mean(unaccounted)
        elif how[1] == "overhead":
            v = _median([p["wall_s"] for p in traced]) - _median([p["wall_s"] for p in plain])
        else:
            v = mean(n_spans)
        out[metric] = (v, unit)
    return out


# ---------------------------------------------------------------------------
# Driver.
# ---------------------------------------------------------------------------


def _program_meta() -> dict:
    if not (ROOT / "src" / "spl" / "cli.py").is_file():
        raise BenchError(f"spl sources not found under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import spl.cli

    if not Path(spl.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"imported spl from {spl.cli.__file__}, not from this checkout")
    return {"abel_rel_tol": getattr(spl.cli, "ABEL_REL_TOL", 1e-10)}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
                 check_golden: bool = True) -> dict:
    """Run passes for `seconds`; return the result object, text lines and passes."""
    meta = _program_meta()
    base = ROOT / ".bench_build" / "perfbench"
    workdir = base / f"run-{os.getpid()}-{workload}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    ctx = Context(workload, seed, tiny, workdir, check_golden)
    try:
        setup, setup_spans = [], []
        if workload == "cli-session":
            setup, setup_spans = cli_setup(ctx, trace)
        passes = []
        t0 = time.perf_counter()
        while (not passes or time.perf_counter() - t0 < seconds
               or (trace and all(p["traced"] for p in passes))):
            traced = trace and len(passes) % 2 == 0
            if workload == "cli-session":
                passes.append(cli_pass(ctx, traced, meta))
            else:
                passes.append(worker_pass(ctx, traced))
        if workload != "cli-session":
            setup = [p["setup_s"] for p in passes]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p["attempted"] for p in passes)
    failures = [(i, k, why) for i, p in enumerate(passes) for k, why in sorted(p["bad"].items())]
    lines = [f"workload={workload} seed={seed} passes={len(passes)} trace={int(trace)}"]
    lines += [f"FAILED pass {i} op {k}: {why}" for i, k, why in failures]
    lines.append(f"fail_frac {len(failures) / attempted:.6g} (ops={attempted}, "
                 f"failed={len(failures)})")
    if trace:
        metrics = per_layer(ctx, passes, setup_spans)
        trace_path = base / f"trace-{workload}-seed{seed}.json"
        trace_path.write_text(json.dumps(setup_spans + [s for p in passes for s in p["spans"]]))
        lines.append(f"spans written to {trace_path.relative_to(ROOT)}")
        lines.append("rss_growth_mb: rise of the getrusage high-water mark, charged only to "
                     "the call that raised it; r_values, moduli, tuples: computed from inputs")
    else:
        lat = sum(len(p["lat_ms"]) for p in passes)
        metrics = {k: (v, u) for (k, u), v in zip(END_TO_END, end_to_end(passes, setup).values())}
        lines.append(f"latency samples={lat}, setup samples={len(setup)}")
    lines += [f"{k} {v:.6g} {u}" for k, (v, u) in metrics.items()]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return {"result": result, "lines": lines, "passes": passes}


def _stop(signum, frame):
    raise SystemExit(128 + signum)  # unwinds, so the running child is killed and reaped


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _stop)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for line in out["lines"]:
        print(line)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
