"""Run one spl command with spans around its calls into each layer.

Usage: python perfbench/traced_cli.py RUN_ID SPANS_JSON spl-arguments...

The benchmark's wrappers replace spl's public functions in every spl
module namespace before ``spl.cli.main`` runs, so calls between layers are
traced too; the lazy ``flags``/``primes`` views get a span on first access.
The program itself is unchanged. Exits with the command's own exit code.
"""

from __future__ import annotations

import functools
import json
import sys
from functools import cached_property
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracer import Tracer  # noqa: E402

TRACED = {
    "core_primes": ["ensure_sieve"],
    "shifted_counts": ["large_factor_count", "large_factor_count_fixed", "smooth_shift_count",
                       "tuple_count_fast", "tuple_count_oracle"],
    "linear_forms": ["count_simultaneous", "inverse_power_prime_sum", "abel_identity_rhs"],
    "weighted_sums": ["holder_verify", "weighted_tuple_sum", "mobius_expansion_check"],
    "dickman": ["build_rho_table", "rho", "limiting_density", "solve_theta1", "solve_theta2"],
    "experiments": ["progression_double_sum", "rearrangement_report", "ratio_table",
                    "density_table", "ap_recip_heuristic_table", "write_csv", "write_jsonl"],
}
_SINGLE = ("large_factor_count", "large_factor_count_fixed", "smooth_shift_count")


class _CountingStream:
    def __init__(self, inner):
        self.inner, self.bytes = inner, 0

    def write(self, text):
        self.bytes += len(text.encode())
        return self.inner.write(text)


def _dir_state(d: Path) -> dict:
    return {f.name: f.stat().st_mtime_ns for f in d.iterdir()} if d.is_dir() else {}


def instrument(tr: Tracer, modules: dict) -> None:
    """Wrap each TRACED function wherever an spl module namespace binds it."""
    seen_single = []

    def name_for(layer, fname, args, kwargs):
        if fname == "tuple_count_fast":
            k, w = args[2], kwargs.get("workers", 1)
            if w > 1:
                return f"_parallel.tuple_count_fast.k{k}.w{w}"
            return f"shifted_counts.tuple_count_fast.k{k}"
        if fname in _SINGLE:
            state = "warm" if seen_single else "cold"
            seen_single.append(fname)
            return f"shifted_counts.{fname}.{state}"
        if fname in ("holder_verify", "weighted_tuple_sum"):
            return f"weighted_sums.{fname}.g{args[0]}"
        return f"{layer}.{fname}"

    def wrap(layer, fname, fn, home):
        if fname == "ensure_sieve":
            @functools.wraps(fn)
            def traced(limit, directory=None, **kw):
                where = Path(directory if directory is not None else home.sieve_cache_dir())
                before = _dir_state(where)
                with tr.span("core_primes.ensure_sieve") as rec:
                    cache = fn(limit, directory, **kw)
                after = _dir_state(where)
                rec["name"] += ".cold" if after != before else ".warm"
                files = [f for f in where.iterdir() if f.is_file()]
                rec["file_mb"] = sum(f.stat().st_size for f in files) / 2**20
                return cache
        elif fname in ("write_csv", "write_jsonl"):
            @functools.wraps(fn)
            def traced(records, stream):
                counted = _CountingStream(stream)
                with tr.span(f"experiments.{fname}") as rec:
                    fn(records, counted)
                rec["bytes"] = counted.bytes
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                with tr.span(name_for(layer, fname, args, kwargs)):
                    return fn(*args, **kwargs)
        return traced

    for layer, names in TRACED.items():
        home = modules[layer]
        for fname in names:
            orig = getattr(home, fname)
            new = wrap(layer, fname, orig, home)
            for mod in modules.values():
                if getattr(mod, fname, None) is orig:
                    setattr(mod, fname, new)

    cls = modules["core_primes"].SieveCache
    for view in ("flags", "primes"):
        orig = cls.__dict__[view].func

        def first(self, _orig=orig, _name=f"core_primes.{view}.first"):
            with tr.span(_name):
                return _orig(self)

        prop = cached_property(first)
        prop.__set_name__(cls, view)
        setattr(cls, view, prop)


def main(run_id: str, out_path: str, argv: list) -> int:
    tr = Tracer(run_id)
    rc = 2
    try:
        with tr.span("cli.import"):
            import spl
            import spl.cli
        mods = {name: getattr(spl, name) for name in TRACED}
        instrument(tr, {**mods, "cli": spl.cli, "spl": spl})
        rc = spl.cli.main(argv)
    finally:
        sys.stdout.flush()
        Path(out_path).write_text(json.dumps(tr.spans))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2], sys.argv[3:]))
