"""Experiment drivers: the progression double sum, its rearrangement bounds, the
tuple-count ratio table, density comparisons, and the progression-sum
heuristic table. Each driver emits self-describing records that reproduce
exactly (integers) or to 1e-9 (reals) when re-run with the same inputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import List

import numpy as np

from .core_primes import (
    floor_root,
    prime_count,
    primes_in,
    primes_in_class,
    recip_prime_sum_ap,
)
from .dickman import limiting_density
from .errors import ArgumentError, BudgetError, VerificationError
from .linear_forms import range_bounds_exact
from .shifted_counts import Theta, tuple_count_fast, large_factor_count_fixed, large_factor_count

__all__ = [
    "ExperimentRecord",
    "progression_double_sum",
    "rearrange_h_cap",
    "rearrangement_report",
    "ratio_table",
    "density_table",
    "ap_recip_heuristic_table",
    "write_csv",
    "write_jsonl",
]


@dataclass(frozen=True)
class ExperimentRecord:
    """One emitted table row: inputs, raw measurements, derived ratios."""

    experiment: str
    inputs: dict
    raw: list = field(default_factory=list)
    derived: list = field(default_factory=list)


def _fmt(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _round_sig(v):
    if isinstance(v, float):
        return float(f"{v:.12g}")
    if isinstance(v, np.integer):
        return int(v)
    return v


def write_csv(records: List[ExperimentRecord], stream) -> None:
    """Header row then one line per record; columns in first-seen order."""
    columns = ["experiment"]
    for rec in records:
        for key in list(rec.inputs) + [k for k, _ in rec.raw] + [k for k, _ in rec.derived]:
            if key not in columns:
                columns.append(key)
    stream.write(",".join(columns) + "\n")
    for rec in records:
        row = {"experiment": rec.experiment}
        row.update({k: v for k, v in rec.inputs.items()})
        row.update({k: v for k, v in rec.raw})
        row.update({k: v for k, v in rec.derived})
        stream.write(",".join(_fmt(row[c]) if c in row else "" for c in columns) + "\n")


def write_jsonl(records: List[ExperimentRecord], stream) -> None:
    """One JSON object per line; reals carry 12 significant digits."""
    for rec in records:
        obj = {
            "experiment": rec.experiment,
            "inputs": {k: _round_sig(v) if not isinstance(v, str) else v for k, v in rec.inputs.items()},
            "raw": {k: _round_sig(v) for k, v in rec.raw},
            "derived": {k: _round_sig(v) for k, v in rec.derived},
        }
        stream.write(json.dumps(obj, separators=(",", ":")) + "\n")


def progression_double_sum(cache, x: int, k: int, theta: Theta) -> float:
    """Sum over (x/2)^theta < p <= x^(1/k) of (1/p) (sum_{q<=x, q=1 mod p} 1/q)^(k-1)."""
    cache._check(x)
    u, v = range_bounds_exact(x, k, theta)
    if u >= v:
        return 0.0
    ps = primes_in(cache, u, v)
    return math.fsum(
        (1.0 / p) * recip_prime_sum_ap(cache, x, p, 1) ** (k - 1) for p in ps.tolist()
    )


def _elementary_symmetric(values: np.ndarray, g_max: int) -> list:
    """e_1..e_g of the multiset {values} via Newton's identities.

    e_g equals the sum over increasing g-subsets of the products, i.e. the
    tuple sums needed here, without materializing the tuples.
    """
    power = [float(np.sum(values**j)) for j in range(g_max + 1)]
    e = [1.0]
    for g in range(1, g_max + 1):
        acc = 0.0
        for j in range(1, g + 1):
            acc += (-1) ** (j - 1) * e[g - j] * power[j]
        e.append(acc / g)
    return e[1:]


def _prime_shift_multipliers(cache, p: int, h_top: int) -> np.ndarray:
    """h with 2 <= h <= h_top and p*h + 1 prime, ascending."""
    hs = (primes_in_class(cache, p * h_top + 1, p, 1) - 1) // p
    return hs[hs >= 2]


def rearrange_h_cap(x: int, theta: Theta) -> int:
    """The largest h < 2^theta x^(1-theta): the shift bound of the symmetrized form.

    h < 2^theta x^(1-theta) iff h^den < 2^num x^(den-num) iff h^den <= that - 1.
    """
    return floor_root(2**theta.num * x ** (theta.den - theta.num) - 1, theta.den)


def rearrangement_report(
    cache, x: int, k: int, theta: Theta, *, x_budget: int = 10**5
) -> ExperimentRecord:
    """The double sum against its two rearranged majorants.

    raw carries (i) the double sum; (ii) the substitution majorant
    sum_p p^-k (sum_{1<h<x/p, ph+1 prime} 1/h)^(k-1); and (iii) the
    symmetrized form summing over sorted distinct shift tuples below
    2^theta x^(1-theta). (i) <= (ii) holds term by term (q = ph+1 > ph)
    and is enforced; the ordering constant (ii)/(iii) is reported, not
    asserted.
    """
    cache._check(x)
    if x > x_budget:
        raise BudgetError(f"direct tuple sums capped at x <= {x_budget}, got {x}")
    s_val = progression_double_sum(cache, x, k, theta)
    u, v = range_bounds_exact(x, k, theta)
    ps = primes_in(cache, u, v).tolist() if u < v else []

    # (ii): h < x/p, ph+1 prime
    maj_terms = []
    for p in ps:
        good = _prime_shift_multipliers(cache, p, (x - 1) // p)
        h_sum = math.fsum((1.0 / good).tolist())
        maj_terms.append(h_sum ** (k - 1) / p**k)
    majorant = math.fsum(maj_terms)

    # (iii): sorted distinct tuples below the fixed bound 2^theta x^(1-theta)
    h_cap = rearrange_h_cap(x, theta)
    sym_total = 0.0
    if ps:
        top = ps[-1] * h_cap + 1
        cache._check(max(top, x))
        sym_parts = []
        for p in ps:
            good = _prime_shift_multipliers(cache, p, h_cap)
            recips = 1.0 / good.astype(np.float64)
            es = _elementary_symmetric(recips, k - 1)
            sym_parts.append(math.fsum(es) / p**k)
        sym_total = math.fsum(sym_parts)

    if s_val > majorant:
        raise VerificationError(
            f"double sum exceeded its substitution majorant at x={x}: {s_val} > {majorant}"
        )
    c_sym = majorant / sym_total if sym_total > 0 else 0.0
    return ExperimentRecord(
        experiment="rearrange",
        inputs={"x": x, "k": k, "theta": str(theta)},
        raw=[("double_sum", s_val), ("substitution_majorant", majorant), ("symmetrized_form", sym_total)],
        derived=[
            ("s_le_majorant", bool(s_val <= majorant)),
            ("ordering_constant", c_sym),
        ],
    )


def ratio_table(cache, k: int, theta: Theta, x_grid) -> List[ExperimentRecord]:
    """Per x: the tuple count and its ratio to x^(1-theta(k-1))/(log x)^2."""
    out = []
    exponent = 1.0 - theta.as_real * (k - 1)
    run_max = 0.0
    run_min = math.inf
    for x in x_grid:
        if x < 1:
            raise ArgumentError(f"ratio needs x >= 1, got {x}")
        count = tuple_count_fast(cache, x, k, theta)
        ratio = count * math.log(x) ** 2 / x**exponent
        if ratio > 0:
            run_max = max(run_max, ratio)
            run_min = min(run_min, ratio)
        band = (run_max / run_min) if run_min < math.inf and run_min > 0 else 0.0
        out.append(
            ExperimentRecord(
                experiment="ratio",
                inputs={"x": int(x), "k": k, "theta": str(theta)},
                raw=[("tuple_count", count)],
                derived=[
                    ("ratio", ratio),
                    ("ratio_running_max", run_max if run_max > 0 else 0.0),
                    ("ratio_running_min", run_min if run_min < math.inf else 0.0),
                    ("band", band),
                ],
            )
        )
    return out


def density_table(cache, rho_table, theta: Theta, x_grid) -> List[ExperimentRecord]:
    """Per x: T/pi and T'/pi next to the reference density 1 - rho(1/theta)."""
    reference = limiting_density(rho_table, theta)
    out = []
    for x in x_grid:
        pi_x = prime_count(cache, x)
        t_val = large_factor_count(cache, x, theta)
        tp_val = large_factor_count_fixed(cache, x, theta)
        out.append(
            ExperimentRecord(
                experiment="density",
                inputs={"x": int(x), "theta": str(theta)},
                raw=[("pi", pi_x), ("count_self", t_val), ("count_fixed", tp_val)],
                derived=[
                    ("self_ratio", t_val / pi_x if pi_x else 0.0),
                    ("fixed_ratio", tp_val / pi_x if pi_x else 0.0),
                    ("reference_density", reference),
                ],
            )
        )
    return out


def ap_recip_heuristic_table(cache, x: int, p_list) -> ExperimentRecord:
    """Exact progression sums against the even-distribution window and the
    crude (log log x)/p reference, per modulus p."""
    if x < 2 or any(p < 2 for p in p_list):
        raise ArgumentError(f"apsum needs x >= 2 and moduli >= 2, got x={x}, p={list(p_list)}")
    cache._check(x)
    raw = []
    derived = []
    llx = math.log(math.log(x))
    for p in p_list:
        exact = recip_prime_sum_ap(cache, x, p, 1)
        window = (llx - math.log(math.log(p))) / p
        crude = llx / p
        raw.append((f"exact_p{p}", exact))
        raw.append((f"window_p{p}", window))
        raw.append((f"crude_p{p}", crude))
        derived.append((f"ratio_window_p{p}", exact / window if window > 0 else 0.0))
        derived.append((f"ratio_crude_p{p}", exact / crude if crude > 0 else 0.0))
    return ExperimentRecord(
        experiment="apsum",
        inputs={"x": int(x), "p_list": ";".join(str(p) for p in p_list)},
        raw=raw,
        derived=derived,
    )
