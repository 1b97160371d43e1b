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
    _check_sieve_limit,
    floor_root,
    prime_count,
    primes_in,
    primes_in_class,
    recip_prime_sum_ap,
)
from .dickman import limiting_density
from .errors import ArgumentError, VerificationError
from .linear_forms import range_bounds_exact
from .shifted_counts import (
    Theta,
    single_prime_counts,
    tuple_count_fast,
    tuple_sieve_limit,
)

__all__ = [
    "ExperimentRecord",
    "progression_double_sum",
    "rearrange_h_cap",
    "rearrange_sieve_limit",
    "rearrangement_report",
    "ratio_sieve_limit",
    "ratio_table",
    "density_sieve_limit",
    "density_table",
    "apsum_sieve_limit",
    "ap_recip_heuristic_table",
    "write_csv",
    "write_jsonl",
]


@dataclass(frozen=True)
class ExperimentRecord:
    """One emitted table row: inputs, raw measurements, derived ratios."""

    experiment: str
    inputs: dict
    raw: dict = field(default_factory=dict)
    derived: dict = field(default_factory=dict)


def _fmt(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _round_sig(v):
    if isinstance(v, float):
        return float(f"{v:.12g}")
    return v


def write_csv(records: List[ExperimentRecord], stream) -> None:
    """Header row then one line per record; columns in first-seen order."""
    columns = ["experiment"]
    for rec in records:
        for key in [*rec.inputs, *rec.raw, *rec.derived]:
            if key not in columns:
                columns.append(key)
    stream.write(",".join(columns) + "\n")
    for rec in records:
        row = {"experiment": rec.experiment, **rec.inputs, **rec.raw, **rec.derived}
        stream.write(",".join(_fmt(row[c]) if c in row else "" for c in columns) + "\n")


def write_jsonl(records: List[ExperimentRecord], stream) -> None:
    """One JSON object per line; reals carry 12 significant digits."""
    for rec in records:
        obj = {
            "experiment": rec.experiment,
            "inputs": {k: _round_sig(v) for k, v in rec.inputs.items()},
            "raw": {k: _round_sig(v) for k, v in rec.raw.items()},
            "derived": {k: _round_sig(v) for k, v in rec.derived.items()},
        }
        stream.write(json.dumps(obj, separators=(",", ":")) + "\n")


def progression_double_sum(cache, x: int, k: int, theta: Theta) -> float:
    """Sum over (x/2)^theta < p <= x^(1/k) of (1/p) (sum_{q<=x, q=1 mod p} 1/q)^(k-1)."""
    cache._check(x)
    ps = primes_in(cache, *range_bounds_exact(x, k, theta))
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
    """h with 1 <= h <= h_top and p*h + 1 prime, ascending.

    h = 1 occurs only at p = 2 (q = 3): for odd p, p + 1 is even.
    """
    return (primes_in_class(cache, p * h_top + 1, p, 1) - 1) // p


def rearrange_h_cap(x: int, theta: Theta) -> int:
    """The largest h < 2^theta x^(1-theta): the shift bound of the symmetrized form.

    h < 2^theta x^(1-theta) iff h^den < 2^num x^(den-num) iff h^den <= that - 1.
    """
    return floor_root(2**theta.num * x ** (theta.den - theta.num) - 1, theta.den)


def rearrange_sieve_limit(x: int, k: int, theta: Theta) -> int:
    """The sieve limit rearrangement_report needs at (x, k, theta).

    Raises ArgumentError for k < 2, and RangeError for an x past the sieve
    ceiling before any power of x is formed: the limit is at least x.
    """
    if k < 2:
        raise ArgumentError(f"rearrangement needs k >= 2, got {k}")
    _check_sieve_limit(max(x, 2))
    v = range_bounds_exact(x, k, theta)[1]  # no prime p above v enters the report
    return max(x, v * rearrange_h_cap(x, theta) + 1)


def rearrangement_report(cache, x: int, k: int, theta: Theta) -> ExperimentRecord:
    """The double sum against its two rearranged majorants.

    raw carries (i) the double sum; (ii) the substitution majorant
    sum_p p^-k (sum_{1<=h<x/p, ph+1 prime} 1/h)^(k-1); and (iii) the
    symmetrized form summing over sorted distinct shift tuples below
    2^theta x^(1-theta): it sums e_1 ... e_(k-1) of the 1/h, so the single
    shifts belong to it. (i) <= (ii) holds term by term (q = ph+1 > ph;
    h = 1 is q = 3 at p = 2, so it is kept) and is enforced; the ordering
    constant (ii)/(iii) is reported, not asserted.
    """
    cache._check(rearrange_sieve_limit(x, k, theta))
    s_val = progression_double_sum(cache, x, k, theta)
    ps = primes_in(cache, *range_bounds_exact(x, k, theta)).tolist()

    # One scan per p to the fixed bound 2^theta x^(1-theta) of (iii); (ii)'s
    # bound h < x/p never exceeds it, so its multipliers are a prefix.
    h_cap = rearrange_h_cap(x, theta)
    maj_terms, sym_parts = [], []
    for p in ps:
        h_top = (x - 1) // p
        if h_top > h_cap:
            raise VerificationError(
                f"shift bound (x-1)//p = {h_top} exceeds h_cap = {h_cap} at x={x}, p={p}"
            )
        good = _prime_shift_multipliers(cache, p, h_cap)
        # (ii): h < x/p, ph+1 prime
        below = good[: np.searchsorted(good, h_top, "right")]
        h_sum = math.fsum((1.0 / below).tolist())
        maj_terms.append(h_sum ** (k - 1) / p**k)
        # (iii): sorted distinct tuples below the fixed bound
        es = _elementary_symmetric(1.0 / good.astype(np.float64), k - 1)
        sym_parts.append(math.fsum(es) / p**k)
    majorant = math.fsum(maj_terms)
    sym_total = math.fsum(sym_parts)

    if s_val > majorant:
        raise VerificationError(
            f"double sum exceeded its substitution majorant at x={x}: {s_val} > {majorant}"
        )
    c_sym = majorant / sym_total if sym_total > 0 else 0.0
    return ExperimentRecord(
        experiment="rearrange",
        inputs={"x": x, "k": k, "theta": str(theta)},
        raw={"double_sum": s_val, "substitution_majorant": majorant, "symmetrized_form": sym_total},
        derived={"s_le_majorant": bool(s_val <= majorant), "ordering_constant": c_sym},
    )


def ratio_sieve_limit(k: int, x_grid) -> int:
    """The sieve limit ratio_table needs; a k or x it refuses raises ArgumentError here."""
    for x in x_grid:
        if x < 1:
            raise ArgumentError(f"ratio needs x >= 1, got {x}")
        tuple_sieve_limit(x, k)
    return max(x_grid, default=1)


def ratio_table(cache, k: int, theta: Theta, x_grid) -> List[ExperimentRecord]:
    """Per x: the tuple count and its ratio to x^(1-theta(k-1))/(log x)^2."""
    ratio_sieve_limit(k, x_grid)
    out = []
    run_max = 0.0
    run_min = math.inf
    for x in x_grid:
        count = tuple_count_fast(cache, x, k, theta)
        # a zero count is a zero ratio, also where the normaliser underflows (theta >= 1/k)
        ratio = count * math.log(x) ** 2 / x ** (1.0 - theta.as_real * (k - 1)) if count else 0.0
        if ratio > 0:
            run_max = max(run_max, ratio)
            run_min = min(run_min, ratio)
        band = (run_max / run_min) if run_min < math.inf else 0.0
        out.append(
            ExperimentRecord(
                experiment="ratio",
                inputs={"x": int(x), "k": k, "theta": str(theta)},
                raw={"tuple_count": count},
                derived={
                    "ratio": ratio,
                    "ratio_running_max": run_max,
                    "ratio_running_min": run_min if run_min < math.inf else 0.0,
                    "band": band,
                },
            )
        )
    return out


def density_sieve_limit(theta: Theta, x_grid) -> int:
    """The sieve limit density_table needs; an x below 2 or a 1/theta past U_CEILING raises here."""
    for x in x_grid:
        if x < 2:
            raise ArgumentError(f"density needs x >= 2, got {x}")
    limiting_density(theta)
    return max(x_grid, default=2)


def density_table(cache, theta: Theta, x_grid) -> List[ExperimentRecord]:
    """Per x: T/pi and T'/pi next to the reference density 1 - rho(1/theta).

    The counts of the whole grid come from one pass; pi(x) from prime_count.
    """
    cache._check(density_sieve_limit(theta, x_grid))
    reference = limiting_density(theta)
    out = []
    for x, (t_val, tp_val, _) in zip(x_grid, single_prime_counts(cache, theta, x_grid)):
        pi_x = prime_count(cache, x)
        out.append(
            ExperimentRecord(
                experiment="density",
                inputs={"x": int(x), "theta": str(theta)},
                raw={"pi": pi_x, "count_self": t_val, "count_fixed": tp_val},
                derived={
                    "self_ratio": t_val / pi_x,
                    "fixed_ratio": tp_val / pi_x,
                    "reference_density": reference,
                },
            )
        )
    return out


def apsum_sieve_limit(x: int, p_list) -> int:
    """The sieve limit ap_recip_heuristic_table needs; an x or p it refuses raises here."""
    if x < 2 or any(p < 2 for p in p_list):
        raise ArgumentError(f"apsum needs x >= 2 and moduli >= 2, got x={x}, p={list(p_list)}")
    if len(set(p_list)) < len(p_list):
        raise ArgumentError(f"apsum moduli must be distinct, got p={list(p_list)}")
    if any(p > x for p in p_list):  # no prime q = 1 (mod p) is <= x, and the window is negative
        raise ArgumentError(f"apsum moduli must not exceed x, got x={x}, p={list(p_list)}")
    return x


def ap_recip_heuristic_table(cache, x: int, p_list) -> ExperimentRecord:
    """Exact progression sums against the even-distribution window and the
    crude (log log x)/p reference, per modulus p."""
    cache._check(apsum_sieve_limit(x, p_list))
    raw, derived = {}, {}
    llx = math.log(math.log(x))
    for p in p_list:
        exact = recip_prime_sum_ap(cache, x, p, 1)
        window = (llx - math.log(math.log(p))) / p
        crude = llx / p
        raw[f"exact_p{p}"] = exact
        raw[f"window_p{p}"] = window
        raw[f"crude_p{p}"] = crude
        derived[f"ratio_window_p{p}"] = exact / window if window > 0 else 0.0
        derived[f"ratio_crude_p{p}"] = exact / crude if crude > 0 else 0.0
    return ExperimentRecord(
        experiment="apsum",
        inputs={"x": int(x), "p_list": ";".join(str(p) for p in p_list)},
        raw=raw,
        derived=derived,
    )
