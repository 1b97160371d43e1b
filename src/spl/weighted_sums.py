"""Weighted sums over increasing tuples with local factors (1 + 1/p)^ell.

The central object is the sum over 1 < h_1 < ... < h_g < z of
1/(h_1...h_g) times the product of (1 + 1/p)^ell over the distinct primes
p dividing E = h_1...h_g * prod_{i<j}(h_j - h_i). Alongside it live the
moment sums that bound it through the Hoelder inequality, and the exact
Mobius-expansion identity used to sum the single-variable weights.

A per-integer table makes each tuple cheap: F[h] = prod_{p|h}(1 + 1/p).
The factor for a union of prime sets is assembled from F with the primes
already counted divided out, never by refactoring E.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import List

import numpy as np

from .core_primes import _distinct_primes, _simple_bool_sieve
from .errors import ArgumentError, BudgetError, VerificationError

__all__ = [
    "HolderDiagnostics",
    "weighted_tuple_sum",
    "weighted_tuple_sum_grid",
    "single_weighted_sum",
    "mobius_expansion_check",
    "coordinate_moment",
    "difference_moment",
    "holder_verify",
    "holder_grid",
    "tuple_budget",
]

TUPLE_BUDGET = 10**9


def tuple_budget(g: int, z: int) -> int:
    """Number of increasing g-tuples drawn from 1 < h < z."""
    return comb(max(z - 2, 0), g)


def _check_budget(g: int, z: int) -> None:
    if tuple_budget(g, z) > TUPLE_BUDGET:
        raise BudgetError(
            f"(g={g}, z={z}) needs {tuple_budget(g, z):.3g} tuple visits; budget {TUPLE_BUDGET:.0e}"
        )


def _factor_table(z: int) -> np.ndarray:
    """F[h] = prod_{p|h}(1+1/p) for 0 <= h < z."""
    f = np.ones(max(z, 2))
    for p in np.flatnonzero(_simple_bool_sieve(len(f) - 1)).tolist():
        f[p::p] *= 1.0 + 1.0 / p
    return f


def _validate(g: int, ell: int, z: int) -> None:
    if g < 1 or ell < 1:
        raise ArgumentError(f"need g >= 1 and ell >= 1, got g={g}, ell={ell}")
    if z < 2:
        raise ArgumentError(f"need z >= 2, got z={z}")
    _check_budget(g, z)


def _pairs(g: int) -> list:
    """Index pairs (s, r) with s < r < g in lexicographic order: one per h_r - h_s."""
    return list(combinations(range(g), 2))


def _without_primes(f: np.ndarray, ps) -> tuple:
    """(prod_{p in ps}(1+1/p), a copy of f with every p in ps divided out)."""
    f_rest = f.copy()
    f_ps = 1.0
    for p in ps:
        f_rest[p::p] /= 1.0 + 1.0 / p
        f_ps *= 1.0 + 1.0 / p
    return f_ps, f_rest


def _scan_grid(g: int, ell: int, z_max: int, *, moments: bool = True):
    """One enumeration of all tuples with h_g < z_max, binned by h_g.

    Returns (w_bins, aj_bins, ars_bins): each bins[h] sums the contributions
    of tuples whose largest coordinate is h, so cumulative sums over h < z
    recover every quantity on the full z grid at once. aj_bins has g rows;
    ars_bins has one row per pair of _pairs(g). Moment weights use the
    exponent ell * G with G = comb(g + 1, 2). With moments=False the moment
    bins stay zero.

    The loop runs over prefixes (h_1, ..., h_{g-1}) and is vectorised over
    h_g. A prime dividing two of the new elements h_g and h_g - h_s also
    divides h_s or a difference of two h_s, so F(E) is F over the prefix's
    primes times, for each new element, F with those primes divided out.
    No kernel product is formed, so every array value stays below z_max.
    """
    f = _factor_table(z_max)
    f_ellg = f ** (ell * comb(g + 1, 2))
    hs = np.arange(z_max)
    inv_h = 1.0 / np.maximum(hs, 1)
    # the elements of E as x[hi] - x[lo] with x = (0, h_1, ..., h_g): the g
    # coordinates, then the differences in _pairs order; one moment row each
    hi, lo = np.array([(j + 1, 0) for j in range(g)] + [(r + 1, s + 1) for s, r in _pairs(g)]).T
    new = hi == g
    w_bins = np.zeros(z_max)
    m_bins = np.zeros((len(hi), z_max))
    for prefix in combinations(range(2, z_max - 1), g - 1):
        start = prefix[-1] + 1 if prefix else 2
        x = np.array((0, *prefix, 0))
        base = x[hi] - x[lo]  # the prefix's elements, and -h_s for the new ones
        ps = sorted(set().union(*map(_distinct_primes, base[~new].tolist())))
        fac, f_rest = _without_primes(f, ps)
        for h in (0, *prefix):
            fac = fac * f_rest[start - h : z_max - h]
        inv = inv_h[start:] / math.prod(prefix)
        w_bins[start:] += fac**ell * inv
        if moments:
            m_bins[:, start:] += f_ellg[base[:, None] + new[:, None] * hs[start:]] * inv
    return w_bins, m_bins[:g], m_bins[g:]


def weighted_tuple_sum(g: int, ell: int, z: int) -> float:
    """Sum over 1 < h_1 < ... < h_g < z of (h_1...h_g)^-1 prod_{p|E}(1+1/p)^ell."""
    _validate(g, ell, z)
    w_bins, _, _ = _scan_grid(g, ell, z, moments=False)
    return math.fsum(w_bins.tolist())


def weighted_tuple_sum_grid(g: int, ell: int, z_max: int) -> np.ndarray:
    """weighted_tuple_sum(g, ell, z) for every z in 0..z_max from one enumeration.

    Entry z holds the sum over tuples with h_g < z (entries 0..2 are 0).
    """
    _validate(g, ell, z_max)
    w_bins, _, _ = _scan_grid(g, ell, z_max, moments=False)
    return np.concatenate([[0.0], np.cumsum(w_bins)[: z_max]])


def single_weighted_sum(z: int, e: int) -> float:
    """Sum over 1 < h < z of (1/h) prod_{p|h}(1+1/p)^e, exactly rounded."""
    if z < 2:
        raise ArgumentError(f"need z >= 2, got {z}")
    if e < 1:
        raise ArgumentError(f"need e >= 1, got {e}")
    f = _factor_table(z)
    return math.fsum((f[h] ** e) / h for h in range(2, z))


def mobius_expansion_check(h: int, l_param: int):
    """Both sides of prod_{p|h}(1 + L/p) = sum_{d|h} mu^2(d) L^omega(d) / d.

    Returned as exact rationals; integers are arbitrary precision so no
    overflow is possible. Both sides share the denominator rad(h).
    """
    if h < 2:
        raise ArgumentError(f"need h >= 2, got {h}")
    ps = _distinct_primes(h)
    rad = 1
    lhs_num = 1
    for p in ps:
        rad *= p
        lhs_num *= p + l_param
    rhs_num = 0
    for size in range(len(ps) + 1):
        for subset in combinations(ps, size):
            prod = 1
            for p in subset:
                prod *= p
            rhs_num += l_param**size * (rad // prod)
    return Fraction(lhs_num, rad), Fraction(rhs_num, rad)


def coordinate_moment(g: int, ell: int, z: int, j: int) -> float:
    """Moment sum with weight A_j^G, A_j = prod_{p|h_j}(1+1/p)^ell."""
    _validate(g, ell, z)
    if not 1 <= j <= g:
        raise ArgumentError(f"need 1 <= j <= g, got j={j}")
    _, aj_bins, _ = _scan_grid(g, ell, z)
    return math.fsum(aj_bins[j - 1].tolist())


def difference_moment(g: int, ell: int, z: int, r: int, s: int) -> float:
    """Moment sum with weight A_{r,s}^G, A_{r,s} = prod_{p|(h_r-h_s)}(1+1/p)^ell."""
    _validate(g, ell, z)
    if not 1 <= s < r <= g:
        raise ArgumentError(f"need 1 <= s < r <= g, got r={r}, s={s}")
    _, _, ars_bins = _scan_grid(g, ell, z)
    idx = _pairs(g).index((s - 1, r - 1))
    return math.fsum(ars_bins[idx].tolist())


@dataclass(frozen=True)
class HolderDiagnostics:
    """One Hoelder split: the sum, its moment factors, and their bound."""

    g: int
    ell: int
    G: int
    L: int
    z: int
    w_value: float
    aj_moments: List[float]
    ars_moments: List[float]
    holder_bound: float

    def __post_init__(self):
        if self.w_value > self.holder_bound * (1.0 + 1e-9):
            raise VerificationError(
                f"Hoelder inequality violated at g={self.g}, ell={self.ell}, "
                f"z={self.z}: w={self.w_value!r} > bound={self.holder_bound!r}"
            )


def _diag_from_values(g, ell, z, w_val, aj_vals, ars_vals) -> HolderDiagnostics:
    G = comb(g + 1, 2)
    bound = 1.0
    for mval in list(aj_vals) + list(ars_vals):
        bound *= mval ** (1.0 / G)
    return HolderDiagnostics(
        g=g,
        ell=ell,
        G=G,
        L=2 ** (G * ell),
        z=z,
        w_value=w_val,
        aj_moments=list(aj_vals),
        ars_moments=list(ars_vals),
        holder_bound=bound,
    )


def holder_verify(g: int, ell: int, z: int) -> HolderDiagnostics:
    """Evaluate the sum and every moment at z and check the Hoelder bound."""
    _validate(g, ell, z)
    w_bins, aj_bins, ars_bins = _scan_grid(g, ell, z)
    return _diag_from_values(
        g,
        ell,
        z,
        math.fsum(w_bins.tolist()),
        [math.fsum(row.tolist()) for row in aj_bins],
        [math.fsum(row.tolist()) for row in ars_bins],
    )


def holder_grid(g: int, ell: int, z_max: int) -> List[HolderDiagnostics]:
    """Diagnostics for every z in 2..z_max from a single enumeration.

    Tuples are binned by their largest coordinate, so prefix sums of one
    scan give the whole z grid; values match per-z evaluation to rounding.
    """
    _validate(g, ell, z_max)
    w_bins, aj_bins, ars_bins = _scan_grid(g, ell, z_max)
    w_cum = np.cumsum(w_bins)
    aj_cum = np.cumsum(aj_bins, axis=1)
    ars_cum = np.cumsum(ars_bins, axis=1)
    out = []
    for z in range(2, z_max + 1):
        out.append(
            _diag_from_values(
                g,
                ell,
                z,
                float(w_cum[z - 1]),
                aj_cum[:, z - 1].tolist(),
                ars_cum[:, z - 1].tolist(),
            )
        )
    return out
