"""Weighted sums over increasing tuples with local factors (1 + 1/p)^ell.

The central object is the sum over 1 < h_1 < ... < h_g < z of
1/(h_1...h_g) times the product of (1 + 1/p)^ell over the distinct primes
p dividing E = h_1...h_g * prod_{i<j}(h_j - h_i). Alongside it live the
moment sums that bound it through the Hoelder inequality, and the exact
Mobius-expansion identity used to sum the single-variable weights.

Per-integer tables make each tuple cheap: F[h] = prod_{p|h}(1 + 1/p), a
12-bit mask of the primes <= 37 dividing h, and the primes > 37 dividing h.
One scan serves every sum: it loops over the outer prefixes
(h_1, ..., h_{g-2}) and covers the last two coordinates (a, b) as blocks.
There the small primes come from one table lookup on the OR of three
masks, the larger primes from a rank-1 product of row and column factors
times a Toeplitz factor in b - a, and a sparse correction removes the few
larger primes that product counts twice; `_scan_grid` carries the
argument. The factor for a union of prime sets is assembled from these
tables with the primes already counted divided out, never by refactoring
E, and no element of E or table index reaches 2 z, so nothing overflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import List

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core_primes import _expand, _simple_bool_sieve, factorize
from .errors import ArgumentError, RangeError, VerificationError

__all__ = [
    "HolderDiagnostics",
    "weighted_tuple_sum",
    "weighted_tuple_sum_grid",
    "mobius_expansion_check",
    "holder_verify",
    "holder_grid",
    "tuple_budget",
]

TUPLE_BUDGET = 10**9
Z_CEILING = 10**7  # largest z the scan accepts: its per-integer tables are O(z)
SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)  # one mask bit each
_BLOCK = 1 << 15  # entries per row block of the (h_{g-1}, h_g) scan


def tuple_budget(g: int, z: int) -> int:
    """Number of increasing g-tuples drawn from 1 < h < z, or a lower bound on it past TUPLE_BUDGET.

    comb(n, i + 1) = comb(n, i) * (n - i) // (i + 1) rises with i up to
    min(g, n - g) <= n / 2, where it is comb(n, g); the steps stop once it
    passes TUPLE_BUDGET, so a count of any size costs a few steps.
    """
    n = max(z - 2, 0)
    if g > n:
        return 0
    count = 1
    for i in range(min(g, n - g)):
        if count > TUPLE_BUDGET:
            break
        count = count * (n - i) // (i + 1)
    return count


def _factor_table(z: int) -> np.ndarray:
    """F[h] = prod_{p|h}(1+1/p) for 0 <= h < z."""
    f = np.ones(max(z, 2))
    for p in np.flatnonzero(_simple_bool_sieve(len(f) - 1)).tolist():
        f[p::p] *= 1.0 + 1.0 / p
    return f


def _scan(g: int, ell: int, z: int, *, moments: bool = True):
    """_scan_grid's bins, once the arguments pass and if F^ell stays inside float64.

    Past float64 a factor, sum or moment turns inf or nan, and a nan passes
    no comparison, so such a query raises RangeError. The Hoelder bound is a
    product of G G-th roots of the G moments, so it stays finite with them.
    """
    if g < 1 or ell < 1:
        raise ArgumentError(f"need g >= 1 and ell >= 1, got g={g}, ell={ell}")
    if z < 2:
        raise ArgumentError(f"need z >= 2, got z={z}")
    if z > Z_CEILING:
        raise RangeError(f"z={z} exceeds ceiling {Z_CEILING}")
    visits = tuple_budget(g, z)
    if visits > TUPLE_BUDGET:
        raise RangeError(
            f"(g={g}, z={z}) needs at least {visits:.3g} tuple visits; budget {TUPLE_BUDGET:.0e}"
        )
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            bins = _scan_grid(g, ell, z, moments=moments)
            finite = all(np.isfinite(np.sum(b, axis=-1)).all() for b in bins)
    except OverflowError:  # a Python float power past float64
        finite = False
    if not finite:
        raise RangeError(f"(g={g}, ell={ell}, z={z}): the sum or a moment overflows float64")
    return bins


def _without_primes(f: np.ndarray, ps) -> tuple:
    """(prod_{p in ps}(1+1/p), a copy of f with every p in ps divided out)."""
    f_rest = f.copy()
    f_ps = 1.0
    for p in ps:
        f_rest[p::p] /= 1.0 + 1.0 / p
        f_ps *= 1.0 + 1.0 / p
    return f_ps, f_rest


def _prime_tables(z: int) -> tuple:
    """(mask, indptr, large): the primes of every 0 <= n < z, built with numpy.

    Bit i of mask[n] is set iff SMALL_PRIMES[i] divides n; the primes > 37
    dividing n are large[indptr[n]:indptr[n + 1]], ascending (CSR).
    """
    z = max(z, 2)
    mask = np.zeros(z, dtype=np.intp)
    for bit, p in enumerate(SMALL_PRIMES):
        mask[p::p] |= 1 << bit
    ps = np.flatnonzero(_simple_bool_sieve(z - 1))
    ps = ps[ps > SMALL_PRIMES[-1]]
    which, rank = _expand((z - 1) // ps)  # the multiples of each p in 1..z - 1
    p_rep = ps[which]
    n = p_rep * (rank + 1)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(n, minlength=z))])
    return mask, indptr, p_rep[np.argsort(n, kind="stable")]


def _scan_grid(g: int, ell: int, z_max: int, *, moments: bool = True):
    """One enumeration of all tuples with h_g < z_max, binned by h_g.

    Returns (w_bins, aj_bins, ars_bins): each bins[h] sums the contributions
    of tuples whose largest coordinate is h, so cumulative sums over h < z
    recover every quantity on the full z grid at once. aj_bins has g rows;
    ars_bins has one row per h_r - h_s, pairs s < r in lexicographic order.
    Moment weights use the exponent ell * G with G = comb(g + 1, 2). With
    moments=False the moment bins stay zero.

    The loop runs over outer prefixes O = (h_1, ..., h_{g-2}) (one empty O
    when g = 2; g = 1 is one vector line) and covers the pairs
    (a, b) = (h_{g-1}, h_g) in row blocks of about _BLOCK entries. With
    X = (0, *O), the elements of E are O's own elements, the row elements
    a - x, the column elements b - x (x in X) and b - a. F(E) factors as:

    - primes <= 37: W[mask_row[a] | mask_col[b] | mask[b - a]] from a
      2^12-entry table, where the row mask also carries O's small primes;
    - O's primes > 37: a constant, divided out of fy = F over the primes
      > 37 by `_without_primes`, leaving fyr;
    - every other prime > 37: the rank-1 product rowfac[a] * colfac[b],
      rowfac[a] = prod_x fyr[a - x] and colfac[b] = prod_x fyr[b - x],
      times the Toeplitz factor fyr[b - a];
    - a sparse correction for the primes that product counts twice.

    Completeness of the correction: let p > 37 divide no element of O. It
    divides at most one a - x (else p | x - x', an element of O), at most
    one b - x, and p | b - a together with one of p | a - x, p | b - x
    forces the other. So the elements p divides are {a - x}, {b - x'},
    {b - a}, {a - x, b - x'} with x != x' (p does not divide
    b - a = (x' - x) mod p), or {a - x, b - x, b - a}. The rank-1 product
    counts each once except the last two, counted 2 and 3 times; both are
    exactly the pairs with a = x (mod p) and b = x' (mod p), which are
    enumerated per O by index arithmetic and divided by (1 + 1/p) once,
    or twice when x = x'. A prime dividing O and a new element is counted
    once, in O's constant, because it was divided out of fyr, including its
    Toeplitz view.

    w_bins is one matvec inv_a @ fac**ell per block. Each moment row
    depends on O alone, on a, on b, or on b - a, so it is a cumulative sum
    over a or one convolution; no per-tuple gather is made. No kernel
    product is formed: every element of E is below z_max, every table index
    below 2 z_max and every block offset below max(_BLOCK, z_max), so
    nothing can overflow int64.
    """
    z = z_max
    inv_h = 1.0 / np.maximum(np.arange(z), 1)
    # the elements of E as x[hi] - x[lo] with x = (0, h_1, ..., h_g): the g
    # coordinates, then the differences in lexicographic (s, r) order; one
    # moment row each
    pairs = [(r + 1, s + 1) for s, r in combinations(range(g), 2)]
    hi, lo = np.array([(j + 1, 0) for j in range(g)] + pairs).T
    w_bins = np.zeros(z)
    m_bins = np.zeros((len(hi), z))
    if g == 1:  # G = 1: w and the one moment row are the same line
        w_bins[2:] = _factor_table(z)[2:] ** ell * inv_h[2:]
        if moments:
            m_bins[0] = w_bins
        return w_bins, m_bins[:1], m_bins[1:]
    if moments:
        f_ellg = _factor_table(z) ** (ell * comb(g + 1, 2))
    mask, indptr, large = _prime_tables(z)
    fy = np.ones(z)
    np.multiply.at(fy, np.repeat(np.arange(z), np.diff(indptr)), 1.0 + 1.0 / large)
    bits = np.arange(1 << len(SMALL_PRIMES))
    w_small = np.ones(len(bits))
    for bit, p in enumerate(SMALL_PRIMES):
        w_small[(bits >> bit) & 1 == 1] *= 1.0 + 1.0 / p
    w_small **= ell
    # Toeplitz sources: entry z + d holds the value at d = b - a; d <= 0 reads
    # the zero padding, so block entries with b <= a add nothing
    mask_toe = sliding_window_view(np.concatenate([np.zeros(z + 1, np.intp), mask[1:]]), z - 1)
    fyr_ell = np.zeros(2 * z)
    toe = sliding_window_view(fyr_ell, z - 1)
    # one pair of buffers serves every block: rows * width <= max(_BLOCK, z)
    mask_buf, blk_buf = np.empty(max(_BLOCK, z), np.intp), np.empty(max(_BLOCK, z))
    # moment rows by what they read: O's elements, a - x, b - x; b - a is last
    o_rows = np.flatnonzero(hi <= g - 2)
    a_rows = np.flatnonzero(hi == g - 1)
    b_rows = np.flatnonzero((hi == g) & (lo <= g - 2))
    for outer in combinations(range(2, z - 2), g - 2):
        xs = np.array((0, *outer))
        c = outer[-1] if outer else 1  # a runs over c < a < z - 1, b over a < b < z
        if c + 2 >= z:  # g = 2 and z <= 3: no pair
            continue
        o_elems = (xs[hi[o_rows]] - xs[lo[o_rows]]).tolist()
        ps_o = sorted({p for e in o_elems for p in large[indptr[e] : indptr[e + 1]].tolist()})
        f_o, fyr = _without_primes(fy, ps_o)
        # line i holds the elements a - xs[i] for a = c + 1 .. z - 2; plus 1,
        # they are the elements b - xs[i] for b = a + 1
        elems = np.arange(c + 1, z - 1) - xs[:, None]
        mask_row = np.bitwise_or.reduce(mask[elems], axis=0) | np.bitwise_or.reduce(mask[o_elems])
        mask_col = np.bitwise_or.reduce(mask[elems + 1], axis=0)
        vec = inv_h[c + 1 : z - 1] * fyr[elems].prod(axis=0) ** ell
        fyr_ell[z + 1 :] = fyr[1:] ** ell
        corr = _corrections(xs, elems, z, ell, indptr, large, ps_o)
        acc = np.zeros(z)
        a0 = c + 1
        while a0 < z - 1:
            # row i <-> a = a0 + i, column j <-> b = a0 + 1 + j, b - a = 1 + j - i
            width = z - 1 - a0
            a1 = min(a0 + max(_BLOCK // width, 1), z - 1)
            diag = slice(z + 2 - (a1 - a0), z + 2)
            m = mask_buf[: (a1 - a0) * width].reshape(-1, width)
            np.bitwise_or(mask_toe[diag, :width][::-1], mask_col[a0 - c - 1 :], out=m)
            m |= mask_row[a0 - c - 1 : a1 - c - 1, None]
            blk = np.take(w_small, m, out=blk_buf[: m.size].reshape(m.shape), mode="clip")
            blk *= toe[diag, :width][::-1]
            _correct(blk, a0, corr)
            acc[a0 + 1 :] += vec[a0 - c - 1 : a1 - c - 1] @ blk
            a0 = a1
        scale = inv_h[c + 2 :] / math.prod(outer)
        w_bins[c + 2 :] += acc[c + 2 :] * fyr[elems + 1].prod(axis=0) ** ell * scale * f_o**ell
        if moments:
            inv_a = inv_h[c + 1 : z - 1]
            below = np.cumsum(inv_a) * scale  # at b: the sum of 1/a over c < a < b
            m_bins[o_rows, c + 2 :] += np.outer(f_ellg[o_elems], below)
            m_bins[a_rows, c + 2 :] += np.cumsum(f_ellg[elems[lo[a_rows]]] * inv_a, axis=1) * scale
            m_bins[b_rows, c + 2 :] += f_ellg[elems[lo[b_rows]] + 1] * below
            m_bins[-1, c + 2 :] += np.convolve(inv_a, f_ellg[1 : z - c - 1])[: z - c - 2] * scale
    return w_bins, m_bins[:g], m_bins[g:]


def _corrections(xs, elems, z, ell, indptr, large, ps_o) -> tuple:
    """The pairs one outer prefix must correct, as progressions sorted by row.

    elems[i] holds the row elements a - xs[i]. Entry k covers row a[k] and
    the columns b = first[k] + j * step[k], 0 <= j < count[k], each to be
    multiplied by factor[k]. Together they are the pairs a < b < z with a
    prime p > 37 outside ps_o dividing some a - x and some b - x'
    (x, x' in xs): step p, factor (1 + 1/p)^-ell, squared when x = x'.
    """
    n = elems.ravel()
    at, rank = _expand(indptr[n + 1] - indptr[n])
    p = large[indptr[n][at] + rank]
    if ps_o:
        keep = ~np.isin(p, ps_o)
        at, p = at[keep], p[keep]
    if not len(at):
        return (at,) * 5
    line, col = np.divmod(at, elems.shape[1])
    order = np.argsort(col, kind="stable")
    # xs[0] = 0, so elems[0] holds the rows a themselves
    a, p, x = (np.repeat(v[order], len(xs)) for v in (elems[0][col], p, xs[line]))
    x_col = np.tile(xs, len(order))
    first = x_col + ((a - x_col) // p + 1) * p  # the least b > a with b = x' (mod p)
    count = np.maximum((z - 1 - first) // p + 1, 0)
    factor = (p / (p + 1.0)) ** (ell * np.where(x == x_col, 2, 1))
    return a, first, p, count, factor


def _correct(blk: np.ndarray, a0: int, corr: tuple) -> None:
    """Apply the corrections of rows a0 .. a0 + len(blk) - 1 to a block whose
    column j is b = a0 + 1 + j."""
    a, first, step, count, factor = corr
    k0, k1 = np.searchsorted(a, (a0, a0 + len(blk)))
    if k0 == k1:
        return
    k, j = _expand(count[k0:k1])
    k += k0
    b = first[k] + step[k] * j
    np.multiply.at(blk.ravel(), (a[k] - a0) * blk.shape[1] + b - a0 - 1, factor[k])


def weighted_tuple_sum(g: int, ell: int, z: int) -> float:
    """Sum over 1 < h_1 < ... < h_g < z of (h_1...h_g)^-1 prod_{p|E}(1+1/p)^ell."""
    w_bins, _, _ = _scan(g, ell, z, moments=False)
    return math.fsum(w_bins.tolist())


def weighted_tuple_sum_grid(g: int, ell: int, z_max: int) -> np.ndarray:
    """weighted_tuple_sum(g, ell, z) for every z in 0..z_max from one enumeration.

    Entry z holds the sum over tuples with h_g < z (entries 0..2 are 0).
    """
    w_bins, _, _ = _scan(g, ell, z_max, moments=False)
    return np.concatenate([[0.0], np.cumsum(w_bins)[: z_max]])


def mobius_expansion_check(h: int, l_param: int):
    """Both sides of prod_{p|h}(1 + L/p) = sum_{d|h} mu^2(d) L^omega(d) / d.

    Returned as exact rationals; integers are arbitrary precision so no
    overflow is possible. Both sides share the denominator rad(h).
    """
    if h < 2:
        raise ArgumentError(f"need h >= 2, got {h}")
    ps = [p for p, _ in factorize(h)]
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
        if not self.w_value <= self.holder_bound * (1.0 + 1e-9):  # a nan fails too
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
    w_bins, aj_bins, ars_bins = _scan(g, ell, z)
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
    w_bins, aj_bins, ars_bins = _scan(g, ell, z_max)
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
