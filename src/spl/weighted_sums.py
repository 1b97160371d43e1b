"""Weighted sums over increasing tuples with local factors (1 + 1/p)^ell.

The central object is the sum over 1 < h_1 < ... < h_g < z of
1/(h_1...h_g) times the product of (1 + 1/p)^ell over the distinct primes
p dividing E = h_1...h_g * prod_{i<j}(h_j - h_i). Alongside it live the
moment sums that bound it through the Hoelder inequality, and the exact
Mobius-expansion identity used to sum the single-variable weights.

Per-integer tables make each tuple cheap: F[h] = prod_{p|h}(1 + 1/p), a
12-bit mask of the primes <= 37 dividing h, and the primes > 37 dividing h.
One scan serves every sum: it stacks the outer prefixes
(h_1, ..., h_{g-2}) in batches and covers each batch's last two
coordinates (a, b) as boxes. There the small primes come from one table
lookup on the OR of three masks, the larger primes from a row times a
column factor times a Toeplitz factor in b - a, and a sparse correction
fixes the few larger primes that product miscounts; `_scan_grid` carries
the argument. A prefix's own primes are divided out of its tables, never
found by refactoring E, and no element of E or table index reaches 2 z,
so nothing overflows.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice
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
MOMENT_CEILING = 10**7  # most moment bins, G * z, a Hoelder query holds: 80 MB of float64
SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)  # one mask bit each
_BLOCK = 1 << 15  # entries per box of the (h_{g-2}, h_{g-1}, h_g) scan
_BATCH = 1 << 12  # entries of a batch's (prefix, h) tables, and pairs per correction piece


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

    A Hoelder query (moments=True) holds G * z moment bins, 8 bytes each, so
    it is refused past MOMENT_CEILING entries (80 MB) before any is made. A
    query with no tuple, g > z - 2, is answered with zero bins at once.
    Past float64 a factor, sum or moment turns inf or nan, and a nan passes
    no comparison, so such a query raises RangeError. Every term is
    positive, so a sum or moment row of a query with tuples that comes out
    0.0 has underflowed, and raises RangeError too. The Hoelder bound is a
    product of G G-th roots of the G moments, so it stays finite with them.
    A Hoelder query whose L = 2^(G * ell) has more decimal digits than
    Python converts to a string is refused too; its moments overflow unless
    it has no tuple.
    """
    if g < 1 or ell < 1:
        raise ArgumentError(f"need g >= 1 and ell >= 1, got g={g}, ell={ell}")
    if z < 2:
        raise ArgumentError(f"need z >= 2, got z={z}")
    if z > Z_CEILING:
        raise RangeError(f"z={z} exceeds ceiling {Z_CEILING}")
    G = comb(g + 1, 2)
    if moments and G * z > MOMENT_CEILING:
        raise RangeError(
            f"(g={g}, z={z}): its G * z moment bins exceed the ceiling {MOMENT_CEILING:.0e}"
        )
    visits = tuple_budget(g, z)
    if visits > TUPLE_BUDGET:
        raise RangeError(
            f"(g={g}, z={z}) needs at least {visits:.3g} tuple visits; budget {TUPLE_BUDGET:.0e}"
        )
    if not visits:
        bins = np.zeros(z), np.zeros((g * moments, z)), np.zeros(((G - g) * moments, z))
    else:
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                bins = _scan_grid(g, ell, z, moments=moments)
                sums = np.hstack([np.sum(b, axis=-1) for b in bins])
        except OverflowError:  # a Python float power past float64
            sums = np.array([np.inf])
        if not np.isfinite(sums).all():
            raise RangeError(f"(g={g}, ell={ell}, z={z}): the sum or a moment overflows float64")
        if not sums.all():
            raise RangeError(f"(g={g}, ell={ell}, z={z}): the sum or a moment underflows float64 to 0")
    digits = sys.get_int_max_str_digits()
    if moments and digits and G * ell >= (10**digits).bit_length():
        raise RangeError(f"(g={g}, ell={ell}, z={z}): L = 2^(G * ell) has more than {digits} digits")
    return bins


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
    moments=False both moment arrays have no rows.

    Write x = (0, h_1, ..., h_g), the outer prefix O = (h_1, ..., h_{g-2}),
    xs = (x_0, ..., x_{g-2}) and c = x_{g-2} (g = 2: O is empty and c = 0;
    g = 1 is one vector line). `_batches` stacks the prefixes by c; the
    tuples of a batch are its (prefix k, a, b) with c < a < b < z, covered as
    boxes of a run of prefixes, a run of a and every b > a, at most
    max(_BLOCK, z) entries each. The elements of E are O's own x_j - x_i,
    the row elements a - x and column elements b - x (x in xs), and b - a.
    F(E) factors as:

    - primes <= 37: W[mask_row[k, a] | mask_col[k, b] | mask[b - a]] from a
      2^12-entry table, where the row mask also carries O's small primes;
    - O's primes > 37: a constant per prefix;
    - every other prime > 37: the product fac[k, a] * fac[k, b] *
      toe[k, b - a], fy being F over the primes > 37, fac[k, n] =
      prod_x fy[n - x] and toe[k, d] = fy[d], each with O's primes divided
      out (`_prefix_factors`);
    - a sparse correction (`_corrections`) for the primes that product
      counts more than once.

    Completeness of the correction: let p > 37 divide no element of O. It
    divides at most one a - x (else p | x - x', an element of O), at most
    one b - x, and p | b - a together with one of p | a - x, p | b - x
    forces the other. So the elements p divides are {a - x}, {b - x'},
    {b - a}, {a - x, b - x'} with x != x' (p does not divide
    b - a = (x' - x) mod p), or {a - x, b - x, b - a}. The product counts
    each once except the last two, counted 2 and 3 times; both are exactly
    the pairs with a = x (mod p) and b = x' (mod p), which are enumerated
    per prefix by index arithmetic and divided by (1 + 1/p) once, or twice
    when x = x'. A prime of O is in the constant alone, so each prime of E
    is counted once.

    Each box is one batched matrix product: its rows (k, a), weighted by
    fac^ell / (prod(O) a) times the constant, reduce it to one line per
    prefix, weighted by fac^ell at b once the batch is done; a box reads
    mask[b - a] and toe[k, b - a] through Toeplitz views. Each moment row
    depends on O alone, on a, on b, or on b - a, so it is a cumulative sum
    over a or one convolution per batch; no per-tuple gather is made. No
    kernel product is formed: every element of E is below z_max, every
    table index below 2 z_max and every box offset below max(_BLOCK, z_max),
    so nothing can overflow int64.
    """
    z = z_max
    inv_h = 1.0 / np.maximum(np.arange(z), 1)
    if g == 1:  # G = 1: w and the one moment row are the same line
        w_bins = np.zeros(z)
        w_bins[2:] = _factor_table(z)[2:] ** ell * inv_h[2:]
        return w_bins, np.array([w_bins] if moments else np.zeros((0, z))), np.zeros((0, z))
    mask, indptr, large = _prime_tables(z)
    fy = np.ones(z)
    np.multiply.at(fy, np.repeat(np.arange(z), np.diff(indptr)), 1.0 + 1.0 / large)
    bits = np.arange(1 << len(SMALL_PRIMES))
    w_small = np.ones(len(bits))
    for bit, p in enumerate(SMALL_PRIMES):
        w_small[(bits >> bit) & 1 == 1] *= 1.0 + 1.0 / p
    w_small **= ell
    # padded sources: entry z + d holds the value at d and d <= 0 reads zero,
    # so box entries with b <= a, and table entries with n <= c, add nothing
    mask_pad = np.concatenate([np.zeros(z + 1, np.uint16), mask[1:].astype(np.uint16)])
    mask_toe = sliding_window_view(mask_pad, z - 1)
    fy_pad = np.zeros(2 * z)
    fy_pad[z + 1 :] = fy[1:]
    cap = max(_BLOCK, z)
    # one pair of buffers serves every box
    mask_buf, blk_buf = np.empty(cap, np.uint16), np.empty(cap)
    acc = np.zeros(z)
    if moments:
        G = comb(g + 1, 2)
        f_pad = np.zeros(2 * z)
        f_pad[z + 1 :] = _factor_table(z)[1:] ** (ell * G)
        # the elements of E as x[hi] - x[lo]: the g coordinates, then the
        # differences in lexicographic (s, r) order; one moment row each
        pairs = [(r + 1, s + 1) for s, r in combinations(range(g), 2)]
        hi, lo = np.array([(j + 1, 0) for j in range(g)] + pairs).T
        # by what they read: O's elements, a - x_i and b - x_i for
        # i = 0 .. g - 2 in order, and b - a, the last row
        o_rows = np.flatnonzero(hi <= g - 2)
        a_rows = np.flatnonzero(hi == g - 1)
        b_rows = np.flatnonzero((hi == g) & (lo <= g - 2))
        m_acc = np.zeros((G, z))
    for xs in _batches(g, z):
        cs = xs[:, -1]
        n0 = max(cs[0], 1) + 1  # the least a; table column j holds n = n0 + j
        n = np.arange(n0, z)
        inv_o = 1.0 / np.prod(xs[:, 1:].astype(float), axis=1)  # 1 / prod(O)
        o_elems, o_keys, f_o, fac, toe = _prefix_factors(xs, n0, fy_pad, indptr, large)
        fac **= ell
        toe **= ell
        toe_rows = sliding_window_view(toe, len(n) - 1, axis=1)
        vec = fac * inv_h[n0:] * (f_o**ell * inv_o)[:, None]
        mask_col = np.bitwise_or.reduce(mask_pad[z + n - xs[:, :, None]], axis=1)
        mask_row = mask_col | np.bitwise_or.reduce(mask_pad[z + o_elems], axis=1)[:, None]
        # lines[k, j]: the rows of prefix k summed at b = n[j], corrections first
        lines = np.zeros_like(fac)
        corr = _corrections(xs, n0, z, ell, indptr, large, o_keys)
        _correct(lines, corr, vec, mask_row, mask_col, mask_pad, w_small, toe)
        run = max(1, min(len(xs), math.isqrt(cap // len(n))))
        for k0 in range(0, len(xs), run):
            k1 = min(k0 + run, len(xs))
            a0 = max(cs[k0], 1) + 1
            while a0 < z - 1:
                # box: the prefixes k0 .. k1 - 1, a = a0 .. a1 - 1, b = a0 + 1 .. z - 1
                width = z - 1 - a0
                a1 = min(a0 + max(cap // width // (k1 - k0), 1), z - 1)
                rows, cols = slice(a0 - n0, a1 - n0), slice(a0 + 1 - n0, None)
                # row a0 + i, column j of a Toeplitz view in reverse reads d = b - a = 1 + j - i
                span = a1 - a0
                m = mask_buf[: (k1 - k0) * span * width].reshape(k1 - k0, span, width)
                mask_d = mask_toe[z + 2 - span : z + 2, :width][::-1]
                np.bitwise_or(mask_col[k0:k1, None, cols], mask_d, out=m)
                m |= mask_row[k0:k1, rows, None]
                blk = np.take(w_small, m, out=blk_buf[: m.size].reshape(m.shape), mode="clip")
                blk *= toe_rows[k0:k1, len(n) + 2 - span : len(n) + 2, :width][:, ::-1]
                lines[k0:k1, cols] += np.matmul(vec[k0:k1, None, rows], blk)[:, 0]
                a0 = a1
        acc[n0:] += (lines * fac).sum(axis=0)
        if moments:
            # wa[k, j]: the weight 1/(prod(O) a) of row a = n[j] > c
            wa = (n > cs[:, None]) * inv_h[n0:] * inv_o[:, None]
            below = np.zeros_like(wa)  # at b: the sum of wa over c < a < b
            np.cumsum(wa[:, :-1], axis=1, out=below[:, 1:])
            m_acc[o_rows, n0:] += f_pad[z + o_elems].T @ below  # o_elems lists O in row order
            f_x = f_pad[z + n - xs[:, :, None]]  # f at n - x, x in xs
            m_acc[a_rows, n0 + 1 :] += np.cumsum(np.einsum("kxn,kn->xn", f_x, wa), axis=1)[:, :-1]
            m_acc[b_rows, n0:] += np.einsum("kxn,kn->xn", f_x, below)
            m_acc[-1, n0 + 1 :] += np.convolve(wa.sum(axis=0), f_pad[z + 1 : 2 * z - n0])[: len(n) - 1]
    w_bins = acc * inv_h
    if not moments:
        return w_bins, np.zeros((0, z)), np.zeros((0, z))
    m_acc *= inv_h
    return w_bins, m_acc[:g], m_acc[g:]


def _batches(g: int, z: int):
    """The outer prefixes as rows (0, h_1, ..., h_{g-2}) of int arrays, by c = h_{g-2}.

    A batch's prefixes have c >= c_0, its first c, and it holds at most
    max(_BATCH // max(z - 1 - c_0, comb(g - 1, 2)), 1) of them, so its
    tables over (prefix, n), c_0 < n < z, and the comb(g - 1, 2) elements
    of each O stay near _BATCH entries. g = 2 is one batch of the empty
    prefix, the row (0,), whose c is x_0 = 0.
    """
    if g == 2:
        yield np.zeros((1, 1), np.intp)
        return
    rows, room = [], 0
    for c in range(g - 1, z - 2):
        heads = combinations(range(2, c), g - 3)
        while True:
            if not rows:
                room = max(_BATCH // max(z - 1 - c, comb(g - 1, 2)), 1)
            new = np.array(list(islice(heads, room)), np.intp)
            if not len(new):
                break
            rows.append(np.column_stack([np.zeros(len(new), np.intp), new, np.full(len(new), c)]))
            room -= len(new)
            if not room:
                yield np.concatenate(rows)
                rows = []
    if rows:
        yield np.concatenate(rows)


def _prefix_factors(xs, n0, fy_pad, indptr, large) -> tuple:
    """(o_elems, o_keys, f_o, fac, toe) for a batch of prefixes, rows of xs.

    o_elems[k] lists the x_j - x_i, i < j, of xs[k], the elements of O;
    o_keys holds k * z + p, ascending, for each prime p > 37 dividing one
    of them, and f_o[k] is the product of their (1 + 1/p). With N = z - n0,
    fac[k, n - n0] is prod_x fy[n - x] over x in xs[k] (zero where n <= x)
    for n0 <= n < z, and toe[k, N + d] is fy[d] for 0 < d < N (zero for
    d <= 0), each with the primes of O divided out where they divide n - x
    or d: the kernel of O, a product of up to comb(g - 1, 2) elements, is
    never formed. fy_pad holds fy[d] at z + d and 0 for d <= 0.
    """
    z = len(fy_pad) // 2
    n = np.arange(n0, z)
    i, j = np.triu_indices(xs.shape[1], 1)
    o_elems = xs[:, j] - xs[:, i]
    e = o_elems.ravel()
    at, rank = _expand(indptr[e + 1] - indptr[e])
    o_keys = np.unique(at // len(i) * z + large[indptr[e][at] + rank])
    k_o, p_o = np.divmod(o_keys, z)
    f_o = np.ones(len(xs))
    np.multiply.at(f_o, k_o, 1.0 + 1.0 / p_o)
    fac = fy_pad[z + n - xs[:, :, None]].prod(axis=1)
    k_x, p_x = np.repeat(k_o, xs.shape[1]), np.repeat(p_o, xs.shape[1])
    first = n0 + (xs[k_o].ravel() - n0) % p_x
    i, step = _expand(np.maximum((z - 1 - first) // p_x + 1, 0))
    np.multiply.at(fac.ravel(), k_x[i] * len(n) + first[i] - n0 + step * p_x[i], p_x[i] / (p_x[i] + 1.0))
    toe = np.zeros((len(xs), 2 * len(n)))
    toe[:, len(n) + 1 :] = fy_pad[z + 1 : z + len(n)]
    i, step = _expand((len(n) - 1) // p_o)
    at = (2 * k_o[i] + 1) * len(n) + (step + 1) * p_o[i]
    np.multiply.at(toe.ravel(), at, p_o[i] / (p_o[i] + 1.0))
    return o_elems, o_keys, f_o, fac, toe


def _corrections(xs, n0, z, ell, indptr, large, o_keys) -> tuple:
    """The pairs a batch of prefixes must correct, as progressions sorted by row.

    Row k of xs holds prefix k's x_0, ..., x_{g-2}, its last entry c; its
    rows run over c < a < z - 1 (a >= n0), and o_keys holds k * z + p for
    each prime p > 37 of its O. Entry i covers prefix k and row a with
    row[i] = k * (z - n0) + a - n0, its index in the batch's tables, and
    the columns b = a + first[i] + j * step[i], 0 <= j < count[i], each to
    be multiplied by factor[i]. They are the pairs with a prime p > 37
    dividing some a - x and some b - x' (x, x' in xs[k]) but not O, step p
    and factor (1 + 1/p)^-ell, squared when x = x'.
    """
    first_a = np.maximum(xs[:, -1], 1) + 1
    k, rank = _expand(z - 1 - first_a)
    a = first_a[k] + rank
    n = (a[:, None] - xs[k]).ravel()  # the row elements a - x
    at, rank = _expand(indptr[n + 1] - indptr[n])
    p = large[indptr[n][at] + rank]
    i, line = np.divmod(at, xs.shape[1])
    k, a = k[i], a[i]
    keep = ~np.isin(k * z + p, o_keys)
    k, a, p, line = k[keep], a[keep], p[keep], line[keep]
    # every kept (row, x, p) meets each x' of its prefix
    x = np.repeat(xs[k, line], xs.shape[1])
    x_col = xs[k].ravel()
    k, a, p = (np.repeat(v, xs.shape[1]) for v in (k, a, p))
    first = ((a - x_col) // p + 1) * p - (a - x_col)  # the least b - a > 0 with b = x' (mod p)
    count = (z - 1 - a - first) // p + 1
    factor = (p / (p + 1.0)) ** np.where(x == x_col, 2 * ell, ell)
    order = np.flatnonzero(count > 0)
    order = order[np.argsort(k[order] * z + a[order], kind="stable")]
    row = k * (z - n0) + a - n0
    return row[order], first[order], p[order], count[order], factor[order]


def _correct(lines, corr, vec, mask_row, mask_col, mask_pad, w_small, toe) -> None:
    """Add to lines what the corrections change in a batch's boxes.

    With r = row and d = b - a, a box entry of prefix k is v =
    W[mask_row[r] | mask_col[r + d] | mask[d]] times toe[k, N + d], and
    lines[r + d] sums vec[r] * v over the rows (r, r + d flat in the
    batch's (prefix, n) tables, N = z - n0 columns each); a pair the
    corrections reach takes the product f of its factors, so it adds
    vec * v * (f - 1). Pieces of about _BATCH pairs are cut where a row
    starts, since one pair can only repeat within its row.
    """
    row, first, step, count, factor = corr
    if not len(row):
        return
    z = len(mask_pad) // 2
    ends = np.cumsum(count)
    cuts = row[np.searchsorted(ends, np.arange(_BATCH, ends[-1], _BATCH))]
    cuts = np.unique(np.searchsorted(row, cuts)).tolist()
    for i0, i1 in zip([0, *cuts], [*cuts, len(row)]):
        i, j = _expand(count[i0:i1])
        i += i0
        pair = row[i] * z + first[i] + step[i] * j  # row * z + d, below max(_BATCH, z) * z
        order = np.argsort(pair, kind="stable")
        pair = pair[order]
        start = np.flatnonzero(np.concatenate([[True], pair[1:] != pair[:-1]]))
        f = np.multiply.reduceat(factor[i][order], start)
        r, d = np.divmod(pair[start], z)
        v = np.take(w_small, np.take(mask_row, r) | np.take(mask_col, r + d) | mask_pad[z + d])
        toe_d = np.take(toe, r // lines.shape[1] * toe.shape[1] + lines.shape[1] + d)
        v *= toe_d * np.take(vec, r) * (f - 1.0)
        np.add.at(lines.ravel(), r + d, v)


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
