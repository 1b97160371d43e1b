"""Counters for primes whose shifts carry a large prime factor.

Single-prime counters threshold P+(p-1) against p^theta or x^theta; the
k-tuple counter tallies ordered prime tuples (repeats allowed) whose
shifted gcd has a large prime factor. Its two routes, a brute-force one
over all primes and a fast one keyed on the large prime r of the gcd,
share one walk over multisets weighted by their orderings. Every
qualifying tuple is found at exactly one r (the largest prime factor of
its gcd is unique), so the two routes must agree exactly.

Theta enters only as a reduced fraction, so every threshold has one exact
answer, the integer power test r**den >= n**num. T and Tc compare logs in
float64 and fall back to that test inside a margin around the boundary, so
each of their counts equals the exact test's count; every other threshold
is decided by the integer test or an exact integer cutoff.
"""

from __future__ import annotations

import math
import re
import sys
import weakref
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .core_primes import _expand, build_spf, factorize, floor_root, primes_in, primes_in_class
from .errors import ArgumentError, RangeError

__all__ = [
    "Theta",
    "threshold_test",
    "large_factor_count",
    "large_factor_count_fixed",
    "smooth_shift_count",
    "single_prime_counts",
    "tuple_count_oracle",
    "tuple_count_fast",
    "tuple_sieve_limit",
    "oracle_qualifying_products",
]

_THETA_RE = re.compile(r"\s*(\d+)\s*/\s*(\d+)\s*\Z")
THETA_DEN_CEILING = 10**4  # exact thresholds raise to the power den: cost grows with it


@dataclass(frozen=True)
class Theta:
    """A rational exponent theta = num/den in (0, 1), kept reduced, den <= THETA_DEN_CEILING."""

    num: int
    den: int

    def __post_init__(self):
        if self.den < 1 or self.num < 1:
            raise ArgumentError(
                f"theta needs a positive numerator and denominator, got {self.num}/{self.den}"
            )
        g = math.gcd(self.num, self.den)
        object.__setattr__(self, "num", self.num // g)
        object.__setattr__(self, "den", self.den // g)
        if self.num >= self.den:
            raise ArgumentError(f"theta must lie in (0, 1), got {self.num}/{self.den}")
        if self.den > THETA_DEN_CEILING:
            raise RangeError(f"theta denominator {self.den} exceeds ceiling {THETA_DEN_CEILING}")

    @property
    def as_real(self) -> float:
        return self.num / self.den

    @classmethod
    def parse(cls, text: str) -> "Theta":
        m = _THETA_RE.match(text)
        if not m:
            raise ArgumentError(f"theta must be given as 'a/b', got {text!r}")
        try:
            return cls(*map(int, m.groups()))
        except ValueError:  # past Python's limit on the digits int() converts
            raise RangeError(f"theta terms are limited to {sys.get_int_max_str_digits()} digits") from None

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"


def threshold_test(r: int, n: int, theta: Theta) -> bool:
    """True iff r >= n**theta, decided exactly as r**den >= n**num."""
    return r ** theta.den >= n ** theta.num


# ---------------------------------------------------------------------------
# Greatest prime factors by blocks; one blockwise pass answers T, T' and Tc.
# ---------------------------------------------------------------------------

_BLOCK = 1 << 17  # integers m = (p - 1) / 2 per block of the single-prime pass

# cache -> {(x, theta): (T, T', Tc)}; a few ints per entry, nothing that grows with pi(x)
_COUNTS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


class _GpfPlan:
    """What _gpf_block reuses across a pass of blocks of at most `size` integers below `end`.

    `small` holds the primes up to at least isqrt(end - 1), ascending; those
    up to isqrt(end - 1) are used. A prime q <= isqrt(size) is dense: it and
    its powers shorter than a block are strided writes. Every other power
    q^e < end has at most ceil(size / q^e) multiples in a block, at offsets
    k * q^e from its first: those offsets are listed once here, so a block
    places them all with one repeat of each power's first multiple and one
    add, and applies them with one maximum.at on `top` and one multiply.at
    on `smooth` (which, unlike a fancy-indexed update, applies two entries
    that hit the same n). Positions past the block land on its spare slot,
    the entry after its last. `top` and `smooth` are allocated once, with
    that slot.
    """

    def __init__(self, small: np.ndarray, size: int, end: int):
        qs = small[: np.searchsorted(small, math.isqrt(end - 1), side="right")]
        # every power q^e < end, level by level in e
        base = qe = qs
        bases, powers = [base], [qe]
        while len(qe):
            more = qe <= (end - 1) // base  # q^(e+1) < end
            base = base[more]
            qe = qe[more] * base
            bases.append(base)
            powers.append(qe)
        base, qe = np.concatenate(bases), np.concatenate(powers)
        dense = (base <= math.isqrt(size)) & (qe < size)
        self.dense = [
            (q, qe[dense & (base == q)].tolist())
            for q in qs[: np.searchsorted(qs, math.isqrt(size), side="right")].tolist()
        ]
        self.powers = qe[~dense]
        self.reps = -(-size // self.powers)  # ceil(size / q^e) multiples at most
        # k * q^e for k < reps, power by power: offsets from each power's first multiple
        owner, rank = _expand(self.reps)
        self.step = rank * self.powers[owner]
        self.base = base[~dense][owner]
        self.base32 = self.base.astype(np.int32)
        self.top = np.empty(size + 1, dtype=np.int32)
        self.smooth = np.empty(size + 1, dtype=np.int64)


def _gpf_block(ns: np.ndarray, plan: _GpfPlan) -> np.ndarray:
    """P+(n) for each n of the ascending int64 array ns (ns[0] >= 1) as int64; P+(1) = 1.

    The block is lo <= n < hi with lo = ns[0], hi = ns[-1] + 1, and `plan`
    is its pass's _GpfPlan (its size at least hi - lo, its end at least hi,
    so it holds the primes up to isqrt(hi - 1)). Each such prime q puts
    itself at its multiples in `top`, which keeps the largest, and `smooth`
    is multiplied by q at the multiples of every power q^e < hi, leaving in
    it the part of n made of those primes. The cofactor n // smooth, taken
    only at ns, has no prime factor <= isqrt(n), so it is 1 or the prime
    P+(n). No value read exceeds n, so nothing read overflows (the spare
    slot of `smooth` may wrap, and is never read); q <= isqrt(hi) < 2**31
    below SIEVE_CEILING, so `top` fits int32.
    """
    lo, hi = int(ns[0]), int(ns[-1]) + 1
    size = hi - lo
    top, smooth = plan.top[: size + 1], plan.smooth[: size + 1]
    top.fill(1)
    smooth.fill(1)
    for q, qes in plan.dense:  # ascending, so the largest q wins in `top`
        top[-lo % q : size : q] = q
        for qe in qes:
            part = smooth[-lo % qe : size : qe]
            part *= q  # on the view: `smooth[...] *= q` would also copy it back
    pos = np.repeat(-lo % plan.powers, plan.reps)
    pos += plan.step
    np.minimum(pos, size, out=pos)
    np.maximum.at(top, pos, plan.base32)
    np.multiply.at(smooth, pos, plan.base)
    at = ns - lo
    cof = ns // smooth[at]
    return np.where(cof > 1, cof, top[at])


def _shift_gpf_blocks(cache, x: int):
    """Yield (ps, rs) block by block over the primes p <= x: rs = P+(p - 1), both int64.

    Blocks run over m = (p - 1) / 2 in steps of _BLOCK from m = 1; the block
    from m = lo reads only its own primes, 2*lo - 1 < p <= 2*(lo + _BLOCK) - 1,
    through `primes_in`. For odd p, P+(p - 1) = max(2, P+(m)); p = 2 rides in
    the first block with P+(1) = 1. Only the block, the primes up to
    isqrt(m) and the pass's _GpfPlan are held; a block holding no prime is
    skipped.
    """
    m_top = max((x - 1) // 2, 1)  # the largest m of an odd p <= x
    plan = _GpfPlan(primes_in(cache, 0, math.isqrt(m_top)), min(_BLOCK, m_top), m_top + 1)
    for lo in range(1, x // 2 + 1, _BLOCK):  # 2*lo - 1 < x
        ps = primes_in(cache, 2 * lo - 1, min(2 * (lo + _BLOCK) - 1, x))
        if len(ps):
            rs = np.maximum(_gpf_block(ps >> 1, plan), 2)  # p = 2 has m = 1 too
            if ps[0] == 2:
                rs[0] = 1
            yield ps, rs


def _count_threshold(rs: np.ndarray, ns: np.ndarray, theta: Theta) -> tuple:
    """(#{rs >= ns**theta}, #{rs <= ns**theta}) over aligned arrays, from one log evaluation.

    A log comparison settles all pairs far from the boundary; near-boundary
    pairs fall back to the exact integer power test, so each count matches
    testing every pair exactly. The boundary margin scales with the log
    magnitudes (float error does too), with ~100x headroom over worst-case
    rounding. The two counts are decided separately: a pair on the
    boundary itself counts in both.
    """
    left = theta.den * np.log(rs.astype(np.float64))
    right = theta.num * np.log(ns.astype(np.float64))
    margin = 1e-13 * (np.abs(left) + np.abs(right)) + 1e-12
    t = left - right
    ge = int(np.count_nonzero(t > margin))
    le = int(np.count_nonzero(t < -margin))
    for i in np.flatnonzero(np.abs(t) <= margin).tolist():
        lhs = int(rs[i]) ** theta.den
        rhs = int(ns[i]) ** theta.num
        ge += lhs >= rhs
        le += lhs <= rhs
    return ge, le


def _count_pass(cache, theta: Theta, xs: list) -> list:
    """(T, T', Tc) at each x of the ascending list xs, in one pass of _shift_gpf_blocks.

    T and Tc run on across the checkpoints; T' keeps one running count per
    x, as its cutoff depends on x (see large_factor_count_fixed). A
    checkpoint inside a block splits it there.
    """
    # r > cutoff iff r**den >= x**num; x < 1 has no primes, so any cutoff serves
    cutoffs = np.array([floor_root(max(x, 1) ** theta.num - 1, theta.den) for x in xs])
    t = tc = k = 0  # k: the first checkpoint not yet reached
    tp = np.zeros(len(xs), dtype=np.int64)
    out = []
    for ps, rs in _shift_gpf_blocks(cache, xs[-1]):
        start = 0
        while k < len(xs) and xs[k] < ps[-1]:
            j = int(np.searchsorted(ps, xs[k], side="right"))
            ge, le = _count_threshold(rs[start:j], ps[start:j], theta)
            t, tc, start = t + ge, tc + le, j
            out.append((t, int(tp[k] + np.count_nonzero(rs[:j] > cutoffs[k])), tc))
            k += 1
        ge, le = _count_threshold(rs[start:], ps[start:], theta)
        t, tc = t + ge, tc + le
        tp[k:] += [np.count_nonzero(rs > c) for c in cutoffs[k:]]
    return out + [(t, int(c), tc) for c in tp[k:]]


def single_prime_counts(cache, theta: Theta, x_grid) -> list:
    """(T, T', Tc) at each x of x_grid, from one blockwise pass to the largest x not yet counted.

    T = #{p <= x : P+(p-1) >= p**theta}, T' = #{p <= x : P+(p-1) >= x**theta}
    and Tc = #{p <= x : P+(p-1) <= p**theta}. Each block of the pass gets
    P+(p - 1) from _gpf_block, evaluates the threshold once for T and Tc,
    counts T' against exact integer cutoffs, and is dropped: nothing held
    grows with pi(x). The counts are memoized per cache by (x, theta), so
    after the first of the three counters the other two are lookups.

    T + Tc = pi(x) holds exactly (P+(p-1)**den = p**num has no solution, as
    P+(p-1) < p), and it is a check between two routes: T and Tc are
    decided separately, pi(x) comes only from `prime_count`, and neither
    count may ever be taken as pi minus the other.
    """
    memo = _COUNTS.setdefault(cache, {})
    todo = sorted({int(x) for x in x_grid if (int(x), theta) not in memo})
    if todo:
        cache._check(todo[-1])  # before a cutoff raises some x past the limit to a power
        for x, counts in zip(todo, _count_pass(cache, theta, todo)):
            memo[x, theta] = counts
    return [memo[int(x), theta] for x in x_grid]


def large_factor_count(cache, x: int, theta: Theta) -> int:
    """#{p <= x : P+(p-1) >= p**theta}."""
    return single_prime_counts(cache, theta, [x])[0][0]


def large_factor_count_fixed(cache, x: int, theta: Theta) -> int:
    """#{p <= x : P+(p-1) >= x**theta} (threshold fixed at x).

    r**den >= x**num iff r exceeds the largest n with n**den <= x**num - 1,
    an exact integer cutoff.
    """
    return single_prime_counts(cache, theta, [x])[0][1]


def smooth_shift_count(cache, x: int, theta: Theta) -> int:
    """#{p <= x : P+(p-1) <= p**theta} (smooth shifted primes)."""
    return single_prime_counts(cache, theta, [x])[0][2]


# ---------------------------------------------------------------------------
# k-tuple counters.
# ---------------------------------------------------------------------------

ORACLE_NODE_BUDGET = 10**9  # multisets (leaves of _walk) the oracle may test before it gives up


def _walk(qs: list, k: int, cap: int, leaf) -> None:
    """Call leaf(prod, g, w) once per multiset of k members of qs with product <= cap.

    qs ascends and members are taken nondecreasing, so a branch stops at the
    first q with prod * q**(members left) > cap. g is the gcd of the shifts
    q - 1; w = k! / prod m_i! counts the orderings (m_i the multiplicities),
    and a member of multiplicity m added at depth d takes w to w(d + 1)/m.
    Each branch taken ends in a leaf, so leaves bound the work.
    """

    def extend(start: int, prod: int, g: int, w: int, m: int, depth: int):
        if depth + 1 == k:  # the last member: every q from qs[start] to cap // prod
            for i in range(start, bisect_right(qs, cap // prod, start)):
                q = qs[i]
                leaf(prod * q, math.gcd(g, q - 1), w * k // (m + 1 if i == start else 1))
            return
        for i in range(start, len(qs)):
            q = qs[i]
            if prod * q ** (k - depth) > cap:
                break
            m_q = m + 1 if i == start else 1
            extend(i, prod * q, math.gcd(g, q - 1), w * (depth + 1) // m_q, m_q, depth + 1)

    extend(0, 1, 0, 1, 0, 0)


def tuple_sieve_limit(x: int, k: int) -> int:
    """The sieve limit the tuple counters need at (x, k): x // 2**(k - 1).

    In a k-tuple of primes with product <= x, each member is at most x over
    the product of the other k - 1, each >= 2. The oracle reads every prime
    up to there; the fast route reads less. Raises ArgumentError for k < 2
    before anything is sized.
    """
    if k < 2:
        raise ArgumentError(f"tuple counters need k >= 2, got {k}")
    return max(x, 0) >> (k - 1)


def oracle_qualifying_products(cache, x: int, k: int, theta: Theta) -> list:
    """Products of all qualifying tuples, one entry per ordered tuple.

    Brute-force reference: _walk every multiset of primes with product <= x,
    test P+(gcd of the shifts) from its own factorizer table, sharing no code
    with the fast route's `_gpf_block`, and list a qualifying product once
    per ordering. Intended for modest x; ORACLE_NODE_BUDGET makes runaway
    enumerations fail loudly instead of hanging.
    """
    cache._check(tuple_sieve_limit(x, k))
    if max(x, 0).bit_length() <= k:  # x < 2^k: no k primes have a product below it
        return []
    ps = primes_in(cache, 0, x >> (k - 1)).tolist()
    spf = build_spf(max(math.isqrt(x), 2))  # a gcd lies below x**(1/k), as in the fast route
    gpf = [0, 1] + [factorize(n, spf)[-1][0] for n in range(2, len(spf))]  # P+(1) = 1
    out = []
    budget = ORACLE_NODE_BUDGET

    def leaf(prod: int, g: int, w: int):
        nonlocal budget
        budget -= 1
        if budget < 0:
            raise RangeError("tuple enumeration exceeded the node budget")
        if threshold_test(gpf[g], prod, theta):
            out.extend([prod] * w)

    _walk(ps, k, x, leaf)
    return out


def tuple_count_oracle(cache, x: int, k: int, theta: Theta) -> int:
    """Brute-force count of qualifying k-tuples (ordered, repeats allowed)."""
    return len(oracle_qualifying_products(cache, x, k, theta))


def _fast_count_for_r(cache, x: int, k: int, theta: Theta, gpf, r: int) -> int:
    # The largest n <= x passing the threshold at r: n**num <= r**den.
    n_cap = floor_root(min(r**theta.den, x**theta.num), theta.num)
    # Members are primes = 1 (mod r), each >= r + 1, so none exceeds n_cap // (r + 1)**(k - 1).
    qs = primes_in_class(cache, n_cap // (r + 1) ** (k - 1), r).tolist()
    count = 0

    def leaf(prod: int, g: int, w: int):
        nonlocal count
        count += w if gpf[g] == r else 0

    _walk(qs, k, n_cap, leaf)
    return count


def tuple_count_fast(cache, x: int, k: int, theta: Theta) -> int:
    """Same count as tuple_count_oracle, via an enumeration keyed on r = P+(gcd).

    For each prime r <= x**(1/k), tuples are drawn from primes q = 1 (mod r)
    with product capped at the largest n passing the threshold at r; a tuple
    is counted only when r is exactly the largest prime factor of the shifted
    gcd, so each qualifying tuple is counted exactly once. Tuples are
    counted, not listed: nothing held grows with their number.
    """
    cache._check(tuple_sieve_limit(x, k))
    if max(x, 0).bit_length() <= k:  # x < 2^k, as in the oracle
        return 0
    # A tuple's shifted gcd is below its smallest member, at most x**(1/k), so P+ that
    # far covers every lookup; a list, as the walk reads it entry by entry (gpf[0] unread).
    n = floor_root(x, k)
    plan = _GpfPlan(primes_in(cache, 0, math.isqrt(n)), n, n + 1)
    gpf = [0] + _gpf_block(np.arange(1, n + 1), plan).tolist()
    rs = primes_in(cache, 0, n).tolist()
    return sum(_fast_count_for_r(cache, x, k, theta, gpf, r) for r in rs)
