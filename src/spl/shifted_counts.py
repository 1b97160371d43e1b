"""Counters for primes whose shifts carry a large prime factor.

Single-prime counters threshold P+(p-1) against p^theta or x^theta; the
k-tuple counter tallies ordered prime tuples (repeats allowed) whose
shifted gcd has a large prime factor. Its two routes, a brute-force one
over all primes and a fast one keyed on the large prime r of the gcd,
share one walk over multisets weighted by their orderings. Every
qualifying tuple is found at exactly one r (the largest prime factor of
its gcd is unique), so the two routes must agree exactly.

Theta enters only as a reduced fraction, so every threshold has one exact
answer, the integer power test r**den >= n**num. Arrays of pairs go through
one helper, _threshold_masks: it compares logs in float64 and falls back to
that test inside a margin around the boundary, so each mask equals the
exact test. T and Tc settle most of a block by two exact cutoffs first; the
oracle and every cutoff use the helper too; the fast route's cap is an exact
integer root.
"""

from __future__ import annotations

import math
import re
import sys
import weakref
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .core_primes import (
    _WHEEL, _expand, _tile, _wheel, build_spf, factorize, floor_root, primes_in, primes_in_class,
)
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

_BLOCK = 1 << 18  # integers m = (p - 1) / 2 per block of the single-prime pass

# cache -> {(x, theta): (T, T', Tc)}; a few ints per entry, nothing that grows with pi(x)
_COUNTS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


class _GpfPlan:
    """What _gpf_block reuses across a pass of blocks of at most `size` integers below `end`.

    `small` holds the primes up to at least isqrt(end - 1), ascending; the
    odd ones up to isqrt(end - 1) are used. Two kinds of power take no
    write: those of 2, as _gpf_block reads the 2-part of n at n alone, and
    the wheel's capped powers 3**2, 5, 7, 11, 13 (those dividing 45045),
    which the wheel pattern (`core_primes._wheel`, one period shared by
    every plan) gives each block with its `top`. Of the other powers
    q^e < end, those up to isqrt(size) are dense, strided writes (every
    prime q that far, and 27 and 25 among its powers), as is each such q's
    `top` write when q is off the wheel. Every other power has at most
    ceil(size / q^e) multiples in a block, at offsets k * q^e from its
    first: those offsets are listed once here, so a block places them all
    with one repeat of each power's first multiple and one add, and applies
    them with one maximum.at on `top` and one multiply.at on `smooth`
    (which, unlike a fancy-indexed update, applies two entries that hit the
    same n). Positions past the block land on its spare slot, the entry
    after its last. `top` and `smooth` are allocated once, with that slot,
    so a plan holds one block beside the shared period. `smooth` is int32
    when end <= 2**31 and int64 beyond: each entry read divides its n < end.
    """

    def __init__(self, small: np.ndarray, size: int, end: int):
        qs = small[(small > 2) & (small <= math.isqrt(end - 1))]
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
        off_wheel = _WHEEL % qe != 0  # the wheel pattern holds every q^e dividing 45045
        base, qe = base[off_wheel], qe[off_wheel]
        dense = qe <= math.isqrt(size)  # the primes to isqrt(size), and their powers that far
        self.tops = qs[(qs <= math.isqrt(size)) & (_WHEEL % qs != 0)].tolist()  # ascending
        self.dense = list(zip(base[dense].tolist(), qe[dense].tolist()))
        self.powers = qe[~dense]
        self.reps = -(-size // self.powers)  # ceil(size / q^e) multiples at most
        # k * q^e for k < reps, power by power: offsets from each power's first multiple
        owner, rank = _expand(self.reps)
        self.step = rank * self.powers[owner]
        width = np.int32 if end <= 2**31 else np.int64  # smooth[n] divides n < end
        self.base_top = base[~dense][owner].astype(np.int32)
        self.base_smooth = self.base_top.astype(width, copy=False)
        self.wheel_smooth, self.wheel_top = _wheel()
        self.top = np.empty(size + 1, dtype=np.int32)
        self.smooth = np.empty(size + 1, dtype=width)


def _gpf_block(ns: np.ndarray, plan: _GpfPlan) -> np.ndarray:
    """P+(n) for each n of the ascending int64 array ns (ns[0] >= 1) as int64; P+(1) = 1.

    The block is lo <= n < hi with lo = ns[0], hi = ns[-1] + 1, and `plan`
    is its pass's _GpfPlan (its size at least hi - lo, its end at least hi,
    so it holds the primes up to isqrt(hi - 1)). `top` and `smooth` start as
    the wheel pattern's copy: the largest wheel prime dividing n, and
    gcd(n, 45045). Each odd prime q <= isqrt(hi - 1) off the wheel puts
    itself at its multiples in `top`, which keeps the largest, and `smooth`
    is multiplied by q at the multiples of every power q^e < hi not already
    in the pattern. So `smooth` holds the odd part of n made of the primes
    up to isqrt(hi - 1) and of the wheel primes (a wheel prime above it has
    q**2 > n, so its capped power is its whole part), and n & -n is the
    2-part. The cofactor n // (smooth * (n & -n)), taken only at ns, has no
    prime factor <= isqrt(n), so it is 1, or the prime P+(n); when it is 1,
    P+(n) is the larger of `top` and 2 for even n. No value read exceeds
    n, as each is a divisor of n, so nothing read overflows: `smooth`, int32
    up to a plan end of 2**31 and int64 beyond, holds every n < end (its
    spare slot may wrap, and is never read); q <= isqrt(hi) < 2**31 below
    SIEVE_CEILING, so `top` fits int32.
    """
    lo, hi = int(ns[0]), int(ns[-1]) + 1
    size = hi - lo
    top, smooth = plan.top[: size + 1], plan.smooth[: size + 1]
    _tile(plan.wheel_top, lo, top[:size])
    _tile(plan.wheel_smooth, lo, smooth[:size])
    for q in plan.tops:  # ascending, and each above the wheel's, so the largest q wins
        top[-lo % q : size : q] = q
    for q, qe in plan.dense:
        part = smooth[-lo % qe : size : qe]
        part *= q  # on the view: `smooth[...] *= q` would also copy it back
    pos = np.repeat(-lo % plan.powers, plan.reps)
    pos += plan.step
    np.minimum(pos, size, out=pos)
    np.maximum.at(top, pos, plan.base_top)
    np.multiply.at(smooth, pos, plan.base_smooth)
    at = ns - lo
    cof = ns // (smooth[at] * (ns & -ns))
    return np.where(cof > 1, cof, np.maximum(top[at], 2 - (ns & 1)))


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


def _threshold_masks(rs: np.ndarray, ns: np.ndarray, theta: Theta) -> tuple:
    """Masks (rs**den >= ns**num, rs**den <= ns**num) over aligned integer arrays, exact.

    A log comparison settles all pairs far from the boundary; near-boundary
    pairs fall back to threshold_test, so each mask equals testing every
    pair exactly. The boundary margin scales with the log magnitudes (float
    error does too), with ~100x headroom over worst-case rounding. The two
    masks are decided separately: a pair on the boundary itself is in both.
    """
    left = theta.den * np.log(rs.astype(np.float64))
    right = theta.num * np.log(ns.astype(np.float64))
    margin = 1e-13 * (np.abs(left) + np.abs(right)) + 1e-12
    t = left - right
    ge, le = t > margin, t < -margin
    for i in np.flatnonzero(np.abs(t) <= margin).tolist():
        r, n = int(rs[i]), int(ns[i])
        ge[i] = threshold_test(r, n, theta)
        le[i] = not ge[i] or r**theta.den == n**theta.num
    return ge, le


def _piece_counts(rs: np.ndarray, ps: np.ndarray, theta: Theta) -> tuple:
    """(T, Tc) over one piece of the pass: #{r >= p**theta} and #{r <= p**theta}, exact.

    p**theta grows with p, so exact cutoffs at the piece's first and last
    prime decide most pairs at once: lo is _fixed_cutoffs' at the first p and
    hi one above its cutoff at the last, so lo < p**theta < hi at every p of
    the piece (hi**den = p**num would make a prime a den-th power). An r <= lo
    counts for Tc and not for T, an r >= hi for T and not for Tc; each count
    takes its own comparison. Only the band lo < r < hi goes to
    _threshold_masks, which decides both exactly.
    """
    if not len(ps):
        return 0, 0
    lo, hi = _fixed_cutoffs([int(ps[0]), int(ps[-1])], theta).tolist()
    hi += 1
    band = (rs > lo) & (rs < hi)
    ge, le = (int(np.count_nonzero(mask)) for mask in _threshold_masks(rs[band], ps[band], theta))
    return ge + int(np.count_nonzero(rs >= hi)), le + int(np.count_nonzero(rs <= lo))


def _fixed_cutoffs(xs: list, theta: Theta) -> np.ndarray:
    """For each x, the largest n with n**den < max(x, 1)**num: r passes at x iff r exceeds it.

    The smallest passing n is ceil(x**theta), within 2 of floor(x**theta)
    taken in float64; _threshold_masks decides the window around it exactly,
    so each cutoff is exact and no x**num is built far from a tie.
    """
    xs = np.array([max(x, 1) for x in xs], dtype=np.int64)
    guess = np.floor(xs.astype(np.float64) ** theta.as_real).astype(np.int64)
    window = np.maximum(guess[:, None] + np.arange(-1, 3), 1)
    passes = _threshold_masks(window.ravel(), np.repeat(xs, 4), theta)[0].reshape(window.shape)
    return window[np.arange(len(xs)), passes.argmax(axis=1)] - 1


def _count_pass(cache, theta: Theta, xs: list) -> list:
    """(T, T', Tc) at each x of the ascending list xs, in one pass of _shift_gpf_blocks.

    T and Tc run on across the checkpoints; T' keeps one running count per
    x, as its cutoff depends on x (see large_factor_count_fixed). A
    checkpoint inside a block splits it there.
    """
    cutoffs = _fixed_cutoffs(xs, theta)  # x < 1 has no primes, so any cutoff serves
    t = tc = k = 0  # k: the first checkpoint not yet reached
    tp = np.zeros(len(xs), dtype=np.int64)
    out = []
    for ps, rs in _shift_gpf_blocks(cache, xs[-1]):
        start = 0
        while k < len(xs) and xs[k] < ps[-1]:
            j = int(np.searchsorted(ps, xs[k], side="right"))
            ge, le = _piece_counts(rs[start:j], ps[start:j], theta)
            t, tc, start = t + ge, tc + le, j
            out.append((t, int(tp[k] + np.count_nonzero(rs[:j] > cutoffs[k])), tc))
            k += 1
        ge, le = _piece_counts(rs[start:], ps[start:], theta)
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

ORACLE_NODE_BUDGET = 10**9  # multisets (last members of _walk's branches) the oracle may test
_ORACLE_CHUNK = 1 << 16  # most last members of one branch the oracle tests in one view


def _walk(qs, k: int, cap: int, leaf) -> None:
    """Call leaf(prod, g, first, rest, start, stop) per branch of the multisets of k members of qs.

    qs ascends (a list, or an int64 array) and members are taken
    nondecreasing with product <= cap, so a branch stops at the first q with
    prod * q**(members left) > cap. A branch is the first k - 1 members: prod
    is their product and g the gcd of their shifts q - 1. Its multisets end
    in each q of qs[start:stop], every q from qs[start], the last of the k - 1,
    to cap // prod. The one ending in qs[start] weighs `first` orderings,
    every other one `rest`: with m the multiplicity of qs[start] among the
    k - 1 and w = (k - 1)! / prod m_i! their orderings (m_i the
    multiplicities; a member of multiplicity m added at depth d takes w to
    w(d + 1)/m), first = w * k // (m + 1) and rest = w * k. Each member but
    the last has q * q <= cap, so the walk reads only those one by one, as
    Python ints; the last are left to the leaf as a range. Every branch
    holds at least one multiset (start < stop), so multisets bound the work.
    """
    head = qs[: bisect_right(qs, math.isqrt(cap))]
    head = head if isinstance(head, list) else head.tolist()

    def extend(start: int, prod: int, g: int, w: int, m: int, depth: int):
        if depth + 1 == k:
            leaf(prod, g, w * k // (m + 1), w * k, start, bisect_right(qs, cap // prod, start))
            return
        for i in range(start, len(head)):
            q = head[i]
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


def tuple_count_oracle(cache, x: int, k: int, theta: Theta) -> int:
    """Brute-force count of qualifying k-tuples (ordered, repeats allowed).

    _walk reaches every multiset of primes with product <= x, and each is
    tested; none is pruned. Each branch's last members are tested where
    _walk hands them over, as views of the prime list, at most
    _ORACLE_CHUNK at a time (a longer branch is cut), so temporaries stay a
    few MB. Per view, np.gcd gives the gcds of the shifts, P+ of each comes
    from the oracle's own factorizer table, sharing no code with the fast
    route's _gpf_block, and _threshold_masks applies the exact threshold; a
    qualifying multiset adds its orderings. Tuples are counted, not listed.
    ORACLE_NODE_BUDGET counts multisets, so a runaway enumeration fails
    loudly before its branch is tested. build_spf's ceiling keeps x below
    2**63, so products are int64.
    """
    cache._check(tuple_sieve_limit(x, k))
    if max(x, 0).bit_length() <= k:  # x < 2^k: no k primes have a product below it
        return 0
    ps = primes_in(cache, 0, x >> (k - 1))
    spf = build_spf(max(math.isqrt(x), 2))  # a gcd lies below x**(1/k), as in the fast route
    gpf = np.array([0, 1] + [factorize(n, spf)[-1][0] for n in range(2, len(spf))])  # P+(1) = 1
    count = 0
    budget = ORACLE_NODE_BUDGET

    def leaf(prod: int, g: int, first: int, rest: int, start: int, stop: int):
        nonlocal budget, count
        budget -= stop - start
        if budget < 0:
            raise RangeError("tuple enumeration exceeded the node budget")
        for lo in range(start, stop, _ORACLE_CHUNK):
            q = ps[lo : min(lo + _ORACLE_CHUNK, stop)]
            ok = _threshold_masks(gpf[np.gcd(g, q - 1)], prod * q, theta)[0]
            if ok.any():
                count += rest * int(np.count_nonzero(ok)) + (first - rest) * bool(lo == start and ok[0])

    _walk(ps, k, x, leaf)
    return count


def _fast_count_for_r(cache, x: int, k: int, theta: Theta, gpf, r: int) -> int:
    # The largest n <= x passing the threshold at r: n**num <= r**den.
    n_cap = floor_root(min(r**theta.den, x**theta.num), theta.num)
    # Members are primes = 1 (mod r), each >= r + 1, so none exceeds n_cap // (r + 1)**(k - 1).
    qs = primes_in_class(cache, n_cap // (r + 1) ** (k - 1), r).tolist()
    count = 0

    def leaf(prod: int, g: int, first: int, rest: int, start: int, stop: int):
        nonlocal count
        for i in range(start, stop):  # the branches are short: a plain loop beats arrays here
            if gpf[math.gcd(g, qs[i] - 1)] == r:
                count += first if i == start else rest

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
