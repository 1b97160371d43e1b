import functools
import math
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_count_matches_products, gpf_trial, reference_flags
from spl.core_primes import (
    _WHEEL, SIEVE_CEILING, SieveCache, _wheel, build_sieve, floor_root, prime_count, primes_in,
)
from spl import shifted_counts
from spl.errors import ArgumentError, RangeError
from spl.experiments import density_table
from spl.shifted_counts import (
    Theta,
    _count_threshold,
    _gpf_block,
    _GpfPlan,
    _shift_gpf_blocks,
    large_factor_count,
    large_factor_count_fixed,
    oracle_qualifying_products,
    single_prime_counts,
    smooth_shift_count,
    threshold_test,
    tuple_count_fast,
    tuple_count_oracle,
    tuple_sieve_limit,
)


def theta_from_fraction(fr: Fraction) -> Theta:
    return Theta(fr.numerator, fr.denominator)


def gpf_block(ns, small):
    """_gpf_block over ns alone, with a plan made for that one block from the primes `small`."""
    lo, hi = int(ns[0]), int(ns[-1]) + 1
    return _gpf_block(ns, _GpfPlan(small, hi - lo, hi))


def ordered_products(x: int, k: int, theta: Theta) -> list:
    """Products of the qualifying ordered k-tuples of primes with product <= x, one per tuple.

    The reference for both tuple routes, sharing no code with them: each
    ordering is walked on its own over a plain byte sieve, and P+ of the
    shifted gcd comes from trial division.
    """
    flags = reference_flags(x)
    ps = [p for p in range(2, x // 2 ** (k - 1) + 1) if flags[p]]
    out = []

    def visit(prod: int, g: int, depth: int):
        rest = 2 ** (k - depth - 1)
        for p in ps:
            if prod * p * rest > x:
                break
            g_p = math.gcd(g, p - 1)
            if depth + 1 < k:
                visit(prod * p, g_p, depth + 1)
            elif gpf_trial(g_p) ** theta.den >= (prod * p) ** theta.num:
                out.append(prod * p)

    visit(1, 0, 0)
    return out


def shift_gpfs(c, x):
    """(primes <= x, P+(p - 1) for each) as aligned arrays, joined from the pass's blocks."""
    empty = [np.zeros(0, dtype=np.int64)]
    blocks = list(_shift_gpf_blocks(c, x))
    return tuple(np.concatenate(empty + [b[i] for b in blocks]) for i in (0, 1))


class TestTheta:
    def test_reduction(self):
        t = Theta(2, 8)
        assert (t.num, t.den) == (1, 4)
        assert t.as_real == 0.25

    def test_parse(self):
        assert Theta.parse("17/64") == Theta(17, 64)
        assert str(Theta.parse(" 3 / 12 ")) == "1/4"

    @pytest.mark.parametrize("bad", ["0.5", "1", "-1/2", "a/b", "", "1/2/3"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ArgumentError):
            Theta.parse(bad)

    @pytest.mark.parametrize("num,den", [(0, 5), (5, 5), (7, 5), (1, 0)])
    def test_range_rejected(self, num, den):
        with pytest.raises(ArgumentError):
            Theta(num, den)

    @pytest.mark.parametrize("text", ["1/" + "9" * 5000, "2" + "0" * 5000 + "/4" + "0" * 5000])
    def test_digit_limit(self, text):
        # Python's int() refuses strings past sys.get_int_max_str_digits(); 1/2 is no exception
        with pytest.raises(RangeError, match=f"limited to {sys.get_int_max_str_digits()} digits"):
            Theta.parse(text)

    def test_denominator_ceiling(self):
        assert Theta(1, 10**4).den == Theta(2, 2 * 10**4).den == 10**4
        with pytest.raises(RangeError, match="theta denominator 10001 exceeds ceiling 10000"):
            Theta(1, 10**4 + 1)


class TestThresholdTest:
    def test_examples(self):
        assert threshold_test(2, 9, Theta(1, 4))
        assert not threshold_test(2, 21, Theta(1, 4))
        assert threshold_test(5, 25, Theta(1, 2))  # boundary is inclusive

    @given(st.integers(1, 10**6), st.integers(1, 10**6), st.integers(1, 30), st.integers(2, 31))
    @settings(deadline=None, max_examples=150)
    def test_monotone(self, r, n, num, den):
        if num >= den:
            num, den = den - 1, den
        th = Theta(num, den)
        if threshold_test(r, n, th):
            assert threshold_test(r + 1, n, th)
        else:
            assert not threshold_test(r, n + 1, th)

    @given(st.integers(1, 5000), st.integers(1, 5000), st.integers(1, 9), st.integers(2, 10))
    @settings(deadline=None, max_examples=150)
    def test_matches_fraction_comparison(self, r, n, num, den):
        if num >= den:
            return
        th = Theta(num, den)
        assert threshold_test(r, n, th) == (Fraction(r) ** th.den >= Fraction(n) ** th.num)


class TestSingleCounters:
    def test_examples(self, cache):
        half = Theta(1, 2)
        assert large_factor_count(cache, 10, half) == 2
        assert large_factor_count(cache, 2, half) == 0
        assert large_factor_count_fixed(cache, 10, half) == 0
        assert smooth_shift_count(cache, 10, half) == 2
        assert smooth_shift_count(cache, 2, Theta(9, 10)) == 1

    def test_past_the_limit_raises_first(self, cache):
        # x**num would have 300,000 digits: the limit is checked before any cutoff
        for count in (large_factor_count, large_factor_count_fixed, smooth_shift_count):
            with pytest.raises(RangeError, match="exceeds sieve limit"):
                count(cache, 10**30, Theta(9999, 10000))

    def test_t_prime_at_100(self, cache):
        # brute force over the 25 primes below 100
        expected = sum(
            1 for p in range(2, 101) if all(p % d for d in range(2, p)) and gpf_trial(p - 1) >= 10
        )
        assert large_factor_count_fixed(cache, 100, Theta(1, 2)) == expected == 8

    def test_exact_boundary_inclusive(self, cache):
        # P+(6) = 3 and 3^2 = 9: the fixed threshold at x = 9 is met with
        # equality, which the inclusive comparison must count
        assert large_factor_count_fixed(cache, 9, Theta(1, 2)) == 1

    @pytest.mark.parametrize(
        "theta", [Theta(1, 4), Theta(1, 2), Theta(2, 3), Theta(17, 64), Theta(499, 997)]
    )
    def test_brute_force_cross_check(self, cache, theta):
        x = 2000
        flags = reference_flags(x)
        t = tp = ts = 0
        for p in range(2, x + 1):
            if not flags[p]:
                continue
            r = gpf_trial(p - 1)
            if r**theta.den >= p**theta.num:
                t += 1
            if r**theta.den >= x**theta.num:
                tp += 1
            if r**theta.den <= p**theta.num:
                ts += 1
        assert large_factor_count(cache, x, theta) == t
        assert large_factor_count_fixed(cache, x, theta) == tp
        assert smooth_shift_count(cache, x, theta) == ts

    def test_prime_threshold_dominated(self, cache):
        for x in (50, 500, 5000):
            for theta in (Theta(1, 4), Theta(1, 2), Theta(3, 4)):
                assert large_factor_count_fixed(cache, x, theta) <= large_factor_count(cache, x, theta)

    def test_trichotomy_with_boundary(self, cache):
        for x, theta in ((100, Theta(1, 2)), (1000, Theta(1, 2)), (500, Theta(1, 3))):
            ties = 0
            flags = reference_flags(x)
            for p in range(2, x + 1):
                if flags[p] and gpf_trial(p - 1) ** theta.den == p**theta.num:
                    ties += 1
            total = large_factor_count(cache, x, theta) + smooth_shift_count(cache, x, theta)
            assert total == prime_count(cache, x) + ties

    def test_monotone_in_x_and_theta(self, cache):
        thetas = [Theta(1, 5), Theta(1, 4), Theta(1, 3), Theta(1, 2), Theta(3, 4)]
        xs = [10, 50, 100, 500, 1000, 5000]
        for theta in thetas:
            vals = [large_factor_count(cache, x, theta) for x in xs]
            assert all(a <= b for a, b in zip(vals, vals[1:]))
        for x in xs:
            vals = [large_factor_count(cache, x, th) for th in thetas]
            assert all(a >= b for a, b in zip(vals, vals[1:]))


class TestTupleCounters:
    def test_oracle_examples(self, cache):
        q = Theta(1, 4)
        assert tuple_count_oracle(cache, 35, 2, q) == 3
        assert tuple_count_oracle(cache, 8, 2, q) == 0
        assert tuple_count_oracle(cache, 9, 2, q) == 1
        assert sorted(oracle_qualifying_products(cache, 35, 2, q)) == [9, 15, 15]

    def test_fast_examples(self, cache):
        assert tuple_count_fast(cache, 35, 2, Theta(1, 4)) == 3

    @pytest.mark.parametrize("k", [2, 3])
    def test_empty_below_two_to_the_k(self, cache, k):
        """No k primes have a product below 2^k: both routes return 0, negative x included."""
        for x in (-10, -1, 0, 1, 2**k - 1):
            assert tuple_count_fast(cache, x, k, Theta(1, 4)) == 0
            assert tuple_count_oracle(cache, x, k, Theta(1, 4)) == 0

    def test_k_below_two_rejected(self, cache):
        with pytest.raises(ArgumentError):
            tuple_count_oracle(cache, 100, 1, Theta(1, 4))

    def test_node_budget(self, cache, monkeypatch):
        monkeypatch.setattr(shifted_counts, "ORACLE_NODE_BUDGET", 10)
        with pytest.raises(RangeError, match="node budget"):
            tuple_count_oracle(cache, 10**5, 2, Theta(1, 4))

    def test_oracle_shares_no_gpf_code_with_fast_route(self, cache, monkeypatch):
        """A broken _gpf_block moves the fast route only, so --method both would catch it."""
        monkeypatch.setattr(
            shifted_counts, "_gpf_block", lambda ns, plan: np.ones(len(ns), dtype=np.int64)
        )
        q = Theta(1, 4)
        assert tuple_count_oracle(cache, 35, 2, q) == 3
        assert tuple_count_fast(cache, 35, 2, q) != 3

    def test_two_never_qualifies(self, cache):
        # a tuple containing p = 2 forces gcd 1; all qualifying products are odd
        for k in (2, 3):
            prods = oracle_qualifying_products(cache, 500, k, Theta(1, 8))
            assert prods and all(p % 2 == 1 for p in prods)

    def test_oracle_fast_agree_small_sweep(self, cache):
        for k in (2, 3):
            lo = Fraction(1, 2 * k)
            for fr in (lo, lo + Fraction(1, 100), Fraction(17, 32 * k) - Fraction(1, 100)):
                th = theta_from_fraction(fr)
                for x in (10, 100, 300):
                    assert tuple_count_oracle(cache, x, k, th) == tuple_count_fast(cache, x, k, th)

    def test_oracle_fast_agree_at_member_cap(self, cache):
        """Tuples whose largest member is exactly n_cap // (r+1)**(k-1).

        The cap is reached only when every other member is r + 1, which is
        prime only for r = 2: tuples (3, ..., 3, q). With theta = 1/den the
        threshold at r = 2 admits n <= 2**den, so for x <= 2**den the cap is
        x // 3**(k-1) and each x below puts a prime q exactly there.
        """
        for k, den in ((2, 8), (3, 12)):
            th = Theta(1, den)
            head = 3 ** (k - 1)
            qs = primes_in(cache, 4, 2**den // head).tolist()
            xs = [head * q + d for q in qs for d in (0, head - 1)]
            # a tuple qualifies whatever the cap, so one count per cap serves every x
            fast = functools.cache(lambda y: tuple_count_fast(cache, y, k, th))
            for x in xs:
                assert x // head in qs
                n = head * (x // head)
                assert fast(n) > fast(n - 1)  # the product (3, ..., 3, q) is counted
                assert tuple_count_oracle(cache, x, k, th) == tuple_count_fast(cache, x, k, th)
                if k == 3:
                    assert_count_matches_products(fast, oracle_qualifying_products(cache, x, k, th), x)

    def test_product_multisets_agree(self, cache):
        th = Theta(1, 4)
        products = oracle_qualifying_products(cache, 2000, 2, th)
        assert_count_matches_products(lambda y: tuple_count_fast(cache, y, 2, th), products, 2000)

    def test_fast_count_holds_no_product_list(self, cache):
        """101170 tuples at 1e6: a list of their products would peak near 5.6 MB."""
        x, th = 10**6, Theta(1, 16)
        assert tuple_count_fast(cache, x, 2, th) == 101170  # warm-up, untraced
        tracemalloc.start()
        try:
            tuple_count_fast(cache, x, 2, th)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 10**6

    def test_routes_match_the_ordered_walk(self, cache):
        """Both routes against every ordered tuple walked on its own, at every x <= 3000."""
        for k in (2, 3, 4):
            for fr in (Fraction(1, 2 * k), Fraction(17, 32 * k) - Fraction(1, 100)):
                th = theta_from_fraction(fr)
                products = ordered_products(3000, k, th)
                assert products
                assert sorted(oracle_qualifying_products(cache, 3000, k, th)) == sorted(products)
                for route in (tuple_count_oracle, tuple_count_fast):
                    assert_count_matches_products(lambda y: route(cache, y, k, th), products, 3000)

    def test_repeated_members_weigh_their_orderings(self, cache):
        """At k = 3, (3, 3, q) stands for three ordered tuples and (q, q, q) for one."""
        counts = Counter(oracle_qualifying_products(cache, 4096, 3, Theta(1, 12)))
        qs = primes_in(cache, 3, 4096 // 9).tolist()  # P+(gcd) = 2 and 2^12 >= 9 q
        assert qs and [counts[9 * q] for q in qs] == [3] * len(qs)
        assert [counts[q**3] for q in (3, 5, 7, 11, 13)] == [1] * 5

    def test_node_budget_counts_multisets(self, cache, monkeypatch):
        """3^12 at k = 12 is a few hundred multisets; an ordered walk there visits 3949036 nodes."""
        monkeypatch.setattr(shifted_counts, "ORACLE_NODE_BUDGET", 10**4)
        assert tuple_count_oracle(cache, 3**12, 12, Theta(1, 24)) == 1

    def test_monotonicity(self, cache):
        th = Theta(1, 4)
        vals = [tuple_count_oracle(cache, x, 2, th) for x in (10, 50, 200, 1000)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        thetas = [Theta(1, 8), Theta(1, 6), Theta(1, 4), Theta(1, 3)]
        counts = [tuple_count_oracle(cache, 1000, 2, t) for t in thetas]
        assert all(a >= b for a, b in zip(counts, counts[1:]))


class TestTupleSieveReach:
    """Both tuple routes run on a sieve of exactly tuple_sieve_limit(x, k) = x // 2**(k - 1)."""

    @staticmethod
    def sieve_of(cache):
        """A sieve of any limit below cache's, cut from its words as ensure_sieve cuts a file."""
        return functools.cache(lambda limit: SieveCache(limit, cache.words[: (limit >> 6) + 1]))

    def test_reach_answers_as_a_sieve_covering_x(self, cache):
        sieve = self.sieve_of(cache)
        cases = [(x, k) for k in range(2, 7) for x in range(600)]
        cases += [(x, k) for k in range(2, 13) for x in (2**k, 2**k + 1, 2 ** (k + 1), 3**k)]
        for x, k in cases:
            th = Theta(1, 2 * k)
            reach = sieve(tuple_sieve_limit(x, k))
            fast = tuple_count_fast(reach, x, k, th)
            assert fast == tuple_count_fast(cache, x, k, th), (x, k)
            assert tuple_count_oracle(reach, x, k, th) == fast, (x, k)

    def test_one_below_the_reach_raises(self, cache):
        sieve = self.sieve_of(cache)
        for x, k in ((4, 2), (35, 2), (599, 3), (2**12, 12), (3**6, 6)):
            short = sieve(tuple_sieve_limit(x, k) - 1)
            with pytest.raises(RangeError):
                tuple_count_fast(short, x, k, Theta(1, 2 * k))
            with pytest.raises(RangeError):
                tuple_count_oracle(short, x, k, Theta(1, 2 * k))


@pytest.fixture()
def gpf_blocks(monkeypatch):
    """The block (ns[0], ns[-1] + 1) of every _gpf_block call."""
    calls = []
    block = shifted_counts._gpf_block

    def spy(ns, *rest):
        calls.append((int(ns[0]), int(ns[-1]) + 1))
        return block(ns, *rest)

    monkeypatch.setattr(shifted_counts, "_gpf_block", spy)
    return calls


class TestGpfTableSizing:
    def test_fast_route_table_stops_at_isqrt_x(self, gpf_blocks):
        c = build_sieve(10**6)
        x = 10**6 - 1
        tuple_count_fast(c, x, 3, Theta(1, 4))
        assert gpf_blocks and all(hi <= math.isqrt(x) + 2 for _, hi in gpf_blocks)

    def test_oracle_table_stops_at_isqrt_x(self, monkeypatch):
        limits = []
        build = shifted_counts.build_spf

        def spy(limit):
            limits.append(limit)
            return build(limit)

        monkeypatch.setattr(shifted_counts, "build_spf", spy)
        c = build_sieve(10**6)
        x = 10**6
        assert tuple_count_oracle(c, x, 2, Theta(1, 4)) == 914
        assert limits and all(n <= math.isqrt(x) + 1 for n in limits)

    def test_single_counters_share_one_pass(self, gpf_blocks):
        c = build_sieve(10**6)
        x = 10**6
        half = Theta(1, 2)
        t = large_factor_count(c, x, half)
        assert gpf_blocks and all(hi - lo <= shifted_counts._BLOCK for lo, hi in gpf_blocks)
        first_pass = list(gpf_blocks)
        tp = large_factor_count_fixed(c, x, half)
        tc = smooth_shift_count(c, x, half)
        assert gpf_blocks == first_pass  # the other two counters are lookups
        assert (t, tp, tc) == (49597, 43053, 28901)
        # a new (x, theta) is a new pass, to the same counts as on a fresh cache
        small = (large_factor_count(c, 10**4, half), smooth_shift_count(c, 10**4, half))
        assert len(gpf_blocks) > len(first_pass)
        fresh = build_sieve(10**6)
        assert (large_factor_count(fresh, 10**4, half), smooth_shift_count(fresh, 10**4, half)) == small


class TestSinglePrimePass:
    def test_density_grid_is_one_pass(self, gpf_blocks):
        """Each block once, in order, and the rows of per-x calls on a fresh cache."""
        c = build_sieve(10**6)
        half = Theta(1, 2)
        recs = density_table(c, half, [10**4, 3 * 10**5, 10**6])
        assert gpf_blocks == sorted(set(gpf_blocks))
        assert len(gpf_blocks) == -(-(10**6 // 2) // shifted_counts._BLOCK)
        fresh = build_sieve(10**6)
        for rec in recs:
            x = rec.inputs["x"]
            assert dict(rec.raw) == {
                "pi": prime_count(fresh, x),
                "count_self": large_factor_count(fresh, x, half),
                "count_fixed": large_factor_count_fixed(fresh, x, half),
            }

    @pytest.mark.parametrize("theta", [Theta(1, 2), Theta(1, 3), Theta(2, 5), Theta(17, 64)])
    def test_t_plus_tc_is_pi_at_every_x(self, monkeypatch, theta):
        """T and Tc from one pass checkpointed at every x < 3000, pi from prime_count."""
        monkeypatch.setattr(shifted_counts, "_BLOCK", 7)
        c = build_sieve(3000)
        counts = single_prime_counts(c, theta, range(3000))
        assert [t + tc for t, _, tc in counts] == [prime_count(c, x) for x in range(3000)]
        # a checkpoint inside a block agrees with a pass that ends there
        fresh = build_sieve(3000)
        for x in range(0, 3000, 97):
            assert single_prime_counts(fresh, theta, [x]) == [counts[x]]

    def test_blocks_read_only_their_primes(self, monkeypatch):
        """Past the small primes, each block reads its own range of at most 2 * _BLOCK integers."""
        reads = []
        read = shifted_counts.primes_in

        def spy(c, lo, hi):
            reads.append((lo, hi))
            return read(c, lo, hi)

        monkeypatch.setattr(shifted_counts, "primes_in", spy)
        x = 10**6
        c = build_sieve(x)
        assert single_prime_counts(c, Theta(1, 2), [x]) == [(49597, 43053, 28901)]
        small = (0, math.isqrt((x - 1) // 2))
        blocks = [r for r in reads if r != small]
        assert len(blocks) == len(reads) - 1
        assert all(hi - lo <= 2 * shifted_counts._BLOCK for lo, hi in blocks)
        # the ranges tile (1, x] in order
        assert [lo for lo, _ in blocks] == [1] + [hi for _, hi in blocks[:-1]] and blocks[-1][1] == x

    def test_memory_does_not_grow_with_pi(self):
        """On a warm cache the pass holds blocks, not pi(x) entries (a pi(x)-entry array gives ~3x)."""
        c = build_sieve(10**7)
        c.primes  # the cache's own view is not the pass's

        def peak(x):
            tracemalloc.start()
            try:
                large_factor_count(c, x, Theta(1, 2))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(10**7) < 2 * peak(10**6)


class TestSegmentedShiftPass:
    def test_matches_trial_division_on_tiny_blocks(self, monkeypatch):
        """Blocks of 7 put many primes on block edges."""
        monkeypatch.setattr(shifted_counts, "_BLOCK", 7)
        c = build_sieve(2 * 10**4)
        ps, rs = shift_gpfs(c, 2 * 10**4)
        assert rs.tolist() == [gpf_trial(p - 1) for p in ps.tolist()]
        gpf = gpf_block(np.arange(1, 301), primes_in(c, 0, 17))  # the fast tuple route's table
        assert gpf.tolist() == [gpf_trial(n) for n in range(1, 301)]

    def test_every_x_on_tiny_blocks(self, monkeypatch):
        """Each x below 120 on a fresh cache: every block boundary in turn."""
        monkeypatch.setattr(shifted_counts, "_BLOCK", 7)
        flags = reference_flags(120)
        for x in range(0, 120):
            c = build_sieve(max(x, 2))
            ps, rs = shift_gpfs(c, x)
            expected = [p for p in range(2, x + 1) if flags[p]]
            assert ps.tolist() == expected
            assert rs.tolist() == [gpf_trial(p - 1) for p in expected]

    def test_default_block_boundary(self):
        # the first block holds m = 1 .. B, so p = 2B + 1 is its last slot and
        # p = 2B + 3 opens the second block; x lands on, just past and beyond it
        b = shifted_counts._BLOCK
        for x in (2 * b + 1, 2 * b + 2, 2 * b + 3, 2 * b + 200):
            ps, rs = shift_gpfs(build_sieve(x), x)
            tail = slice(int(np.searchsorted(ps, 2 * b - 400)), None)
            assert rs[tail].tolist() == [gpf_trial(p - 1) for p in ps[tail].tolist()]

    def test_edges(self):
        c = build_sieve(70000)
        ps, rs = shift_gpfs(c, 70000)
        gpf_of = dict(zip(ps.tolist(), rs.tolist()))
        assert gpf_of[2] == 1  # P+(1) = 1
        assert gpf_of[3] == 2
        for fermat in (5, 17, 257, 65537):  # p - 1 = 2^k: P+(m) = 1 or 2, lifted to 2
            assert gpf_of[fermat] == 2
        for x in (-1, 0, 1):
            ps, rs = shift_gpfs(c, x)
            assert len(ps) == len(rs) == 0
            assert large_factor_count(c, x, Theta(1, 2)) == 0
            assert smooth_shift_count(c, x, Theta(1, 2)) == 0
        assert large_factor_count_fixed(c, 0, Theta(1, 2)) == 0


class TestGpfBlock:
    """The kernel on the inputs the pass hands it: sparse ns and powers longer than a block."""

    def test_long_powers_hitting_one_n(self, monkeypatch):
        # below 8 blocks, 8 and 9 both span a block and both divide n = 72, 144, ...
        monkeypatch.setattr(shifted_counts, "_BLOCK", 7)
        c = build_sieve(6000)
        ps, rs = shift_gpfs(c, 6000)
        assert sum(p % 144 == 1 for p in ps.tolist()) >= 5  # primes whose m is a multiple of 72
        assert rs.tolist() == [gpf_trial(p - 1) for p in ps.tolist()]
        small = primes_in(c, 0, 100)
        for lo in (70, 140, 212, 284, 644, 2590):  # blocks of 5 holding a multiple of 72
            ns = np.arange(lo, lo + 5)
            assert gpf_block(ns, small).tolist() == [gpf_trial(n) for n in ns.tolist()]

    def test_sparse_and_single_inputs(self):
        c = build_sieve(20000)
        small = primes_in(c, 0, 150)
        for ns in (np.arange(1, 20000, 3), np.arange(4001, 19000, 3)):
            assert gpf_block(ns, small).tolist() == [gpf_trial(n) for n in ns.tolist()]
        ms = primes_in(c, 2, 20000) >> 1  # the m = (p - 1) / 2 of the odd primes
        assert gpf_block(ms, small).tolist() == [gpf_trial(m) for m in ms.tolist()]
        for n in (1, 2, 3, 72, 128, 143, 9973, 10201, 19998):
            assert gpf_block(np.array([n]), small).tolist() == [gpf_trial(n)]

    def test_exact_at_the_largest_m(self):
        """p <= SIEVE_CEILING gives m < 2**39: int32 `top`, int64 `smooth` and cofactor there."""
        m_end = SIEVE_CEILING // 2
        root = math.isqrt(m_end)
        small = primes_in(build_sieve(root + 1), 0, root)
        q = int(small[-1])  # largest prime with q^2 < m_end
        for ns in (
            np.arange(m_end - 64, m_end),
            np.arange(m_end - 300, m_end, 3),
            np.arange(q * q - 8, q * q + 9),
        ):
            assert gpf_block(ns, small).tolist() == [gpf_trial(n) for n in ns.tolist()]

    def test_blocks_at_the_wheel_seams(self):
        """Blocks from lo = 0, 1 and -1 mod the wheel's period, and across it, through one shared plan."""
        small = primes_in(build_sieve(1000), 0, 1000)
        size = 300
        plan = _GpfPlan(small, size, 6 * _WHEEL)
        los = [k * _WHEEL + d for k in (1, 2, 5) for d in (0, 1, -1, -size // 2)]
        for lo in los:
            ns = np.arange(lo, lo + size)
            want = [gpf_trial(n) for n in ns.tolist()]
            assert _gpf_block(ns, plan).tolist() == want, lo
            assert gpf_block(ns, small).tolist() == want, lo  # a plan of this block alone
        # one block spanning two seams, read sparsely as the pass reads it
        ns = np.arange(_WHEEL - 50, 2 * _WHEEL + 50, 97)
        assert gpf_block(ns, small).tolist() == [gpf_trial(n) for n in ns.tolist()]

    @pytest.mark.parametrize("hi", [2**31 - 1, 2**31, 2**31 + 1])
    def test_smooth_width_at_two_to_the_31(self, hi):
        """A plan ending at 2**31 keeps `smooth` in int32, one past it in int64, both exact."""
        small = primes_in(build_sieve(math.isqrt(hi) + 1), 0, math.isqrt(hi))
        ns = np.arange(hi - 48, hi)
        plan = _GpfPlan(small, len(ns), hi)
        assert plan.smooth.dtype == (np.int32 if hi <= 2**31 else np.int64)
        assert _gpf_block(ns, plan).tolist() == [gpf_trial(n) for n in ns.tolist()]

    def test_single_n_of_high_wheel_and_two_powers(self):
        """Powers past the wheel's caps, and large 2-parts, up to 2**38, each n a block of its own."""
        small = primes_in(build_sieve(2**19 + 1), 0, 2**19 + 1)
        ns = [2**38, 2**36 * 3, 3**23, 5**16, 7**13, 11**10, 13**10, 2**13 * 3**14]
        ns += [_WHEEL**2, 2**20 * _WHEEL, 2**5 * 3**5 * 5**3 * 7**2 * 11 * 13**2]
        ns += [3**6 * 13**2 * 524287, 2**9 * 5**3 * 524287]  # a large prime over the wheel's powers
        for n in ns:
            assert n <= 2**38
            assert gpf_block(np.array([n]), small).tolist() == [gpf_trial(n)], n

    def test_plan_holds_one_period_and_one_block(self):
        """The wheel's period is shared, not copied; each other array is at most a block long."""
        small = primes_in(build_sieve(10**4), 0, 10**4)
        size = shifted_counts._BLOCK
        plan = _GpfPlan(small, size, 5 * 10**7)
        assert plan.wheel_smooth is _wheel()[0] and plan.wheel_top is _wheel()[1]
        assert len(plan.wheel_smooth) == len(plan.wheel_top) == _WHEEL
        assert len(plan.top) == len(plan.smooth) == size + 1
        rest = [v for k, v in vars(plan).items() if isinstance(v, np.ndarray) and not k.startswith("wheel")]
        assert max(len(v) for v in rest) == size + 1
        # and a plan smaller than one period still reads the shared period
        tiny = _GpfPlan(small[:5], 100, 101)
        assert tiny.wheel_smooth is plan.wheel_smooth and len(tiny.smooth) == 101


class TestCountThresholdChunks:
    @pytest.mark.parametrize("theta", [Theta(1, 2), Theta(2, 3), Theta(1, 3)])
    def test_tiny_chunks_match_one_chunk(self, theta):
        """Both counts are exact at ties and add up over the pieces a checkpoint cuts a block into."""
        # pairs with r^den == n^num exactly, and their neighbours n +- 1
        a = np.arange(2, 400, dtype=np.int64)
        r_tie, n_tie = a**theta.num, a**theta.den
        rs = np.concatenate([r_tie, r_tie, r_tie, np.arange(1, 500, dtype=np.int64)])
        ns = np.concatenate([n_tie - 1, n_tie, n_tie + 1, np.arange(700, 1199, dtype=np.int64)])
        one = _count_threshold(rs, ns, theta)
        exact = (
            sum(int(r) ** theta.den >= int(n) ** theta.num for r, n in zip(rs, ns)),
            sum(int(r) ** theta.den <= int(n) ** theta.num for r, n in zip(rs, ns)),
        )
        assert one == exact
        pieces = [_count_threshold(rs[i : i + 5], ns[i : i + 5], theta) for i in range(0, len(rs), 5)]
        assert tuple(map(sum, zip(*pieces))) == one

    @pytest.mark.parametrize(
        "theta", [Theta(1, 2), Theta(17, 64), Theta(4999, 10000), Theta(9998, 9999)], ids=str
    )
    def test_exact_next_to_the_boundary_up_to_the_ceiling(self, theta):
        """The log comparison's margin holds at every magnitude up to SIEVE_CEILING and
        for the largest denominators: for n drawn up to the ceiling, r = floor(n^theta)
        and its two neighbours (r >= 1, as in the pass) count as the power test counts them."""
        rng = np.random.default_rng(1)
        drawn = np.exp(rng.uniform(math.log(2), math.log(SIEVE_CEILING), 40)).astype(np.int64)
        rs, ns, exact = [], [], [0, 0]
        for n in [2, SIEVE_CEILING, *drawn.tolist()]:
            rhs = n**theta.num
            root = floor_root(rhs, theta.den)
            for r in range(max(root - 1, 1), root + 2):
                lhs = r**theta.den
                exact[0] += lhs >= rhs
                exact[1] += lhs <= rhs
                rs.append(r)
                ns.append(n)
        assert _count_threshold(np.array(rs), np.array(ns), theta) == tuple(exact)


class TestFixedThresholdCutoff:
    @pytest.mark.parametrize("theta", [Theta(1, 2), Theta(2, 3), Theta(1, 3)])
    def test_matches_brute_force_at_perfect_powers(self, theta):
        # x = a^den makes x^theta = a^num exact: a prime r = a^num sits on the tie
        c = build_sieve(30000)
        flags = reference_flags(30000)
        for a in (2, 3, 5, 7, 10, 13, 21) if theta.den == 3 else (2, 3, 10, 31, 97, 100, 173):
            for x in (a**theta.den - 1, a**theta.den, a**theta.den + 1):
                want = sum(
                    1
                    for p in range(2, x + 1)
                    if flags[p] and gpf_trial(p - 1) ** theta.den >= x**theta.num
                )
                assert large_factor_count_fixed(c, x, theta) == want, (x, theta)
