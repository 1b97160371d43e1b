import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gpf_trial, reference_flags
from spl.core_primes import build_sieve, prime_count
from spl import shifted_counts
from spl.errors import ArgumentError, BudgetError
from spl.shifted_counts import (
    _SHIFT_MEMO,
    Theta,
    _count_threshold,
    _gpf_upto,
    _shift_gpfs,
    count_tuples,
    fast_qualifying_products,
    large_factor_count,
    large_factor_count_fixed,
    oracle_qualifying_products,
    smooth_shift_count,
    threshold_test,
    tuple_count_fast,
    tuple_count_oracle,
)


def theta_from_fraction(fr: Fraction) -> Theta:
    return Theta(fr.numerator, fr.denominator)


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

    def test_count_tuples_record(self, cache):
        rec = count_tuples(cache, 35, 2, Theta(1, 4), method="oracle")
        assert rec.ordered_count == 3 and rec.method == "oracle"
        assert count_tuples(cache, 35, 2, Theta(1, 4)).ordered_count == 3
        with pytest.raises(ArgumentError):
            count_tuples(cache, 35, 2, Theta(1, 4), method="magic")

    def test_k_below_two_rejected(self, cache):
        with pytest.raises(ArgumentError):
            tuple_count_oracle(cache, 100, 1, Theta(1, 4))

    def test_node_budget(self, cache):
        with pytest.raises(BudgetError):
            tuple_count_oracle(cache, 10**5, 2, Theta(1, 4), node_budget=10)

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
            qs = [q for q in range(5, 2**den // head + 1) if cache.is_prime(q)]
            xs = [head * q + d for q in qs for d in (0, head - 1)]
            for x in xs:
                assert x // head in qs
                fast = fast_qualifying_products(cache, x, k, th)
                assert head * (x // head) in fast
                for ordered in (True, False):
                    assert tuple_count_oracle(cache, x, k, th, ordered=ordered) == tuple_count_fast(
                        cache, x, k, th, ordered=ordered
                    )
                if k == 3:
                    assert sorted(fast) == sorted(oracle_qualifying_products(cache, x, k, th))

    def test_product_multisets_agree(self, cache):
        th = Theta(1, 4)
        o = sorted(oracle_qualifying_products(cache, 2000, 2, th))
        f = sorted(fast_qualifying_products(cache, 2000, 2, th))
        assert o == f

    def test_unordered_counts(self, cache):
        th = Theta(1, 4)
        x = 1000
        uo = tuple_count_oracle(cache, x, 2, th, ordered=False)
        uf = tuple_count_fast(cache, x, 2, th, ordered=False)
        assert uo == uf
        assert uo <= tuple_count_oracle(cache, x, 2, th)

    def test_permutation_orbit(self, cache):
        """Ordered count equals the multiset enumeration weighted by orbit size."""
        x, k, th = 400, 3, Theta(1, 8)
        flags = reference_flags(x)
        ps = [p for p in range(2, x // 4 + 1) if flags[p]]
        total = 0

        def visit(start, prod, chosen):
            nonlocal total
            if len(chosen) == k:
                g = chosen[0] - 1
                for c in chosen[1:]:
                    g = math.gcd(g, c - 1)
                if threshold_test(gpf_trial(g), prod, th):
                    # orbit size: k! / prod(multiplicities!)
                    orbit = math.factorial(k)
                    for v in set(chosen):
                        orbit //= math.factorial(chosen.count(v))
                    total += orbit
                return
            for i in range(start, len(ps)):
                q = ps[i]
                if prod * q * 2 ** (k - len(chosen) - 1) > x:
                    break
                visit(i, prod * q, chosen + [q])

        visit(0, 1, [])
        assert total == tuple_count_oracle(cache, x, k, th)

    def test_monotonicity(self, cache):
        th = Theta(1, 4)
        vals = [tuple_count_oracle(cache, x, 2, th) for x in (10, 50, 200, 1000)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        thetas = [Theta(1, 8), Theta(1, 6), Theta(1, 4), Theta(1, 3)]
        counts = [tuple_count_oracle(cache, 1000, 2, t) for t in thetas]
        assert all(a >= b for a, b in zip(counts, counts[1:]))


@pytest.fixture()
def gpf_blocks(monkeypatch):
    """The (lo, hi) of every _gpf_block call."""
    calls = []
    block = shifted_counts._gpf_block

    def spy(lo, hi, small):
        calls.append((lo, hi))
        return block(lo, hi, small)

    monkeypatch.setattr(shifted_counts, "_gpf_block", spy)
    return calls


class TestGpfTableSizing:
    def test_fast_route_table_stops_at_isqrt_x(self, gpf_blocks):
        c = build_sieve(10**6)
        x = 10**6 - 1
        tuple_count_fast(c, x, 3, Theta(1, 4))
        assert gpf_blocks and all(hi <= math.isqrt(x) + 2 for _, hi in gpf_blocks)

    def test_oracle_table_stops_at_isqrt_x(self, gpf_blocks):
        c = build_sieve(10**6)
        x = 10**6
        assert tuple_count_oracle(c, x, 2, Theta(1, 4)) == 914
        assert gpf_blocks and all(hi <= math.isqrt(x) + 2 for _, hi in gpf_blocks)

    def test_single_counters_share_one_shift_array(self, gpf_blocks):
        c = build_sieve(10**6)
        x = 10**6
        half = Theta(1, 2)
        t = large_factor_count(c, x, half)
        assert gpf_blocks and all(hi - lo <= shifted_counts._BLOCK for lo, hi in gpf_blocks)
        shifts = _SHIFT_MEMO[c]
        assert len(shifts) == prime_count(c, x)
        tp = large_factor_count_fixed(c, x, half)
        tc = smooth_shift_count(c, x, half)
        assert _SHIFT_MEMO[c] is shifts
        assert (t, tp, tc) == (49597, 43053, 28901)
        # a larger x after a smaller one extends the memo to the same counts
        grown = build_sieve(10**6)
        small = (large_factor_count(grown, 10**4, half), smooth_shift_count(grown, 10**4, half))
        assert len(_SHIFT_MEMO[grown]) == prime_count(grown, 10**4)
        assert large_factor_count(grown, x, half) == t
        assert large_factor_count_fixed(grown, x, half) == tp
        assert smooth_shift_count(grown, x, half) == tc
        assert np.array_equal(_SHIFT_MEMO[grown], shifts)
        # and a smaller x after a larger one reads a prefix
        assert (large_factor_count(c, 10**4, half), smooth_shift_count(c, 10**4, half)) == small
        assert _SHIFT_MEMO[c] is shifts


class TestSegmentedShiftPass:
    def test_matches_trial_division_on_tiny_blocks(self, monkeypatch):
        """Blocks of 7 put many primes on block edges."""
        monkeypatch.setattr(shifted_counts, "_BLOCK", 7)
        c = build_sieve(2 * 10**4)
        ps, rs = _shift_gpfs(c, 2 * 10**4)
        assert rs.tolist() == [gpf_trial(p - 1) for p in ps.tolist()]
        gpf = _gpf_upto(c, 300)
        assert gpf[0] == 0 and gpf[1:].tolist() == [gpf_trial(n) for n in range(1, 301)]

    def test_every_x_on_tiny_blocks(self, monkeypatch):
        """Each x below 120 on a fresh cache: every block boundary in turn."""
        monkeypatch.setattr(shifted_counts, "_BLOCK", 7)
        flags = reference_flags(120)
        for x in range(0, 120):
            c = build_sieve(max(x, 2))
            ps, rs = _shift_gpfs(c, x)
            expected = [p for p in range(2, x + 1) if flags[p]]
            assert ps.tolist() == expected
            assert rs.tolist() == [gpf_trial(p - 1) for p in expected]

    def test_default_block_boundary(self):
        # the first block holds m = 1 .. B, so p = 2B + 1 is its last slot and
        # p = 2B + 3 opens the second block; x lands on, just past and beyond it
        b = shifted_counts._BLOCK
        for x in (2 * b + 1, 2 * b + 2, 2 * b + 3, 2 * b + 200):
            ps, rs = _shift_gpfs(build_sieve(x), x)
            tail = slice(int(np.searchsorted(ps, 2 * b - 400)), None)
            assert rs[tail].tolist() == [gpf_trial(p - 1) for p in ps[tail].tolist()]

    def test_edges(self):
        c = build_sieve(70000)
        ps, rs = _shift_gpfs(c, 70000)
        gpf_of = dict(zip(ps.tolist(), rs.tolist()))
        assert gpf_of[2] == 1  # P+(1) = 1
        assert gpf_of[3] == 2
        for fermat in (5, 17, 257, 65537):  # p - 1 = 2^k: P+(m) = 1 or 2, lifted to 2
            assert gpf_of[fermat] == 2
        for x in (-1, 0, 1):
            ps, rs = _shift_gpfs(c, x)
            assert len(ps) == len(rs) == 0
            assert large_factor_count(c, x, Theta(1, 2)) == 0
            assert smooth_shift_count(c, x, Theta(1, 2)) == 0
        assert large_factor_count_fixed(c, 0, Theta(1, 2)) == 0


class TestCountThresholdChunks:
    @pytest.mark.parametrize("theta", [Theta(1, 2), Theta(2, 3), Theta(1, 3)])
    def test_tiny_chunks_match_one_chunk(self, monkeypatch, theta):
        # pairs with r^den == n^num exactly, and their neighbours n +- 1
        a = np.arange(2, 400, dtype=np.int64)
        r_tie, n_tie = a**theta.num, a**theta.den
        rs = np.concatenate([r_tie, r_tie, r_tie, np.arange(1, 500, dtype=np.int64)])
        ns = np.concatenate([n_tie - 1, n_tie, n_tie + 1, np.arange(700, 1199, dtype=np.int64)])
        one = {op: _count_threshold(rs, ns, theta, op) for op in ("ge", "le")}
        exact = {
            "ge": sum(int(r) ** theta.den >= int(n) ** theta.num for r, n in zip(rs, ns)),
            "le": sum(int(r) ** theta.den <= int(n) ** theta.num for r, n in zip(rs, ns)),
        }
        assert one == exact
        monkeypatch.setattr(shifted_counts, "_BLOCK", 5)
        assert {op: _count_threshold(rs, ns, theta, op) for op in ("ge", "le")} == one


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
