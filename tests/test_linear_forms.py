import itertools
import math

import numpy as np
import pytest

from conftest import reference_flags
from spl import linear_forms
from spl.core_primes import build_sieve, floor_root, prime_count
from spl.errors import ArgumentError, RangeError
from spl.linear_forms import (
    _qualifying_primes,
    abel_identity_rhs,
    count_simultaneous,
    form_sieve_limit,
    inverse_power_prime_sum,
    local_rho,
    make_system,
    range_bounds_exact,
    sieve_bound_value,
    system_from_shifts,
)
from spl.shifted_counts import Theta


class TestMakeSystem:
    def test_forms_example(self):
        s = make_system([(2, 1), (4, 1)])
        assert s.discriminant == -16
        assert s.distinct_prime_divisors == (2,)

    def test_shifts_example(self):
        assert system_from_shifts([2, 3]).discriminant == 6
        assert system_from_shifts([3, 2]).discriminant == 6  # order-insensitive

    def test_shifts_discriminant_formula(self):
        """prod(h) * prod over i < j of (h_j - h_i), ascending h, for every 2- and 3-subset of 1..8."""
        for g in (2, 3):
            for hs in itertools.combinations(range(1, 9), g):
                want = math.prod(hs) * math.prod(hj - hi for hi, hj in itertools.combinations(hs, 2))
                assert system_from_shifts(hs).discriminant == want
                assert system_from_shifts(hs[::-1]).discriminant == want

    def test_degenerate(self):
        with pytest.raises(ArgumentError, match="degenerate system"):
            system_from_shifts([2, 2])
        with pytest.raises(ArgumentError, match="degenerate system"):
            make_system([(2, 1), (2, 1)])

    def test_bad_forms(self):
        with pytest.raises(ArgumentError):
            make_system([])
        with pytest.raises(ArgumentError):
            make_system([(0, 1)])
        with pytest.raises(ArgumentError):
            system_from_shifts([0, 2])


class TestLocalRho:
    def test_examples(self):
        assert local_rho(make_system([(2, 1), (4, 1)]), 3) == 2
        assert local_rho(system_from_shifts([2]), 2) == 0
        for p in (2, 3, 7, 31):
            assert local_rho(make_system([(1, 0)]), p) == 1

    def test_bounds(self):
        systems = [
            system_from_shifts([2]),
            system_from_shifts([2, 4]),
            make_system([(2, 1), (3, 2), (5, 4)]),
        ]
        for s in systems:
            g = len(s.forms)
            for p in (2, 3, 5, 7, 11, 13, 37):
                r = local_rho(s, p)
                assert 0 <= r <= min(g, p)

    def test_full_rank_away_from_e(self):
        # for p not dividing E and beyond the coefficients, every form
        # contributes a distinct root
        s = system_from_shifts([2, 4])  # E = 16
        for p in (3, 5, 7, 11):
            assert local_rho(s, p) == 2

    def test_identical_vanishing(self):
        s = make_system([(2, 4)])  # 2n + 4 = 0 mod 2 always
        assert local_rho(s, 2) == 2


class TestCountSimultaneous:
    def test_examples(self, cache):
        assert count_simultaneous(cache, 20, system_from_shifts([2])) == 4
        assert count_simultaneous(cache, 10, system_from_shifts([2, 4])) == 1
        assert count_simultaneous(cache, 2, system_from_shifts([2])) == 1

    def test_brute_force(self, cache):
        t = 500
        flags = reference_flags(5 * t + 4)
        s = make_system([(3, 2), (5, 4)])
        expected = sum(
            1 for p in range(2, t + 1) if flags[p] and flags[3 * p + 2] and flags[5 * p + 4]
        )
        assert count_simultaneous(cache, t, s) == expected
        # a form that is negative, 0 or 1 at small p: those values are not prime
        s = make_system([(3, 2), (1, -5)])
        expected = sum(
            1 for p in range(2, t + 1) if flags[p] and flags[3 * p + 2] and p > 5 and flags[p - 5]
        )
        assert count_simultaneous(cache, t, s) == expected

    def test_bounded_by_pi_and_monotone(self, cache):
        s = system_from_shifts([2])
        vals = [count_simultaneous(cache, t, s) for t in (10, 100, 1000, 10000)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        for t, v in zip((10, 100, 1000, 10000), vals):
            assert v <= prime_count(cache, t)

    def test_range_error(self, cache):
        with pytest.raises(RangeError):
            count_simultaneous(cache, cache.limit, system_from_shifts([2]))

    def test_sieve_limit_is_the_forms_reach(self):
        """A sieve of exactly form_sieve_limit(t) serves M(t); one entry less is refused."""
        t = 1000
        for s, limit in (
            (system_from_shifts([2, 6]), 6001),
            (make_system([(3, 2), (1, -5)]), 3002),
            (make_system([(1, -5)]), 1000),  # p itself reaches past every form
        ):
            assert form_sieve_limit(t, s) == limit
            exact = build_sieve(limit)
            assert count_simultaneous(exact, t, s) == count_simultaneous(build_sieve(limit + 50), t, s)
            with pytest.raises(RangeError):
                count_simultaneous(build_sieve(limit - 1), t, s)


class TestSieveBound:
    def test_example(self):
        s = system_from_shifts([2])
        assert sieve_bound_value(100, s) == pytest.approx(2 * 100 / math.log(100) ** 2, abs=1e-9)
        assert sieve_bound_value(100, s) == pytest.approx(9.430, abs=1e-3)

    def test_scaling(self):
        s = system_from_shifts([2, 4])
        g = 2
        for y in (100, 1000, 12345):
            lhs = sieve_bound_value(10 * y, s) / sieve_bound_value(y, s)
            rhs = 10 * (math.log(y) / math.log(10 * y)) ** (g + 1)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ArgumentError, match="majorant needs y >= 3"):
            sieve_bound_value(2, system_from_shifts([2]))

    def test_majorant_constant_frozen(self, big_cache):
        """M(t)/majorant stays below the recorded constant on [1e3, 1e7]."""
        frozen = {(2,): 1.0, (2, 4): 0.12}
        ts = np.unique(np.logspace(3, 7, 50).astype(np.int64))
        for shifts, cap in frozen.items():
            s = system_from_shifts(shifts)
            qs = _qualifying_primes(big_cache, 0, 10**7, s)
            ratios = [int(np.searchsorted(qs, t, side="right")) / sieve_bound_value(int(t), s) for t in ts]
            assert max(ratios) <= cap

    def test_local_factor_chain(self):
        """Each majorant factor is dominated by (1+1/p)^g up to (1-1/p^2)^-g.

        The bare pointwise comparison fails at rho(p) = 0 (e.g. p = 2, g = 1:
        2 > 3/2); the chain really carries the convergent correction
        (1-1/p^2)^-g per prime, zeta(2)^g overall, which is what the
        unspecified implied constant absorbs.
        """
        for s in (system_from_shifts([2]), system_from_shifts([2, 4]), system_from_shifts([2, 3, 5])):
            g = len(s.forms)
            lhs_prod = rhs_prod = 1.0
            for p in s.distinct_prime_divisors:
                rho_p = local_rho(s, p)
                lhs = (1 - 1 / p) ** (rho_p - g)
                rhs = (1 + 1 / p) ** g
                assert lhs <= (1 - 1 / p**2) ** (-g) * rhs * (1 + 1e-12)
                lhs_prod *= lhs
                rhs_prod *= rhs
            zeta2 = math.pi**2 / 6
            assert lhs_prod <= zeta2**g * rhs_prod * (1 + 1e-12)


class TestAbelIdentity:
    def test_seven_term_example(self, cache):
        s = system_from_shifts([2])
        val = inverse_power_prime_sum(cache, 10**4, 2, Theta(1, 4), s)
        expected = sum(1 / (p * p) for p in (11, 23, 29, 41, 53, 83, 89))
        assert val == pytest.approx(expected, abs=1e-12)
        assert val == pytest.approx(0.012566, abs=1e-6)

    def test_empty_range(self, cache):
        s = system_from_shifts([2])
        assert inverse_power_prime_sum(cache, 20, 2, Theta(1, 2), s) == 0.0
        assert abel_identity_rhs(cache, 20, 2, Theta(1, 2), s) == 0.0

    def test_inverted_range_is_exactly_zero(self, cache):
        """(x/2)^theta above x^(1/k): both sides are exactly 0.0 without a scan."""
        s = system_from_shifts([2])
        u, v = range_bounds_exact(100, 2, Theta(3, 4))
        assert u >= v
        for side in (inverse_power_prime_sum, abel_identity_rhs):
            got = side(cache, 100, 2, Theta(3, 4), s)
            assert type(got) is float and got == 0.0

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_names_k(self, cache, k):
        s = system_from_shifts([2])
        for f in (inverse_power_prime_sum, abel_identity_rhs):
            with pytest.raises(ArgumentError, match=f"k >= 1, got {k}"):
                f(cache, 1000, k, Theta(1, 4), s)
        with pytest.raises(ArgumentError, match=f"k >= 1, got {k}"):
            range_bounds_exact(1000, k, Theta(1, 4))

    def test_identity_spec_cases(self, cache):
        for x, k, th, shifts in (
            (10**4, 2, Theta(1, 4), [2]),
            (10**5, 3, Theta(1, 6), [2, 4]),
        ):
            s = system_from_shifts(shifts)
            lhs = inverse_power_prime_sum(cache, x, k, th, s)
            rhs = abel_identity_rhs(cache, x, k, th, s)
            assert abs(lhs - rhs) / max(lhs, 1e-30) <= 1e-10

    def test_range_bounds_are_exact(self):
        # p qualifies iff u < p <= v with u = (x/2)^theta, v = x^(1/k)
        u, v = range_bounds_exact(10**4, 2, Theta(1, 4))
        assert u == 8  # (5000)^(1/4) = 8.409...
        assert v == 100
        u, v = range_bounds_exact(10**4, 2, Theta(1, 2))
        assert u == 70  # sqrt(5000) = 70.71...
        u, v = range_bounds_exact(2**20, 2, Theta(1, 2))
        assert v == 1024  # exact k-th power boundary is inclusive

    def test_range_error_on_uncovered_forms(self, cache):
        s = system_from_shifts([3])
        with pytest.raises(RangeError):
            inverse_power_prime_sum(cache, cache.limit**2, 2, Theta(1, 4), s)


class TestAbelArrays:
    """The float64-array Abel sides equal the list expressions they replaced, bit for bit."""

    # (x, k): all q^k < 2^53 at 2e12 and 2e15; at 1e17 the q^k past 2^53
    # (q > 9741 for k = 4) take the int route
    CASES = ((2 * 10**12, 3), (2 * 10**15, 3), (2 * 10**15, 4), (10**17, 4))

    @staticmethod
    def _list_sides(qs: list, x: int, k: int):
        lhs = math.fsum(1.0 / (q**k) for q in qs)
        if not qs:
            return lhs, 0.0
        n = len(qs)
        inv = [1.0 / (q**k) for q in qs]
        inv.append(1.0 / x)
        pieces = (i * (inv[i - 1] - inv[i]) for i in range(1, n + 1))
        return lhs, math.fsum(itertools.chain(pieces, [n * inv[n]]))

    @pytest.mark.parametrize("x, k", CASES)
    @pytest.mark.parametrize("shifts", [[2], [2, 6]])
    def test_bit_identical_to_list_route(self, cache, x, k, shifts):
        s = system_from_shifts(shifts)
        th = Theta(1, 2 * k)
        u, v = range_bounds_exact(x, k, th)
        qs = [q for q in _qualifying_primes(cache, 0, v, s).tolist() if q > u]
        assert len(qs) > 10
        lhs, rhs = self._list_sides(qs, x, k)
        assert inverse_power_prime_sum(cache, x, k, th, s) == lhs
        assert abel_identity_rhs(cache, x, k, th, s) == rhs

    def test_int_route_is_exercised(self):
        assert floor_root(2**53 - 1, 4) == 9741 < floor_root(10**17, 4)


class TestChunkedScan:
    """The forms are evaluated a chunk of primes at a time; the chunk size changes nothing."""

    SYSTEMS = (
        ((2,), None),
        ((2, 6), None),
        ((4, 6, 10), None),
        (None, ((3, 2), (1, -5))),
        (None, ((3, 2), (5, 4))),
    )
    TS = (1, 2, 10, 977, 3000)
    ABEL_CASES = ((10**7, 2, Theta(1, 4)), (10**9, 3, Theta(1, 6)))  # p <= 3162 and p <= 1000

    @staticmethod
    def _brute(flags, s, lo, hi) -> list:
        def prime(n):
            return n >= 2 and bool(flags[n])

        return [
            p for p in range(max(lo + 1, 2), hi + 1)
            if prime(p) and all(prime(a * p + b) for a, b in s.forms)
        ]

    def _values(self, cache, s):
        qs = _qualifying_primes(cache, 0, self.TS[-1], s)
        counts = [count_simultaneous(cache, t, s) for t in self.TS]
        abel = [
            (inverse_power_prime_sum(cache, x, k, th, s), abel_identity_rhs(cache, x, k, th, s))
            for x, k, th in self.ABEL_CASES
        ]
        return qs.tolist(), counts, abel

    @pytest.mark.parametrize("shifts, forms", SYSTEMS)
    def test_tiny_chunks_match_default_and_brute_force(self, cache, monkeypatch, shifts, forms):
        s = system_from_shifts(shifts) if forms is None else make_system(forms)
        default = self._values(cache, s)
        for chunk in (1, 3, 7):
            monkeypatch.setattr(linear_forms, "_CHUNK", chunk)
            assert self._values(cache, s) == default
        flags = reference_flags(10 * 3162 + 4)  # every form at every p tested below
        bps, counts, abel = default
        assert bps == self._brute(flags, s, 0, self.TS[-1])
        assert counts == [len(self._brute(flags, s, 0, t)) for t in self.TS]
        for (lhs, rhs), (x, k, th) in zip(abel, self.ABEL_CASES):
            u, v = range_bounds_exact(x, k, th)
            assert lhs == math.fsum(1.0 / p**k for p in self._brute(flags, s, u, v))
            assert abs(lhs - rhs) <= 1e-10 * max(lhs, 1e-30)
