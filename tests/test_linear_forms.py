import math

import numpy as np
import pytest

from conftest import reference_flags
from spl.core_primes import prime_count
from spl.errors import ArgumentError, DegeneracyError, DomainError, RangeError
from spl.linear_forms import (
    abel_identity_rhs,
    as_step_function,
    count_simultaneous,
    inverse_power_prime_sum,
    local_factor_pos,
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
        assert s.shifts_view == (2, 4)

    def test_shifts_example(self):
        assert system_from_shifts([2, 3]).discriminant == 6
        assert system_from_shifts([3, 2]).discriminant == 6  # order-insensitive

    def test_degenerate(self):
        with pytest.raises(DegeneracyError):
            system_from_shifts([2, 2])
        with pytest.raises(DegeneracyError):
            make_system([(2, 1), (2, 1)])

    def test_bad_forms(self):
        with pytest.raises(ArgumentError):
            make_system([])
        with pytest.raises(ArgumentError):
            make_system([(0, 1)])
        with pytest.raises(ArgumentError):
            system_from_shifts([0, 2])

    def test_shifts_view_none_for_general_forms(self):
        assert make_system([(2, 3)]).shifts_view is None


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

    def test_step_function_consistency(self, cache):
        s = system_from_shifts([2, 6])
        m = as_step_function(cache, 3000, s)
        for t in (2, 3, 17, 100, 999, 3000):
            assert m.at(t) == count_simultaneous(cache, t, s)
        assert m.at(1) == 0
        assert np.all(np.diff(m.breakpoints) > 0)
        assert np.array_equal(m.values, np.arange(1, len(m.breakpoints) + 1))


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
        with pytest.raises(DomainError):
            sieve_bound_value(2, system_from_shifts([2]))

    def test_majorant_constant_frozen(self, big_cache):
        """M(t)/majorant stays below the recorded constant on [1e3, 1e7]."""
        frozen = {(2,): 1.0, (2, 4): 0.12}
        ts = np.unique(np.logspace(3, 7, 50).astype(np.int64))
        for shifts, cap in frozen.items():
            s = system_from_shifts(shifts)
            m = as_step_function(big_cache, 10**7, s)
            ratios = [m.at(int(t)) / sieve_bound_value(int(t), s) for t in ts]
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


class TestLocalFactorPos:
    def test_examples(self):
        assert local_factor_pos(6, 2) == pytest.approx(4.0, rel=1e-12)
        assert local_factor_pos(1, 5) == 1.0
        assert local_factor_pos(2, 1) == 1.5
        assert local_factor_pos(-6, 1) == pytest.approx(2.0, rel=1e-12)

    def test_degenerate(self):
        with pytest.raises(DegeneracyError):
            local_factor_pos(0, 1)
        with pytest.raises(ArgumentError):
            local_factor_pos(6, 0)


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
