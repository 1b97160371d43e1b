import math

import numpy as np
import pytest

import spl.dickman as dickman
from spl.dickman import (
    SOLVER_U,
    STEP,
    U_CEILING,
    build_rho_table,
    limiting_density,
    rho,
    rho_over_t_integral,
    solve_theta1,
    solve_theta2,
)
from spl.errors import ArgumentError, DomainError, RangeError, SolverError
from spl.shifted_counts import Theta

# frozen values from a one-off step-2^-14 forward-quadrature run
RHO3 = 0.04860838829113157
RHO4 = 0.004910925647760832
INT23 = 0.06261150051729455
# frozen values of this module's quadrature run at step 2^-12
RHO5_FINE = 3.547247004560e-4
RHO6_FINE = 1.964969635396e-5


class TestBuild:
    def test_plateau_exact(self, rho_table):
        for u in (0.0, 0.25, 0.5, 1.0):
            assert rho(rho_table, u) == 1.0
        per = int(round(1 / STEP))
        assert np.all(rho_table.values[: per + 1] == 1.0)

    def test_closed_form_on_1_2(self, rho_table):
        per = int(round(1 / STEP))
        us = np.arange(per, 2 * per + 1) * STEP
        errs = np.abs(rho_table.values[per : 2 * per + 1] - (1 - np.log(us)))
        assert errs.max() <= 1e-9

    def test_frozen_checkpoints(self, rho_table):
        assert rho(rho_table, 2.0) == pytest.approx(1 - math.log(2), abs=1e-8)
        assert rho(rho_table, 3.0) == pytest.approx(RHO3, abs=1e-6)
        assert rho(rho_table, 4.0) == pytest.approx(RHO4, abs=1e-6)
        # against the same quadrature at step 2^-12
        assert rho(rho_table, 5.0) == pytest.approx(RHO5_FINE, rel=1e-9)
        assert rho(rho_table, 6.0) == pytest.approx(RHO6_FINE, rel=1e-9)

    def test_decreasing_and_positive(self, rho_table):
        per = int(round(1 / STEP))
        tail = rho_table.values[per:]
        assert np.all(np.diff(tail) < 0)
        assert np.all(tail > 0)
        assert np.all(rho_table.values <= 1.0)

    def test_delayed_recurrence(self, rho_table):
        # rho(u) < rho(u-1) for u > 1
        for u in (1.5, 2.0, 3.3, 6.0):
            assert rho(rho_table, u) < rho(rho_table, u - 1)

    def test_delay_equation_residual(self, rho_table):
        delta = 2 * STEP
        # keep the finite-difference stencil away from the lattice kinks
        us = [u for u in np.arange(1.05, 7.95, 0.01) if abs(u - round(u)) > 0.02]
        worst = 0.0
        for u in us:
            d = (rho(rho_table, u + delta) - rho(rho_table, u - delta)) / (2 * delta)
            worst = max(worst, abs(u * d + rho(rho_table, u - 1)))
        assert worst <= 1e-5

    def test_top_of_table(self, rho_table):
        top = rho(rho_table, rho_table.u_max)
        assert top == pytest.approx(3.232069304e-08, rel=1e-4)

    def test_out_of_range(self, rho_table):
        with pytest.raises(RangeError):
            rho(rho_table, 8.5)
        with pytest.raises(DomainError):  # below rho's domain, not past the table
            rho(rho_table, -0.1)

    @pytest.mark.parametrize("u", [math.nan, math.inf, -math.inf])
    def test_non_finite_u(self, rho_table, u):
        with pytest.raises(ArgumentError):
            rho(rho_table, u)
        with pytest.raises(ArgumentError):
            build_rho_table(u)


class TestTableFor:
    """A table built for its query gives the bits of the 8-unit table."""

    @pytest.mark.parametrize("u, reach", [(-1.0, 2), (0.5, 2), (2.0, 3), (3.7, 4), (8.0, 9)])
    def test_reach_and_prefix(self, rho_table, u, reach):
        table = build_rho_table(u)
        assert table.u_max == reach and len(table.values) == reach * round(1 / STEP) + 1
        n = min(len(table.values), len(rho_table.values))
        assert np.array_equal(table.values[:n], rho_table.values[:n])

    def test_rho_on_a_grid(self, rho_table):
        tables = {}  # build_rho_table(u) depends on floor(u) alone
        for u in np.arange(3201) / 400:  # [0, 8], every integer exactly
            if math.floor(u) not in tables:
                tables[math.floor(u)] = build_rho_table(u)
            assert rho(tables[math.floor(u)], u) == rho(rho_table, u), u

    def test_solvers(self, rho_table):
        table = build_rho_table(SOLVER_U)
        assert solve_theta1(table) == solve_theta1(rho_table)
        assert solve_theta2(table) == solve_theta2(rho_table)

    @pytest.mark.parametrize("theta", [Theta(7, 8), Theta(1, 2), Theta(1, 3), Theta(1, 8)])
    def test_density(self, rho_table, theta):
        table = build_rho_table(1 / theta.as_real)
        assert limiting_density(table, theta) == limiting_density(rho_table, theta)

    def test_ceiling(self, monkeypatch):
        # the ceiling refuses no u where rho is nonzero in float64
        assert rho(build_rho_table(U_CEILING), U_CEILING) == 0.0

        def no_alloc(*args):
            raise AssertionError("a table was allocated")

        monkeypatch.setattr(dickman.np, "ones", no_alloc)
        with pytest.raises(RangeError):
            build_rho_table(math.nextafter(U_CEILING, math.inf))


class TestDensity:
    def test_examples(self, rho_table):
        assert limiting_density(rho_table, Theta(1, 2)) == pytest.approx(math.log(2), abs=1e-7)
        # 1/theta = 8/7 lies in (1, 2], where rho(u) = 1 - ln u
        assert limiting_density(rho_table, Theta(7, 8)) == pytest.approx(math.log(8 / 7), abs=1e-7)
        assert limiting_density(rho_table, Theta(1, 3)) == pytest.approx(1 - RHO3, abs=1e-6)
        assert limiting_density(rho_table, Theta(1, 3)) == pytest.approx(0.9513916, abs=1e-6)

    def test_range(self, rho_table):
        with pytest.raises(RangeError):
            limiting_density(rho_table, Theta(1, 9))
        with pytest.raises(ArgumentError):  # the domain check on theta is Theta's own
            limiting_density(rho_table, Theta(0, 1))


class TestIntegral:
    def test_closed_form(self, rho_table):
        expected = math.log(2) - math.log(2) ** 2 / 2
        assert rho_over_t_integral(rho_table, 1.0, 2.0) == pytest.approx(expected, abs=1e-7)

    def test_empty(self, rho_table):
        assert rho_over_t_integral(rho_table, 1.7, 1.7) == 0.0

    def test_frozen_2_3(self, rho_table):
        assert rho_over_t_integral(rho_table, 2.0, 3.0) == pytest.approx(INT23, abs=1e-6)

    def test_off_grid_endpoints(self, rho_table):
        # additivity across an off-grid split point
        a, m, b = 1.1117, 1.941, 3.005
        whole = rho_over_t_integral(rho_table, a, b)
        split = rho_over_t_integral(rho_table, a, m) + rho_over_t_integral(rho_table, m, b)
        assert whole == pytest.approx(split, abs=1e-9)

    def test_singularity_guard(self, rho_table):
        with pytest.raises(DomainError):
            rho_over_t_integral(rho_table, 0.0, 1.0)
        with pytest.raises(ArgumentError):
            rho_over_t_integral(rho_table, 2.0, 1.0)
        with pytest.raises(RangeError):
            rho_over_t_integral(rho_table, 1.0, 9.0)

    @pytest.mark.parametrize("a, b", [(math.nan, 2.0), (1.0, math.nan)], ids=["a-nan", "b-nan"])
    def test_nan_bounds(self, rho_table, a, b):
        with pytest.raises(ArgumentError):
            rho_over_t_integral(rho_table, a, b)


class TestThresholds:
    def test_theta2(self, rho_table):
        t2 = solve_theta2(rho_table)
        assert t2 == pytest.approx(0.3734, abs=5e-4)
        assert abs(t2 - 4 * rho(rho_table, 1 / t2)) <= 1e-10

    def test_theta1(self, rho_table):
        t1 = solve_theta1(rho_table)
        assert t1 == pytest.approx(0.3517, abs=5e-4)
        u = 1 / t1
        assert abs(t1 - 4 * rho_over_t_integral(rho_table, u - 1, u)) <= 1e-10

    def test_ordering(self, rho_table):
        assert solve_theta1(rho_table) < solve_theta2(rho_table)

    def test_bracket_orientation(self, rho_table):
        # f is decreasing on the bracket: positive at 0.25, negative at 0.45
        f = lambda th: th - 4 * rho(rho_table, 1 / th)
        assert f(0.25) > 0 > f(0.45)

    def test_requires_coverage(self):
        small = build_rho_table(2.0)  # reaches u = 3
        with pytest.raises(RangeError):
            solve_theta2(small)

    def test_no_sign_change(self, rho_table):
        from spl.dickman import _bisect

        with pytest.raises(SolverError):
            _bisect(lambda x: x * x + 1.0, 0.0, 1.0)
