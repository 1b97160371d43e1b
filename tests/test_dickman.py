import math

import numpy as np
import pytest

import spl.dickman as dickman
from spl.dickman import (
    STEP,
    U_CEILING,
    build_rho_table,
    limiting_density,
    rho,
    rho_over_t_integral,
    solve_theta1,
    solve_theta2,
)
from spl.errors import ArgumentError, RangeError
from spl.shifted_counts import Theta

# frozen values from a one-off step-2^-14 forward-quadrature run
RHO3 = 0.04860838829113157
RHO4 = 0.004910925647760832
INT23 = 0.06261150051729455
# frozen values of this module's quadrature run at step 2^-12
RHO5_FINE = 3.547247004560e-4
RHO6_FINE = 1.964969635396e-5


def _on_a_fresh_table(monkeypatch, query):
    """Run `query` on a table it sizes itself, then leave a full build behind it.

    A caller comparing the result with a second `query()` compares the bits of a
    table grown for that query alone with those of one built to U_CEILING at once.
    """
    monkeypatch.setattr(dickman, "_RHO", np.ones(0))
    result = query()
    monkeypatch.setattr(dickman, "_RHO", np.ones(0))
    build_rho_table(U_CEILING)
    return result


class TestBuild:
    def test_plateau_exact(self, rho_table):
        for u in (0.0, 0.25, 0.5, 1.0):
            assert rho(u) == 1.0
        per = int(round(1 / STEP))
        assert np.all(rho_table[: per + 1] == 1.0)

    def test_closed_form_on_1_2(self, rho_table):
        per = int(round(1 / STEP))
        us = np.arange(per, 2 * per + 1) * STEP
        errs = np.abs(rho_table[per : 2 * per + 1] - (1 - np.log(us)))
        assert errs.max() <= 1e-9

    def test_frozen_checkpoints(self):
        assert rho(2.0) == pytest.approx(1 - math.log(2), abs=1e-8)
        assert rho(3.0) == pytest.approx(RHO3, abs=1e-6)
        assert rho(4.0) == pytest.approx(RHO4, abs=1e-6)
        # against the same quadrature at step 2^-12
        assert rho(5.0) == pytest.approx(RHO5_FINE, rel=1e-9)
        assert rho(6.0) == pytest.approx(RHO6_FINE, rel=1e-9)

    def test_decreasing_and_positive(self, rho_table):
        per = int(round(1 / STEP))
        tail = rho_table[per:]
        assert np.all(np.diff(tail) < 0)
        assert np.all(tail > 0)
        assert np.all(rho_table <= 1.0)

    def test_delayed_recurrence(self):
        # rho(u) < rho(u-1) for u > 1
        for u in (1.5, 2.0, 3.3, 6.0):
            assert rho(u) < rho(u - 1)

    def test_delay_equation_residual(self):
        delta = 2 * STEP
        # keep the finite-difference stencil away from the lattice kinks
        us = [u for u in np.arange(1.05, 7.95, 0.01) if abs(u - round(u)) > 0.02]
        worst = 0.0
        for u in us:
            d = (rho(u + delta) - rho(u - delta)) / (2 * delta)
            worst = max(worst, abs(u * d + rho(u - 1)))
        assert worst <= 1e-5

    def test_top_of_table(self, rho_table):
        top = rho((len(rho_table) - 1) * STEP)
        assert top == pytest.approx(3.232069304e-08, rel=1e-4)

    def test_out_of_range(self):
        with pytest.raises(ArgumentError, match="rho is defined for u >= 0"):  # not past the table
            rho(-0.1)

    def test_read_only(self):
        with pytest.raises(ValueError):
            build_rho_table(3.0)[0] = 0.5

    @pytest.mark.parametrize("u", [math.nan, math.inf, -math.inf])
    def test_non_finite_u(self, u):
        with pytest.raises(ArgumentError):
            rho(u)
        with pytest.raises(ArgumentError):
            build_rho_table(u)


class TestTableFor:
    """The kept table grows with the queries, and what it gives does not depend on their order."""

    @pytest.mark.parametrize("u, reach", [(-1.0, 2), (0.5, 2), (2.0, 3), (3.7, 4), (8.0, 9)])
    def test_reach_and_prefix(self, rho_table, u, reach):
        table = build_rho_table(u)
        assert len(table) == reach * round(1 / STEP) + 1
        n = min(len(table), len(rho_table))
        assert np.array_equal(table[:n], rho_table[:n])

    def test_rho_on_a_grid(self, monkeypatch):
        grid = [*(np.arange(3201) / 400), 9.0, U_CEILING]  # [0, 8], every integer exactly
        monkeypatch.setattr(dickman, "_RHO", np.ones(0))
        grown = [rho(u) for u in grid]  # the table grows one unit at a time, then jumps
        assert grown == [rho(u) for u in grid]  # now on one table that reaches U_CEILING
        monkeypatch.setattr(dickman, "_RHO", np.ones(0))
        build_rho_table(U_CEILING)  # one build, from the start
        assert grown == [rho(u) for u in grid]

    def test_solvers(self, monkeypatch):
        assert _on_a_fresh_table(monkeypatch, solve_theta1) == solve_theta1()
        assert _on_a_fresh_table(monkeypatch, solve_theta2) == solve_theta2()
        integral = lambda: rho_over_t_integral(2.0, 3.0)  # noqa: E731
        assert _on_a_fresh_table(monkeypatch, integral) == integral()

    @pytest.mark.parametrize("theta", [Theta(7, 8), Theta(1, 2), Theta(1, 3), Theta(1, 8)])
    def test_density(self, monkeypatch, theta):
        density = lambda: limiting_density(theta)  # noqa: E731
        assert _on_a_fresh_table(monkeypatch, density) == density()

    def test_ceiling(self, monkeypatch):
        # the ceiling refuses no u where rho is nonzero in float64
        assert rho(U_CEILING) == 0.0

        def no_alloc(*args):
            raise AssertionError("a table was allocated")

        monkeypatch.setattr(dickman.np, "ones", no_alloc)
        with pytest.raises(RangeError):
            build_rho_table(math.nextafter(U_CEILING, math.inf))


class TestDensity:
    def test_examples(self):
        assert limiting_density(Theta(1, 2)) == pytest.approx(math.log(2), abs=1e-7)
        # 1/theta = 8/7 lies in (1, 2], where rho(u) = 1 - ln u
        assert limiting_density(Theta(7, 8)) == pytest.approx(math.log(8 / 7), abs=1e-7)
        assert limiting_density(Theta(1, 3)) == pytest.approx(1 - RHO3, abs=1e-6)
        assert limiting_density(Theta(1, 3)) == pytest.approx(0.9513916, abs=1e-6)

    def test_range(self):
        with pytest.raises(ArgumentError):  # the domain check on theta is Theta's own
            limiting_density(Theta(0, 1))


class TestIntegral:
    def test_closed_form(self):
        expected = math.log(2) - math.log(2) ** 2 / 2
        assert rho_over_t_integral(1.0, 2.0) == pytest.approx(expected, abs=1e-7)

    def test_empty(self):
        assert rho_over_t_integral(1.7, 1.7) == 0.0

    def test_frozen_2_3(self):
        assert rho_over_t_integral(2.0, 3.0) == pytest.approx(INT23, abs=1e-6)

    def test_off_grid_endpoints(self):
        # additivity across an off-grid split point
        a, m, b = 1.1117, 1.941, 3.005
        whole = rho_over_t_integral(a, b)
        split = rho_over_t_integral(a, m) + rho_over_t_integral(m, b)
        assert whole == pytest.approx(split, abs=1e-9)

    @pytest.mark.parametrize("a, b", [(2 + 0.1 * STEP, 2 + 0.7 * STEP), (2.5, 2.5 + 0.5 * STEP)])
    def test_inside_one_step(self, a, b):
        """Both ends within one table step (one may sit on the grid): one Simpson panel."""
        n = 64
        ts = [a + (b - a) * i / n for i in range(n + 1)]
        weights = [1] + [4 if i % 2 else 2 for i in range(1, n)] + [1]
        fine = (b - a) / (3 * n) * math.fsum(w * rho(t) / t for w, t in zip(weights, ts))
        assert rho_over_t_integral(a, b) == pytest.approx(fine, rel=1e-12)

    def test_singularity_guard(self):
        with pytest.raises(ArgumentError, match="singular at 0"):
            rho_over_t_integral(0.0, 1.0)
        with pytest.raises(ArgumentError):
            rho_over_t_integral(2.0, 1.0)

    @pytest.mark.parametrize("a, b", [(math.nan, 2.0), (1.0, math.nan)], ids=["a-nan", "b-nan"])
    def test_nan_bounds(self, a, b):
        with pytest.raises(ArgumentError):
            rho_over_t_integral(a, b)


class TestThresholds:
    def test_theta2(self):
        t2 = solve_theta2()
        assert t2 == pytest.approx(0.3734, abs=5e-4)
        assert abs(t2 - 4 * rho(1 / t2)) <= 1e-10

    def test_theta1(self):
        t1 = solve_theta1()
        assert t1 == pytest.approx(0.3517, abs=5e-4)
        u = 1 / t1
        assert abs(t1 - 4 * rho_over_t_integral(u - 1, u)) <= 1e-10

    def test_ordering(self):
        assert solve_theta1() < solve_theta2()

    def test_bracket_orientation(self):
        # f is decreasing on the bracket: positive at 0.25, negative at 0.45
        f = lambda th: th - 4 * rho(1 / th)
        assert f(0.25) > 0 > f(0.45)

    def test_no_sign_change(self):
        from spl.dickman import _bisect

        with pytest.raises(RangeError, match="no sign change"):
            _bisect(lambda x: x * x + 1.0, 0.0, 1.0)
