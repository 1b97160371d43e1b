import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import factor_trial
from spl.core_primes import build_spf, factorize
from spl.errors import ArgumentError, BudgetError
from spl.weighted_sums import (
    _BLOCK,
    SMALL_PRIMES,
    _factor_table,
    _prime_tables,
    _without_primes,
    holder_grid,
    holder_verify,
    mobius_expansion_check,
    single_weighted_sum,
    tuple_budget,
    weighted_tuple_sum,
    weighted_tuple_sum_grid,
)


def one_plus_inv_primes(n: int) -> float:
    """prod over p | n of (1 + 1/p), by test-side trial division."""
    return math.prod(1 + 1 / p for p, _ in factor_trial(n))


def w_sum_oracle(g: int, ell: int, z: int) -> float:
    """Definitional tuple sum with per-tuple refactoring of E."""
    total = 0.0
    for tup in combinations(range(2, z), g):
        e = 1
        for h in tup:
            e *= h
        for i in range(g):
            for j in range(i + 1, g):
                e *= tup[j] - tup[i]
        term = one_plus_inv_primes(e) ** ell
        for h in tup:
            term /= h
        total += term
    return total


def moments_oracle(g: int, ell: int, z: int):
    """Definitional aj and ars moment sums, pairs (s, r) in lexicographic order."""
    G = math.comb(g + 1, 2)
    pairs = [(s, r) for s in range(g) for r in range(s + 1, g)]
    aj = [0.0] * g
    ars = [0.0] * len(pairs)
    for tup in combinations(range(2, z), g):
        inv = 1 / math.prod(tup)
        for j in range(g):
            aj[j] += one_plus_inv_primes(tup[j]) ** (ell * G) * inv
        for idx, (s, r) in enumerate(pairs):
            ars[idx] += one_plus_inv_primes(tup[r] - tup[s]) ** (ell * G) * inv
    return aj, ars


class TestWSum:
    def test_hand_examples(self):
        assert weighted_tuple_sum(1, 1, 4) == pytest.approx(3 / 4 + 4 / 9, abs=1e-9)
        assert weighted_tuple_sum(2, 1, 3) == 0.0
        assert weighted_tuple_sum(2, 1, 4) == pytest.approx(1 / 3, abs=1e-9)

    @pytest.mark.parametrize(
        "g,ell,z", [(1, 2, 30), (2, 1, 12), (2, 3, 20), (3, 2, 14), (4, 1, 13), (5, 1, 12), (6, 1, 11)]
    )
    def test_matches_definitional_oracle(self, g, ell, z):
        assert weighted_tuple_sum(g, ell, z) == pytest.approx(w_sum_oracle(g, ell, z), rel=1e-12)

    def test_budget(self):
        assert tuple_budget(2, 100) == math.comb(98, 2)
        with pytest.raises(BudgetError):
            weighted_tuple_sum(2, 1, 10**6)

    def test_validation(self):
        with pytest.raises(ArgumentError):
            weighted_tuple_sum(0, 1, 10)
        with pytest.raises(ArgumentError):
            weighted_tuple_sum(1, 0, 10)
        with pytest.raises(ArgumentError):
            weighted_tuple_sum(1, 1, 1)

    def test_grid_matches_pointwise(self):
        grid = weighted_tuple_sum_grid(2, 2, 60)
        for z in (2, 3, 10, 37, 60):
            assert grid[z] == pytest.approx(weighted_tuple_sum(2, 2, z), rel=1e-13, abs=1e-300)


class TestSingleWeightedSum:
    def test_examples(self):
        assert single_weighted_sum(4, 1) == pytest.approx(1.19444444, abs=1e-8)
        assert single_weighted_sum(3, 5) == pytest.approx((1 / 2) * (3 / 2) ** 5, rel=1e-12)
        assert single_weighted_sum(2, 1) == 0.0

    def test_log_normalized_bounded(self):
        # frozen regression ceilings; the e = 9 constant is large but finite
        caps = {1: 1.5, 3: 4.5, 9: 240.0}
        for e, cap in caps.items():
            for j in (6, 8, 10, 12, 14):
                assert single_weighted_sum(2**j, e) / (j * math.log(2)) <= cap


class TestMobiusExpansion:
    def test_examples(self):
        assert mobius_expansion_check(6, 2) == (Fraction(10, 3), Fraction(10, 3))
        lhs, rhs = mobius_expansion_check(4, 3)
        assert lhs == rhs == Fraction(5, 2)
        for p in (2, 3, 31):
            lhs, rhs = mobius_expansion_check(p, 7)
            assert lhs == rhs == 1 + Fraction(7, p)

    def test_rejects_h_below_two(self):
        with pytest.raises(ArgumentError):
            mobius_expansion_check(1, 2)

    @given(st.integers(2, 5000), st.sampled_from([2, 8, 64, 3, 100]))
    @settings(deadline=None, max_examples=200)
    def test_identity_exact(self, h, l_param):
        lhs, rhs = mobius_expansion_check(h, l_param)
        assert lhs == rhs

    def test_against_fraction_oracle(self):
        # direct Fraction evaluation over all divisors, squarefree filtered
        for h, L in ((360, 8), (1024, 64), (9699, 2)):
            divisors = [d for d in range(1, h + 1) if h % d == 0]
            rhs = Fraction(0)
            for d in divisors:
                fac = {}
                m = d
                e = 2
                square_free = True
                while e * e <= m:
                    while m % e == 0:
                        fac[e] = fac.get(e, 0) + 1
                        m //= e
                    e += 1
                if m > 1:
                    fac[m] = fac.get(m, 0) + 1
                if any(v > 1 for v in fac.values()):
                    continue
                rhs += Fraction(L ** len(fac), d)
            assert mobius_expansion_check(h, L)[1] == rhs


class TestMoments:
    def test_g1_collapses_to_single_sum(self):
        for z in (5, 20, 100):
            d = holder_verify(1, 3, z)
            assert d.aj_moments[0] == pytest.approx(single_weighted_sum(z, 3), rel=1e-12, abs=1e-300)

    def test_one_tuple_examples(self):
        d = holder_verify(2, 1, 4)
        assert d.aj_moments[0] == pytest.approx((1 / 6) * (3 / 2) ** 3, rel=1e-12)
        assert d.ars_moments == pytest.approx([1 / 6], rel=1e-12)

    @pytest.mark.parametrize("g,ell,z", [(2, 2, 40), (3, 1, 22), (4, 1, 14)])
    def test_every_row_matches_definitional_oracle(self, g, ell, z):
        aj, ars = moments_oracle(g, ell, z)
        d = holder_verify(g, ell, z)
        assert d.aj_moments == pytest.approx(aj, rel=1e-12)
        assert d.ars_moments == pytest.approx(ars, rel=1e-12)


class TestHolder:
    def test_g1_equality(self):
        for z in (4, 64, 256):
            d = holder_verify(1, 2, z)
            assert d.G == 1 and d.L == 4
            assert abs(d.w_value - d.holder_bound) <= 1e-12 * max(d.w_value, 1.0)

    def test_small_cases(self):
        d = holder_verify(2, 1, 6)
        assert d.G == 3 and d.L == 8
        assert len(d.aj_moments) == 2 and len(d.ars_moments) == 1
        assert d.w_value <= d.holder_bound * (1 + 1e-9)
        d = holder_verify(3, 3, 50)
        assert d.G == 6 and d.L == 2**18
        assert d.w_value <= d.holder_bound * (1 + 1e-9)

    def test_grid_consistency(self):
        diags = holder_grid(2, 2, 40)
        direct = holder_verify(2, 2, 25)
        grid = diags[25 - 2]
        assert grid.w_value == pytest.approx(direct.w_value, rel=1e-13, abs=1e-300)
        assert grid.holder_bound == pytest.approx(direct.holder_bound, rel=1e-12, abs=1e-300)

    def test_shape_bands(self):
        """weighted_tuple_sum(g, g, z)/(log z)^g stays inside frozen max/min bands."""
        bands = {1: (range(6, 17), 1.2), 2: (range(6, 15), 1.35), 3: (range(6, 11), 1.7)}
        for g, (js, cap) in bands.items():
            grid = weighted_tuple_sum_grid(g, g, 2 ** max(js))
            ratios = [grid[2**j] / math.log(2**j) ** g for j in js]
            assert max(ratios) / min(ratios) <= cap

    def test_trivial_majorant_dominates(self):
        # naive bound: harmonic^g / g! times the worst local factor to the G
        for g, z in ((1, 200), (2, 120), (3, 40)):
            G = g + math.comb(g, 2)
            worst = max(one_plus_inv_primes(h) for h in range(2, z)) ** (g * G)
            harmonic = sum(1 / h for h in range(2, z))
            assert weighted_tuple_sum(g, g, z) <= harmonic**g / math.factorial(g) * worst


class TestKernelPrefix:
    def test_prefix_kernel_beyond_int64(self):
        """The g = 6 prefix (11, 15, 58, 82, 89) at z = 99 has a kernel above 2**63.

        The scan never forms that kernel: it divides the prefix's primes out
        of the factor table, which must agree with F(n) / F(gcd(rad n, R)).
        """
        z = 99
        prefix = (11, 15, 58, 82, 89)
        elements = list(prefix) + [b - a for a, b in combinations(prefix, 2)]

        def rad(n):
            return math.prod(p for p, _ in factor_trial(n))

        kernel = 1
        for e in elements:
            kernel = kernel * rad(e) // math.gcd(kernel, rad(e))
        assert kernel > 2**63
        ps = sorted({p for e in elements for p, _ in factor_trial(e)})
        f = _factor_table(z)
        f_ps, f_rest = _without_primes(f, ps)
        assert f_ps == pytest.approx(one_plus_inv_primes(kernel), rel=1e-14)
        for n in range(1, z):
            want = one_plus_inv_primes(n) / one_plus_inv_primes(math.gcd(rad(n), kernel))
            assert f_rest[n] == pytest.approx(want, rel=1e-14)


def elementwise_oracle(g: int, ell: int, z: int):
    """w, aj and ars by trial division of each element of E: the union of their primes.

    No kernel product is formed; rows are ordered as in moments_oracle.
    """
    G = math.comb(g + 1, 2)
    pairs = [(s, r) for s in range(g) for r in range(s + 1, g)]
    primes = [frozenset()] + [frozenset(p for p, _ in factor_trial(n)) for n in range(1, z)]
    fac = [0.0] + [one_plus_inv_primes(n) ** (ell * G) for n in range(1, z)]
    w, aj, ars = 0.0, [0.0] * g, [0.0] * len(pairs)
    for tup in combinations(range(2, z), g):
        diffs = [tup[r] - tup[s] for s, r in pairs]
        union = frozenset().union(*(primes[e] for e in (*tup, *diffs)))
        inv = 1 / math.prod(tup)
        w += math.prod(1 + 1 / p for p in union) ** ell * inv
        for j, e in enumerate(tup):
            aj[j] += fac[e] * inv
        for idx, e in enumerate(diffs):
            ars[idx] += fac[e] * inv
    return w, aj, ars


class TestCorrectionPath:
    """z > 41, so primes on both sides of the 37 mask boundary divide two elements."""

    # Witness tuples, each a case the scan must get right: 37 is a mask bit,
    # 41 and 43 go through the rank-1 product and its sparse correction.
    CASES = {
        (2, 2, 160): [
            (37, 74),  # 37 | a, b and b - a
            (41, 82),  # 41 | a, b and b - a: counted three times before correction
            (43, 129),  # 43 | a, b and b - a
        ],
        (3, 1, 96): [
            (10, 51, 82),  # 41 | a - h_1 and b: the x != x' class
            (41, 50, 91),  # 41 | O and b - a
            (5, 48, 91),  # 43 | a - h_1, b - h_1 and b - a
            (37, 47, 84),  # 37 | O and b - a
        ],
        (3, 1, 124): [
            (41, 82, 123),  # 41 | O, a, b and every difference: O's constant alone counts it
            (37, 74, 111),  # the same on the mask side
        ],
        (4, 1, 48): [
            (2, 3, 43, 44),  # 41 | a - h_1 and b - h_2
            (2, 4, 41, 45),  # 41 | a and b - h_2
            (3, 5, 40, 42),  # 37 | a - h_1 and b - h_2
        ],
    }

    @staticmethod
    def _shared(tup, p) -> int:
        g = len(tup)
        elems = [*tup, *(tup[r] - tup[s] for s in range(g) for r in range(s + 1, g))]
        return sum(e % p == 0 for e in elems)

    def test_witnesses_cover_both_sides(self):
        for (g, _, z), tuples in self.CASES.items():
            assert all(len(t) == g and 1 < t[0] and list(t) == sorted(set(t)) and t[-1] < z for t in tuples)
            assert any(self._shared(t, 37) >= 2 for t in tuples)
            assert any(self._shared(t, 41) >= 2 or self._shared(t, 43) >= 2 for t in tuples)

    @pytest.mark.parametrize("g,ell,z", list(CASES))
    def test_w_and_every_moment_row_match(self, g, ell, z):
        w, aj, ars = elementwise_oracle(g, ell, z)
        d = holder_verify(g, ell, z)
        assert d.w_value == pytest.approx(w, rel=1e-12)
        assert d.aj_moments == pytest.approx(aj, rel=1e-12)
        assert d.ars_moments == pytest.approx(ars, rel=1e-12)
        assert weighted_tuple_sum(g, ell, z) == pytest.approx(w, rel=1e-12)


def _row_block_edges(g: int, z: int) -> list:
    """The rows a where the scan of the first outer prefix, (2, ..., g - 1), starts a new block."""
    a0, edges = g, []
    while a0 < z - 1:
        a0 += max(_BLOCK // (z - 1 - a0), 1)
        edges.append(a0)
    return edges[:-1]


class TestBlockBoundaries:
    """Grid entries on both sides of a row-block edge equal their pointwise values."""

    @pytest.mark.parametrize("g,ell,z_max", [(2, 2, 700), (3, 1, 300)])
    def test_grid_matches_pointwise_across_edges(self, g, ell, z_max):
        edges = _row_block_edges(g, z_max)
        assert len(edges) >= 2  # several blocks
        grid = weighted_tuple_sum_grid(g, ell, z_max)
        zs = sorted({z for e in edges[:3] for z in (e, e + 1, e + 2)} | {z_max})
        for z in zs:
            assert grid[z] == pytest.approx(weighted_tuple_sum(g, ell, z), rel=1e-13)

    @pytest.mark.parametrize("g,ell,z_max", [(2, 1, 650), (3, 2, 300)])
    def test_holder_grid_matches_verify_across_edges(self, g, ell, z_max):
        edges = _row_block_edges(g, z_max)
        assert len(edges) >= 2
        diags = holder_grid(g, ell, z_max)
        for z in sorted({z for e in edges[:2] for z in (e, e + 1, e + 2)} | {z_max}):
            direct = holder_verify(g, ell, z)
            grid = diags[z - 2]
            assert grid.z == z
            assert grid.w_value == pytest.approx(direct.w_value, rel=1e-13)
            assert grid.aj_moments == pytest.approx(direct.aj_moments, rel=1e-12)
            assert grid.ars_moments == pytest.approx(direct.ars_moments, rel=1e-12)
            assert grid.holder_bound == pytest.approx(direct.holder_bound, rel=1e-12)

    def test_g1_vector_line(self):
        grid = weighted_tuple_sum_grid(1, 2, 3000)
        diags = holder_grid(1, 2, 3000)
        for z in (2, 3, 4, 1000, 2999, 3000):
            assert grid[z] == pytest.approx(weighted_tuple_sum(1, 2, z), rel=1e-13, abs=1e-300)
            assert diags[z - 2].aj_moments == pytest.approx(holder_verify(1, 2, z).aj_moments, rel=1e-12)


class TestPrimeTables:
    def test_every_n_below_2_14_matches_factorize(self):
        z = 2**14
        mask, indptr, large = _prime_tables(z)
        spf = build_spf(z)
        assert len(mask) == z and len(indptr) == z + 1
        for n in range(1, z):
            ps = [p for p, _ in factorize(n, spf)]
            small = [p for bit, p in enumerate(SMALL_PRIMES) if mask[n] >> bit & 1]
            assert small == [p for p in ps if p <= 37]
            assert large[indptr[n] : indptr[n + 1]].tolist() == [p for p in ps if p > 37]
