import math
from fractions import Fraction
from itertools import combinations, islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import factor_trial
from spl import weighted_sums
from spl.core_primes import build_spf, factorize
from spl.errors import ArgumentError, RangeError, VerificationError
from spl.weighted_sums import (
    _BATCH,
    _BLOCK,
    SMALL_PRIMES,
    HolderDiagnostics,
    _factor_table,
    _prefix_factors,
    _prime_tables,
    holder_grid,
    holder_verify,
    mobius_expansion_check,
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
        with pytest.raises(RangeError, match="tuple visits; budget"):
            weighted_tuple_sum(2, 1, 10**6)

    def test_validation(self):
        with pytest.raises(ArgumentError):
            weighted_tuple_sum(0, 1, 10)
        with pytest.raises(ArgumentError):
            weighted_tuple_sum(1, 0, 10)
        with pytest.raises(ArgumentError):
            weighted_tuple_sum(1, 1, 1)

    @pytest.mark.parametrize(
        "entry", [weighted_tuple_sum, weighted_tuple_sum_grid, holder_verify, holder_grid]
    )
    @pytest.mark.parametrize("g, ell, z", [(1, 704, 1000), (2, 1000, 100), (3, 100000, 60)])
    def test_float_overflow_refused(self, entry, g, ell, z):
        """F^ell past float64 raises RangeError, not a warning, an inf or a nan."""
        with pytest.raises(RangeError, match=f"g={g}, ell={ell}, z={z}"):
            entry(g, ell, z)

    def test_float_underflow_refused(self, monkeypatch):
        """A sum or moment row over tuples that comes out 0.0 has underflowed: every term is positive."""
        with pytest.raises(RangeError, match=r"g=200, ell=1, z=203\): .* underflows float64"):
            weighted_tuple_sum(200, 1, 203)  # about 1e-376
        w_bins, aj_bins, ars_bins = weighted_sums._scan_grid(2, 1, 10)
        assert w_bins.sum() > 0 and aj_bins.sum(axis=1).all() and ars_bins.sum(axis=1).all()
        monkeypatch.setattr(weighted_sums, "_scan_grid", lambda *_, **__: (w_bins, aj_bins, 0 * ars_bins))
        with pytest.raises(RangeError, match="underflows float64"):
            holder_verify(2, 1, 10)

    def test_grid_matches_pointwise(self):
        grid = weighted_tuple_sum_grid(2, 2, 60)
        for z in (2, 3, 10, 37, 60):
            assert grid[z] == pytest.approx(weighted_tuple_sum(2, 2, z), rel=1e-13, abs=1e-300)


class TestSingleWeightedSum:
    """g = 1: the sum over 1 < h < z of (1/h) prod_{p|h}(1+1/p)^e."""

    def test_examples(self):
        assert weighted_tuple_sum(1, 1, 4) == pytest.approx(1.19444444, abs=1e-8)
        assert weighted_tuple_sum(1, 5, 3) == pytest.approx((1 / 2) * (3 / 2) ** 5, rel=1e-12)
        assert weighted_tuple_sum(1, 1, 2) == 0.0

    def test_log_normalized_bounded(self):
        # frozen regression ceilings; the e = 9 constant is large but finite
        caps = {1: 1.5, 3: 4.5, 9: 240.0}
        for e, cap in caps.items():
            for j in (6, 8, 10, 12, 14):
                assert weighted_tuple_sum(1, e, 2**j) / (j * math.log(2)) <= cap


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
            assert d.aj_moments[0] == pytest.approx(w_sum_oracle(1, 3, z), rel=1e-12, abs=1e-300)

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

    def test_nan_fails_the_check(self):
        with pytest.raises(VerificationError, match="Hoelder inequality violated"):
            HolderDiagnostics(2, 1, 3, 8, 10, math.nan, [1.0, 1.0], [1.0], math.inf)

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
        """The g = 6 prefix (11, 15, 58, 82, 89) has a kernel R above 2**63.

        The scan never forms R: it divides the prefix's primes out of its
        rows of the factor tables, whose entries must agree with the product
        over x in (0, *prefix) of F'(n - x) / F'(gcd(rad(n - x), R)), and with
        F'(d) / F'(gcd(rad d, R)), F' the product over primes > 37 alone.
        """
        z, n0 = 200, 90
        prefix = (11, 15, 58, 82, 89)
        elements = list(prefix) + [b - a for a, b in combinations(prefix, 2)]

        def rad(n):
            return math.prod(p for p, _ in factor_trial(n))

        def large(n):
            return math.prod(1 + 1 / p for p, _ in factor_trial(n) if p > 37)

        kernel = 1
        for e in elements:
            kernel = kernel * rad(e) // math.gcd(kernel, rad(e))
        assert kernel > 2**63
        fy_pad = np.zeros(2 * z)
        fy_pad[z + 1 :] = [large(n) for n in range(1, z)]
        mask, indptr, primes = _prime_tables(z)
        xs = np.array([(0, *prefix)])
        o_elems, o_keys, f_o, fac, toe = _prefix_factors(xs, n0, fy_pad, indptr, primes)
        assert sorted(o_elems[0].tolist()) == sorted(elements)
        assert (o_keys % z).tolist() == [p for p, _ in factor_trial(kernel) if p > 37]
        assert f_o[0] == pytest.approx(large(kernel), rel=1e-14)
        for n in range(n0, z):
            want = math.prod(large(n - x) / large(math.gcd(rad(n - x), kernel)) for x in xs[0])
            assert fac[0, n - n0] == pytest.approx(want, rel=1e-14)
        assert not toe[0, : z - n0 + 1].any()
        for d in range(1, z - n0):
            want = large(d) / large(math.gcd(rad(d), kernel))
            assert toe[0, z - n0 + d] == pytest.approx(want, rel=1e-14)


def elementwise_oracle(g: int, ell: int, z: int):
    """w, aj and ars by trial division of each element of E by every prime below z.

    A prime is in E's set when it divides one of its elements, so no kernel
    product is formed. Tuples go in chunks; rows are ordered as in moments_oracle.
    """
    G = math.comb(g + 1, 2)
    s, r = np.array([(s, r) for s in range(g) for r in range(s + 1, g)]).reshape(-1, 2).T
    primes = [p for p in range(2, z) if factor_trial(p) == [(p, 1)]]
    fac = np.array([0.0] + [one_plus_inv_primes(n) ** (ell * G) for n in range(1, z)])
    w, moments = 0.0, np.zeros(G)
    tuples = combinations(range(2, z), g)
    while chunk := list(islice(tuples, 50000)):
        tup = np.array(chunk)
        elems = np.concatenate([tup, tup[:, r] - tup[:, s]], axis=1)
        inv = 1 / np.prod(tup.astype(float), axis=1)
        f = np.ones(len(tup))
        for p in primes:
            f[(elems % p == 0).any(axis=1)] *= 1 + 1 / p
        w += math.fsum(f**ell * inv)
        moments += (fac[elems] * inv[:, None]).sum(axis=0)
    return w, moments[:g].tolist(), moments[g:].tolist()


def _batches(monkeypatch) -> list:
    """A list that grows by one per batch of outer prefixes the scan makes."""
    calls = []
    corrections = weighted_sums._corrections
    monkeypatch.setattr(weighted_sums, "_corrections", lambda *args: calls.append(args) or corrections(*args))
    return calls


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
        (5, 1, 45): [
            (2, 41, 42, 43, 44),  # 41 | h_2, an element of the head, and a - h_1
            (2, 3, 41, 42, 43),  # 41 | c = h_3, outside the head, and b - h_1
            (2, 3, 5, 43, 44),  # 41 | a - h_1 and b - h_2
            (3, 4, 40, 41, 44),  # 37 | h_3 - h_1 and a - h_2; 41 | a and b - h_1
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
    def test_w_and_every_moment_row_match(self, monkeypatch, g, ell, z):
        w, aj, ars = elementwise_oracle(g, ell, z)
        batches = _batches(monkeypatch)
        d = holder_verify(g, ell, z)
        assert g == 2 or len(batches) >= 2  # prefixes of several batches
        assert d.w_value == pytest.approx(w, rel=1e-12)
        assert d.aj_moments == pytest.approx(aj, rel=1e-12)
        assert d.ars_moments == pytest.approx(ars, rel=1e-12)
        assert weighted_tuple_sum(g, ell, z) == pytest.approx(w, rel=1e-12)


def _row_block_edges(g: int, z: int) -> list:
    """The rows a where a new box starts in the scan's first run of prefixes, the
    ones of its first batch, from c = h_{g-2} = g - 1 on (g = 2: the empty prefix)."""
    cap = max(_BLOCK, z)
    c = g - 1 if g > 2 else 0
    a0 = max(c, 1) + 1
    batch = min(max(_BATCH // (z - 1 - c), 1), math.comb(z - 4, g - 2) if g > 2 else 1)
    run = max(1, min(batch, math.isqrt(cap // (z - a0))))
    edges = []
    while a0 < z - 1:
        a0 = min(a0 + max(cap // (z - 1 - a0) // run, 1), z - 1)
        edges.append(a0)
    return edges[:-1]


class TestBlockBoundaries:
    """Grid entries on both sides of a box edge equal their pointwise values."""

    @pytest.mark.parametrize("g,ell,z_max", [(2, 2, 700), (3, 1, 300), (4, 1, 100)])
    def test_grid_matches_pointwise_across_edges(self, g, ell, z_max):
        edges = _row_block_edges(g, z_max)
        assert len(edges) >= 2  # several blocks
        grid = weighted_tuple_sum_grid(g, ell, z_max)
        zs = sorted({z for e in edges[:3] for z in (e, e + 1, e + 2)} | {z_max})
        for z in zs:
            assert grid[z] == pytest.approx(weighted_tuple_sum(g, ell, z), rel=1e-13)

    @pytest.mark.parametrize("g,ell,z_max", [(2, 1, 650), (3, 2, 300), (4, 2, 100)])
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

    def test_every_prefix_once_in_at_most_z_batches(self, monkeypatch):
        """The 1540 outer prefixes (h_1, h_2) of g = 4, z = 60 go in at most z batches."""
        batches = _batches(monkeypatch)
        holder_verify(4, 1, 60)
        assert len(batches) <= 60
        prefixes = [tuple(row[1:]) for xs, *_ in batches for row in xs.tolist()]
        assert sorted(prefixes) == list(combinations(range(2, 58), 2))

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


class TestFactorTable:
    def test_local_factor_examples(self):
        """F(|e|)^ell is the local factor prod_{p | e}(1 + 1/p)^ell of a discriminant e."""
        f = _factor_table(10)
        for e, ell, value in ((6, 2, 4.0), (1, 5, 1.0), (2, 1, 1.5), (-6, 1, 2.0)):
            product = math.prod((1 + 1 / p) ** ell for p, _ in factorize(abs(e)))
            assert f[abs(e)] ** ell == pytest.approx(value, rel=1e-12)
            assert f[abs(e)] ** ell == pytest.approx(product, rel=1e-12)
