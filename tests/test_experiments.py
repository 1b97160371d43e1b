import io
import itertools
import json
import math

import numpy as np
import pytest

from spl import experiments
from spl.core_primes import build_sieve
from spl.errors import ArgumentError, RangeError, VerificationError
from spl.experiments import (
    _prime_shift_multipliers,
    ap_recip_heuristic_table,
    density_table,
    rearrangement_report,
    progression_double_sum,
    ratio_table,
    rearrange_h_cap,
    rearrange_sieve_limit,
    write_csv,
    write_jsonl,
)
from spl.linear_forms import inverse_power_prime_sum, range_bounds_exact, system_from_shifts
from spl.shifted_counts import Theta


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda c: ratio_table(c, 1, Theta(1, 4), [100]), id="ratio-k1"),
        pytest.param(lambda c: ratio_table(c, 2, Theta(1, 4), [100, 0]), id="ratio-x0"),
        pytest.param(lambda c: rearrangement_report(c, 1000, 1, Theta(1, 4)), id="rearrange-k1"),
        pytest.param(lambda c: ap_recip_heuristic_table(c, 1000, [1]), id="apsum-p1"),
        pytest.param(lambda c: density_table(c, Theta(1, 2), [100, 1]), id="density-x1"),
    ],
)
def test_arguments_checked_before_the_cache(call):
    """A malformed argument raises ArgumentError, not the short cache's RangeError."""
    with pytest.raises(ArgumentError):
        call(build_sieve(10))


class TestSOfX:
    def test_three_term_example(self, cache):
        assert progression_double_sum(cache, 100, 2, Theta(1, 4)) == pytest.approx(0.18685, abs=1e-4)

    def test_empty_outer_range(self, cache):
        assert progression_double_sum(cache, 20, 2, Theta(1, 2)) == 0.0

    def test_reproducible(self, cache):
        a = progression_double_sum(cache, 10**4, 2, Theta(1, 4))
        b = progression_double_sum(cache, 10**4, 2, Theta(1, 4))
        assert a == b


class TestRearrangement:
    def test_k2_flags(self, cache):
        rec = rearrangement_report(cache, 10**3, 2, Theta(1, 4))
        raw = dict(rec.raw)
        derived = dict(rec.derived)
        assert derived["s_le_majorant"] is True
        assert raw["double_sum"] <= raw["substitution_majorant"]
        # k = 2: the symmetrized form only widens the h-range, so the
        # ordering constant cannot exceed 1
        assert derived["ordering_constant"] <= 1.0

    def test_k3_constant_at_most_two(self, cache):
        rec = rearrangement_report(cache, 10**3, 3, Theta(1, 6))
        derived = dict(rec.derived)
        assert dict(rec.raw)["double_sum"] <= dict(rec.raw)["substitution_majorant"]
        assert derived["ordering_constant"] <= 2.0

    @pytest.mark.parametrize("k", [2, 3])
    def test_majorant_holds_when_two_is_in_range(self, cache, k):
        """theta = 1/d with d >= 9 puts p = 2 in the range at x = 1000, where h = 1 gives q = 3."""
        for d in range(2, 41):
            rec = rearrangement_report(cache, 1000, k, Theta(1, d))
            assert dict(rec.derived)["s_le_majorant"] is True

    def test_refused_past_the_cache(self, cache):
        """No x budget: x = 2e5 is refused because p*h + 1 reaches 5026963, past the cache."""
        assert rearrange_sieve_limit(2 * 10**5, 2, Theta(1, 4)) == 5026963 > cache.limit
        with pytest.raises(RangeError, match="query at 5026963 exceeds sieve limit"):
            rearrangement_report(cache, 2 * 10**5, 2, Theta(1, 4))

    def test_shift_multipliers_match_flag_scan(self, cache):
        flags = cache.flags
        for p in (2, 3, 5, 7, 31, 97, 997):
            for h_top in (0, 1, 2, 3, 10, 1000, (cache.limit - 1) // p):
                hs = np.arange(1, h_top + 1)
                want = hs[flags[p * hs + 1]]
                assert _prime_shift_multipliers(cache, p, h_top).tolist() == want.tolist()

    @pytest.mark.parametrize("theta", [Theta(1, 8), Theta(1, 6), Theta(1, 4), Theta(1, 3),
                                       Theta(2, 5), Theta(1, 2), Theta(3, 4)])
    def test_majorant_bound_within_h_cap(self, theta):
        """Every p > u has (x - 1)//p <= h_cap, so (ii)'s multipliers are a prefix of (iii)'s."""
        for x in range(1, 4000):
            u, _ = range_bounds_exact(x, 1, theta)
            assert (x - 1) // (u + 1) <= rearrange_h_cap(x, theta)

    def test_prefix_bound_is_checked(self, cache, monkeypatch):
        monkeypatch.setattr(experiments, "rearrange_h_cap", lambda x, theta: 1)
        with pytest.raises(VerificationError):
            rearrangement_report(cache, 10**3, 2, Theta(1, 4))

    @staticmethod
    def _shift_sum(cache, x, k, theta, shifts) -> float:
        """(1 / prod h) * sum of p^-k over the range with every h*p + 1 prime."""
        system = system_from_shifts(shifts)
        return inverse_power_prime_sum(cache, x, k, theta, system) / math.prod(shifts)

    @pytest.mark.parametrize("theta", [Theta(1, 4), Theta(1, 3)])
    def test_symmetrized_form_is_the_linear_forms_sum_k2(self, cache, theta):
        """(iii) at k = 2, summed over the shifts h first: one linear-forms sum per h."""
        x = 10**4
        rec = rearrangement_report(cache, x, 2, theta)
        hs = range(1, rearrange_h_cap(x, theta) + 1)
        want = math.fsum(self._shift_sum(cache, x, 2, theta, [h]) for h in hs)
        assert rec.raw["symmetrized_form"] == want

    def test_symmetrized_form_is_the_linear_forms_sum_k3(self, cache):
        """(iii) at k = 3 sums e_1 and e_2: single shifts and pairs h_1 < h_2."""
        x, theta = 300, Theta(1, 6)
        rec = rearrangement_report(cache, x, 3, theta)
        hs = range(1, rearrange_h_cap(x, theta) + 1)
        shifts = [[h] for h in hs] + [list(pair) for pair in itertools.combinations(hs, 2)]
        want = math.fsum(self._shift_sum(cache, x, 3, theta, h) for h in shifts)
        assert rec.raw["symmetrized_form"] == pytest.approx(want, rel=1e-14)

    def test_reproducible(self, cache):
        a = rearrangement_report(cache, 500, 2, Theta(1, 4))
        b = rearrangement_report(cache, 500, 2, Theta(1, 4))
        assert a == b


class TestRatioTable:
    def test_zero_count_gives_zero_ratio(self, cache):
        recs = ratio_table(cache, 2, Theta(1, 4), [8])
        assert dict(recs[0].raw)["tuple_count"] == 0
        assert dict(recs[0].derived)["ratio"] == 0.0

    def test_small_grid(self, cache):
        recs = ratio_table(cache, 2, Theta(1, 4), [10**3, 10**4])
        ratios = [dict(r.derived)["ratio"] for r in recs]
        assert all(r > 0 for r in ratios)
        band = dict(recs[-1].derived)["band"]
        assert band == pytest.approx(max(ratios) / min(ratios), rel=1e-12)

    def test_zero_count_where_the_normaliser_underflows(self, cache):
        """At k = 400 and theta = 1/4, x^(1 - theta(k - 1)) is 0.0; T is 0, and so is the ratio."""
        assert (10**4) ** (1.0 - 0.25 * 399) == 0.0
        recs = ratio_table(cache, 400, Theta(1, 4), [10**4])
        assert recs[0].raw["tuple_count"] == 0
        assert recs[0].derived == dict.fromkeys(recs[0].derived, 0.0)


class TestDensityTable:
    def test_tiny_x(self, cache):
        recs = density_table(cache, Theta(1, 2), [10])
        raw = dict(recs[0].raw)
        derived = dict(recs[0].derived)
        assert raw["pi"] == 4 and raw["count_fixed"] == 0
        assert derived["fixed_ratio"] == 0.0
        assert derived["reference_density"] == pytest.approx(0.6931471805, abs=1e-7)

    def test_density_floor_small(self, cache):
        recs = density_table(cache, Theta(1, 2), [10**5, 10**6])
        for rec in recs:
            assert dict(rec.derived)["self_ratio"] >= 0.5


class TestApRecipTable:
    def test_values(self, cache):
        rec = ap_recip_heuristic_table(cache, 50, [3])
        raw = dict(rec.raw)
        assert raw["exact_p3"] == pytest.approx(0.354953, abs=1e-6)

    def test_shrinking_tail(self, cache):
        # near sqrt(x) the progression holds only a handful of terms
        rec = ap_recip_heuristic_table(cache, 10**4, [97])
        raw = dict(rec.raw)
        assert 0 < raw["exact_p97"] < 0.02


class TestEmission:
    def test_csv_layout(self, cache):
        recs = ratio_table(cache, 2, Theta(1, 4), [100, 1000])
        buf = io.StringIO()
        write_csv(recs, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0].startswith("experiment,x,k,theta,tuple_count,ratio")
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "ratio"

    def test_jsonl_roundtrip(self, cache):
        recs = density_table(cache, Theta(1, 2), [100])
        buf = io.StringIO()
        write_jsonl(recs, buf)
        obj = json.loads(buf.getvalue().strip())
        assert obj["experiment"] == "density"
        assert obj["inputs"]["x"] == 100
        assert obj["raw"]["pi"] == 25

    def test_reals_carry_12_digits(self, cache):
        recs = [ap_recip_heuristic_table(cache, 50, [3])]
        buf = io.StringIO()
        write_csv(recs, buf)
        header = buf.getvalue().strip().split("\n")[0].split(",")
        cells = buf.getvalue().strip().split("\n")[1].split(",")
        cell = cells[header.index("exact_p3")]
        assert cell == f"{0.35495270422423264:.12g}"

    def test_emission_deterministic(self, cache):
        bufs = []
        for _ in range(2):
            recs = ratio_table(cache, 2, Theta(1, 4), [1000])
            buf = io.StringIO()
            write_jsonl(recs, buf)
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]
