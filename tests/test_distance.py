import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hbgraph import distance
from hbgraph.distance import (
    STATISTIC_NAMES,
    jackknife,
    summarize,
    to_distribution,
)
from hbgraph.engine import NeighbourhoodRun, RunSet, run, run_exact, seed_sequence
from util import (
    distance_matrix,
    exact_curve,
    from_pairs,
    grid,
    mixed_suite,
    sym_from_pairs,
)


def census_moments(g, include_self_pairs: bool):
    """Distance moments straight from an all-pairs BFS table (-1 = unreached)."""
    d = distance_matrix(g)
    vals = d[d >= 0].astype(float)
    if not include_self_pairs:
        vals = vals[vals > 0]
    return vals.mean(), vals.var(), vals


class TestToDistribution:
    def test_pmf_matches_census(self):
        for g in mixed_suite(seed=21, count=20, max_n=70):
            curve = exact_curve(g)
            for incl in (True, False):
                mu, var, vals = census_moments(g, incl)
                if vals.size == 0 or vals.sum() == 0 and not incl:
                    continue
                dist = to_distribution(curve, g.n, include_self_pairs=incl)
                assert dist.mean() == pytest.approx(mu, abs=1e-9)
                assert dist.variance() == pytest.approx(var, abs=1e-9)


    def test_counts_are_per_distance_tallies(self):
        g = from_pairs(3, [(0, 1), (1, 2)])  # curve [3, 5, 6]
        dist = to_distribution(exact_curve(g), 3)
        assert dist.counts.tolist() == [3.0, 2.0, 1.0]
        assert dist.total == 6.0
        assert dist.pmf.sum() == pytest.approx(1.0)

    def test_self_pair_clamp(self):
        g = from_pairs(3, [(0, 1), (1, 2)])
        dist = to_distribution(exact_curve(g), 3, include_self_pairs=False)
        assert dist.counts.tolist() == [0.0, 2.0, 1.0]
        assert dist.mean() == pytest.approx(4 / 3)

    def test_spid_is_variance_over_mean(self):
        for g in mixed_suite(seed=33, count=15, max_n=60):
            dist = to_distribution(exact_curve(g), g.n)
            if dist.mean() > 0:
                assert dist.spid() * dist.mean() == pytest.approx(
                    dist.variance(), abs=1e-12
                )

    def test_spid_nan_at_zero_mean(self):
        dist = to_distribution([5.0], 5)  # all mass at distance 0
        assert math.isnan(dist.spid())

    def test_validation(self):
        with pytest.raises(ValueError, match="nonempty"):
            to_distribution([], 3)
        with pytest.raises(ValueError, match="nondecreasing"):
            to_distribution([3.0, 2.0], 3)
        with pytest.raises(ValueError, match="nonfinite"):
            to_distribution([1.0, float("nan")], 3)
        with pytest.raises(ValueError, match="positive"):
            to_distribution([1.0], 0)
        with pytest.raises(ValueError, match="no mass"):
            to_distribution([0.0, 0.0], 3)
        with pytest.raises(ValueError, match="no mass"):
            # nothing beyond self-pairs under the excluding convention
            to_distribution([4.0, 4.0], 4, include_self_pairs=False)


class TestEffectiveDiameter:
    def test_exact_hit_interpolates_to_integer(self):
        # 90% of mass exactly at the end of distance 2
        dist = to_distribution([0.0, 5.0, 9.0, 10.0], 10)
        assert dist.effective_diameter(0.9) == pytest.approx(2.0)

    def test_interpolation_inside_step(self):
        # cum = [4, 8, 10]; target 9 sits halfway into the d=2 step
        dist = to_distribution([4.0, 8.0, 10.0], 4)
        assert dist.effective_diameter(0.9) == pytest.approx(1.5)

    def test_all_mass_at_zero(self):
        assert to_distribution([7.0], 7).effective_diameter() == 0.0

    def test_monotone_in_q(self):
        g = grid(6, 7)
        dist = to_distribution(exact_curve(g), g.n)
        qs = [0.5, 0.7, 0.9, 0.99]
        eds = [dist.effective_diameter(q) for q in qs]
        assert eds == sorted(eds)
        assert eds[-1] <= dist.support[-1]

    def test_quantile_one_when_summed_counts_fall_short(self):
        # the steps of this curve add up to 3.6e-15 below its last value
        curve = [4.7, 12.9, 19.7, 28.1]
        dist = to_distribution(curve, 1)
        assert np.cumsum(dist.counts)[-1] < curve[-1]
        assert dist.effective_diameter(1.0) == 3.0
        # a flat tail does not move the first distance that reaches all pairs
        assert to_distribution(curve + [28.1, 28.1], 1).effective_diameter(1.0) == 3.0

    @settings(max_examples=200, deadline=None)
    @given(
        # the steps between tenths need not add up to the last one in binary
        tenths=st.lists(st.integers(0, 10**6), min_size=1, max_size=30),
        q=st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True)),
        include_self_pairs=st.booleans(),
    )
    def test_effective_diameter_stays_on_the_support(self, tenths, q, include_self_pairs):
        curve = np.sort(tenths) / 10
        try:
            dist = to_distribution(curve, 3, include_self_pairs=include_self_pairs)
        except ValueError:  # no mass
            return
        ed = dist.effective_diameter(q)
        assert 0.0 <= ed <= curve.size - 1

    def test_within_ceiling(self):
        g = grid(5, 5)
        dist = to_distribution(exact_curve(g), g.n)
        d = distance_matrix(g)
        ceil_mu = math.ceil(dist.mean())
        want = 100.0 * np.mean(d[d >= 0] <= ceil_mu)
        assert dist.within_ceiling_pct() == pytest.approx(want, abs=1e-9)


class TestJackknife:
    def _runset(self, r=6):
        g = sym_from_pairs(40, [(i, (i + 1) % 40) for i in range(40)])
        return RunSet(
            [run(g, m=16, seed=s, graph_id="g") for s in seed_sequence(3, r)]
        )

    def test_identical_runs_have_zero_se(self):
        row = np.asarray(exact_curve(grid(4, 5)), dtype=float)
        matrix = np.tile(row, (5, 1))
        for name in STATISTIC_NAMES:
            res = jackknife(matrix, name, n=20)
            assert res.se == pytest.approx(0.0, abs=1e-9)
            assert res.runs == 5

    def test_linear_statistic_passes_through(self):
        # for a linear functional the bias correction is exact: the
        # jackknife estimate equals the statistic of the mean curve
        matrix = self._runset().to_matrix()
        res = jackknife(matrix, lambda c: float(c[-1]), n=40)
        assert res.estimate == pytest.approx(matrix.mean(axis=0)[-1], rel=1e-12)

    def test_accepts_runset_and_matrix(self):
        rs = self._runset()
        a = jackknife(rs, "mean")
        b = jackknife(rs.to_matrix(), "mean", n=rs.n)
        assert a.estimate == pytest.approx(b.estimate)
        assert a.se == pytest.approx(b.se)

    def test_se_shrinks_with_more_runs(self):
        big = self._runset(24).to_matrix()
        small = big[:6]
        se_small = jackknife(small, "mean", n=40).se
        se_big = jackknife(big, "mean", n=40).se
        assert se_big < se_small

    # curves over t = 0..2 whose bias-corrected estimates leave the range:
    # the effective diameter at q = 1 (plug-in 2, leave-one-out 2, 2, 2, 1)
    # corrects to 2.75, the within-ceiling share (plug-in 100, leave-one-out
    # 70, 100, 100, 100) to 122.5
    OUT_OF_RANGE = {
        "effective_diameter": ([[1, 2, 3]] + [[1, 3, 3]] * 3, 1.0, 2.0),
        "within_ceiling_pct": ([[1, 1.5, 3]] + [[1, 2.1, 3]] * 3, 0.9, 100.0),
    }

    @pytest.mark.parametrize("name", sorted(OUT_OF_RANGE))
    def test_estimates_stay_in_range(self, name):
        rows, q, edge = self.OUT_OF_RANGE[name]
        matrix = np.array(rows, dtype=float)
        k = STATISTIC_NAMES.index(name)
        raw = jackknife(matrix, lambda c: distance._statistics(c, 1, True, q)[k], n=1)
        assert raw.estimate > edge  # a callable is not clamped
        res = jackknife(matrix, name, n=1, q=q)
        assert res.estimate == edge and res.se == raw.se > 0
        rs = RunSet([NeighbourhoodRun("g", 1, 16, s, row, 2) for s, row in enumerate(rows)])
        stats = summarize(rs, q=q)
        assert getattr(stats, name) == edge
        assert stats.effective_diameter <= stats.iterations == 2

    def test_validation(self):
        with pytest.raises(ValueError, match="at least two"):
            jackknife(np.ones((1, 4)), "mean", n=3)
        with pytest.raises(ValueError, match="n is required"):
            jackknife(np.ones((3, 4)), "mean")
        with pytest.raises(ValueError):
            jackknife(np.ones((3, 4)), "median", n=3)  # unknown name


class TestSummarize:
    def test_exact_runs_reproduce_census(self):
        g = grid(6, 6)
        ex = run_exact(g, graph_id="g")
        # exact-only set: stats must hit the census dead on
        mu, var, _ = census_moments(g, include_self_pairs=True)
        stats = summarize(RunSet([ex, ex]))
        assert stats.mean == pytest.approx(mu, abs=1e-9)
        assert stats.variance == pytest.approx(var, abs=1e-9)
        assert stats.mean_se == pytest.approx(0.0, abs=1e-12)
        assert stats.reachable_pct == pytest.approx(100.0)
        mu_x, _, _ = census_moments(g, include_self_pairs=False)
        assert stats.mean_excl_self == pytest.approx(mu_x, abs=1e-9)

    def test_estimated_runs_near_truth(self):
        g = grid(7, 8)
        rs = RunSet(
            [run(g, m=64, seed=s, graph_id="g") for s in seed_sequence(11, 10)]
        )
        stats = summarize(rs)
        mu, var, _ = census_moments(g, include_self_pairs=True)
        assert abs(stats.mean - mu) < 5 * max(stats.mean_se, 1e-3)
        assert stats.runs == 10 and stats.n == 56

    def test_reachable_pct_has_a_jackknife_error(self):
        g = from_pairs(4, [(0, 1), (2, 3)])
        ex = run_exact(g, graph_id="g")
        assert summarize(RunSet([ex, ex, ex])).reachable_pct_se == 0.0
        assert math.isnan(summarize(RunSet([ex])).reachable_pct_se)
        rs = RunSet([run(grid(6, 6), m=16, seed=s, graph_id="g") for s in seed_sequence(5, 4)])
        stats = summarize(rs)
        assert stats.reachable_pct_se > 0
        # the jackknife error of a mean is the sample deviation over sqrt(R)
        last = np.array([r.monotone_values[-1] for r in rs.runs])
        want = 100 * last.std(ddof=1) / np.sqrt(last.size) / 36**2
        assert stats.reachable_pct_se == pytest.approx(want, rel=1e-9)
        assert "reachable_pct_se" in stats.to_dict()
        assert f"+- {stats.reachable_pct_se:.4f}" in stats.to_text()

    def test_disconnected_reachability(self):
        g = from_pairs(4, [(0, 1), (2, 3)])  # two directed pairs
        ex = run_exact(g, graph_id="g")
        stats = summarize(RunSet([ex, ex]))
        # reachable pairs: 4 self + 2 arcs = 6 of 16
        assert stats.reachable_pct == pytest.approx(100.0 * 6 / 16)

    def test_single_run_gives_plug_in_values_and_nan_errors(self):
        g = grid(5, 6)
        one = run(g, m=64, seed=3, graph_id="g")
        stats = summarize(RunSet([one]), q=0.8)
        dist = to_distribution(one.monotone_values, g.n)
        assert stats.runs == 1 and stats.iterations == one.iterations
        assert stats.mean == dist.mean() and stats.variance == dist.variance()
        assert stats.spid == dist.spid()
        assert stats.effective_diameter == dist.effective_diameter(0.8)
        assert stats.within_ceiling_pct == dist.within_ceiling_pct()
        for name in ("mean_se", "variance_se", "spid_se", "effective_diameter_se",
                     "within_ceiling_se"):
            assert math.isnan(getattr(stats, name))
        # a self-pairs-only curve has no mean without them
        lone = run_exact(from_pairs(3, []), graph_id="h")
        assert math.isnan(summarize(RunSet([lone])).mean_excl_self)

    @pytest.mark.parametrize("r", [1, 2, 4, 10])
    def test_one_distribution_per_curve(self, monkeypatch, r):
        # the mean curve, R leave-one-out curves and the mean without self-pairs
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return to_distribution(*args, **kwargs)

        rs = RunSet([run(grid(4, 5), m=16, seed=s, graph_id="g") for s in seed_sequence(8, r)])
        monkeypatch.setattr(distance, "to_distribution", counted)
        summarize(rs)
        assert len(calls) <= r + 2

    def test_text_and_dict_round_out(self):
        rs = RunSet(
            [
                run(grid(4, 4), m=16, seed=s, graph_id="g")
                for s in seed_sequence(2, 3)
            ]
        )
        stats = summarize(rs)
        d = stats.to_dict()
        assert set(d) >= {"mean", "variance", "spid", "effective_diameter"}
        text = stats.to_text()
        assert "mean distance" in text and "+-" in text
