"""Tests of the benchmark's statistics (``pytest benchmarks/budget``)."""

from __future__ import annotations

import math

import numpy as np
import pytest

import stats


class TestPercentiles:
    def test_nearest_rank_returns_an_observed_sample(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0]
        assert stats.percentile(values, 50) == 3.0
        assert stats.percentile(values, 100) == 5.0
        assert stats.percentile(values, 20) == 1.0
        assert stats.percentile(values, 21) == 2.0

    def test_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            stats.percentile([], 50)
        with pytest.raises(ValueError):
            stats.percentile([1.0], 0)

    @pytest.mark.parametrize("n", [11, 20, 100, 414, 999, 1000, 5000])
    def test_tail_leaves_ten_samples_beyond(self, n):
        values = list(range(n))
        p, value = stats.tail(values)
        assert sum(1 for v in values if v > value) >= stats.TAIL_BEYOND
        assert p <= 99.0
        # One step higher would leave fewer than ten beyond, unless capped.
        if p < 99.0:
            higher = stats.percentile(values, p + 0.1)
            assert sum(1 for v in values if v > higher) < stats.TAIL_BEYOND

    def test_tail_examples(self):
        assert stats.tail_percentile(1000) == 99.0
        assert stats.tail_percentile(100) == 90.0
        assert stats.tail_percentile(100_000) == 99.0  # capped
        with pytest.raises(ValueError):
            stats.tail_percentile(10)


class TestOpenLoop:
    def test_latency_runs_from_due_time_and_failures_are_infinite(self):
        due = [0.0, 1.0, 2.0]
        done = [0.5, None, 2.25]
        assert stats.due_latencies(due, done) == [0.5, math.inf, 0.25]

    def test_failure_misses_every_limit(self):
        latencies = stats.due_latencies([0.0, 1.0], [0.001, None])
        assert not stats.rung_passes(latencies, 50, 10.0)

    def test_poisson_schedule_has_a_fixed_count_inside_the_window(self):
        rng = np.random.default_rng(3)
        times = stats.poisson_arrivals(rng, 60.0, 7.0, start=2.0)
        assert len(times) == 420
        assert times == sorted(times)
        assert all(2.0 <= t < 9.0 for t in times)

    def test_poisson_schedule_is_seeded(self):
        a = stats.poisson_arrivals(np.random.default_rng(1), 30.0, 2.0)
        b = stats.poisson_arrivals(np.random.default_rng(1), 30.0, 2.0)
        c = stats.poisson_arrivals(np.random.default_rng(2), 30.0, 2.0)
        assert a == b and a != c

    def test_poisson_gaps_look_exponential(self):
        times = stats.poisson_arrivals(np.random.default_rng(0), 100.0, 200.0)
        gaps = np.diff(times)
        # Mean 1/rate; coefficient of variation of an exponential is 1.
        assert gaps.mean() == pytest.approx(0.01, rel=0.05)
        assert gaps.std() / gaps.mean() == pytest.approx(1.0, abs=0.05)


class TestLadder:
    def test_rung_needs_tail_within_limit(self):
        assert stats.rung_passes([0.01] * 99 + [0.2], 99, 0.05)
        assert not stats.rung_passes([0.01] * 98 + [0.2, 0.2], 99, 0.05)

    def test_ladder_stops_at_first_miss(self):
        rungs = [(60, True), (120, True), (180, False), (240, True)]
        assert stats.ladder_max_rate(rungs) == 120
        assert stats.ladder_max_rate([(60, False)]) is None


class TestSelfTime:
    def test_covered_merges_overlaps_and_clips(self):
        assert stats.covered([(1, 3), (2, 5), (7, 12)], 0, 10) == pytest.approx(7.0)
        assert stats.covered([], 0, 10) == 0.0

    def test_self_times_of_a_tree_sum_to_the_root(self):
        # root [0, 10]: gateway; children a [1, 4] and b [5, 9];
        # a has a child [2, 3]; b has children [5, 6] and [7, 8.5].
        spans = {
            "root": (None, 0.0, 10.0),
            "a": ("root", 1.0, 4.0),
            "a1": ("a", 2.0, 3.0),
            "b": ("root", 5.0, 9.0),
            "b1": ("b", 5.0, 6.0),
            "b2": ("b", 7.0, 8.5),
        }
        own = stats.self_times(spans)
        assert own["root"] == pytest.approx(3.0)
        assert own["a"] == pytest.approx(2.0)
        assert own["b"] == pytest.approx(1.5)
        assert sum(own.values()) == pytest.approx(10.0)

    def test_random_trees_sum_to_the_root(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            spans = {0: (None, 0.0, 1.0)}
            frontier = [0]
            for i in range(1, 30):
                parent = frontier[int(rng.integers(len(frontier)))]
                _, lo, hi = spans[parent]
                taken = sorted((s, e) for p, s, e in spans.values() if p == parent)
                # A free gap of the parent for a non-overlapping child.
                edges = [lo] + [x for s, e in taken for x in (s, e)] + [hi]
                gaps = [(edges[k], edges[k + 1]) for k in range(0, len(edges), 2)]
                gaps = [g for g in gaps if g[1] - g[0] > 1e-6]
                if not gaps:
                    continue
                a, b = gaps[int(rng.integers(len(gaps)))]
                s, e = sorted(rng.uniform(a, b, size=2))
                spans[i] = (parent, float(s), float(e))
                frontier.append(i)
            assert sum(stats.self_times(spans).values()) == pytest.approx(1.0)


class TestVerdict:
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]

    def test_improved(self):
        change = [v * 0.8 for v in self.parent]
        assert stats.verdict(self.parent, change, better="lower", bound=0.1) == ("improved", 1.0)

    def test_regressed(self):
        change = [v * 1.2 for v in self.parent]
        assert stats.verdict(self.parent, change, better="lower", bound=0.1)[0] == "regressed"

    def test_no_worse(self):
        change = list(reversed(self.parent))
        assert stats.verdict(self.parent, change, better="lower", bound=0.1)[0] == "no worse"

    def test_higher_is_better(self):
        change = [v * 1.2 for v in self.parent]
        assert stats.verdict(self.parent, change, better="higher", bound=0.1)[0] == "improved"

    def test_wide_spread_is_unresolved(self):
        parent = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
        change = list(reversed(parent))
        assert stats.verdict(parent, change, better="lower", bound=0.1)[0] == "unresolved"

    def test_wide_spread_worse_median_is_unresolved_not_regressed(self):
        parent = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
        change = [v * 1.3 for v in reversed(parent)]
        # The change's median is 30 % worse, beyond the 0.1 bound, but
        # the runs overlap and the parent alone spreads by 0.5.
        assert stats.spread(parent) > 0.1
        assert stats.verdict(parent, change, better="lower", bound=0.1)[0] == "unresolved"

    def test_wide_spread_but_every_change_run_worse_is_regressed(self):
        parent = [10.0, 12.0, 14.0, 16.0]
        change = [20.0, 22.0, 25.0, 40.0]
        assert stats.verdict(parent, change, better="lower", bound=0.05)[0] == "regressed"

    def test_wide_spread_but_every_change_run_better(self):
        parent = [10.0, 12.0, 14.0, 16.0]
        change = [1.0, 2.0, 3.0, 9.0]
        assert stats.verdict(parent, change, better="lower", bound=0.05)[0] == "improved"

    def test_ties_count_for_neither_and_zero_runs_are_steady(self):
        assert stats.verdict([0.0] * 5, [0.0] * 5, better="lower", bound=0.0) == ("no worse", 0.0)
        assert stats.verdict([0.0] * 5, [0.1] * 5, better="lower", bound=0.0)[0] == "regressed"

    def test_spread_matches_statistics_quantiles(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        q1, median, q3 = stats.quartiles(values)
        assert stats.spread(values) == pytest.approx((q3 - q1) / median)
