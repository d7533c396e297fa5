import math
import random
from dataclasses import replace
from statistics import pstdev

import pytest

from tests_support import synthetic_log as make_log
from vbrsim.metrics import buffer_cdf, compute_stats, stats_table, warmup_segments


class TestComputeStats:
    def test_switch_counting(self):
        s = compute_stats(make_log([1, 1, 2, 2, 1]))
        assert s.num_switches == 2
        assert s.max_switch_degree == 1

    def test_constant_sequence(self):
        s = compute_stats(make_log([3] * 10))
        assert s.num_switches == 0
        assert s.std_switch_degrees == 0.0
        assert s.max_switch_degree == 0

    def test_switch_std_includes_zero_transitions(self):
        # 300 segments, 17 unit switches among 299 transitions
        rng = random.Random(1)
        flips = set(rng.sample(range(1, 300), 17))
        versions = []
        cur = 3
        for i in range(300):
            if i in flips:
                cur = 3 if cur == 4 else 4
            versions.append(cur)
        s = compute_stats(make_log(versions))
        assert s.num_switches == 17
        p = 17 / 299
        assert s.std_switch_degrees == pytest.approx(math.sqrt(p * (1 - p)), rel=1e-12)
        assert s.std_switch_degrees == pytest.approx(0.2316, abs=5e-4)

    def test_average_bitrate_and_version(self):
        log = make_log([1, 2, 3], bitrate=1.5e6)
        s = compute_stats(log)
        assert s.average_bitrate == pytest.approx(1.5e6)
        assert s.average_version == pytest.approx(2.0)
        assert s.min_version == 1
        assert s.max_version == 3

    def test_warmup_exclusion(self):
        s = compute_stats(make_log([1, 1, 4, 4, 4, 4]), warmup_exclude=2)
        assert s.min_version == 4
        assert s.num_switches == 0

    def test_buffer_stats_permutation_invariant(self):
        rng = random.Random(3)
        buffers = [rng.uniform(0, 50) for _ in range(40)]
        shuffled = list(buffers)
        rng.shuffle(shuffled)
        a = compute_stats(make_log([2] * 40, buffers=buffers))
        b = compute_stats(make_log([2] * 40, buffers=shuffled))
        assert a.min_buffer == b.min_buffer
        assert a.std_buffer == pytest.approx(b.std_buffer, rel=1e-12)

    def test_switch_stats_order_sensitive(self):
        a = compute_stats(make_log([1, 2, 1, 2]))
        b = compute_stats(make_log([1, 1, 2, 2]))
        assert a.num_switches == 3
        assert b.num_switches == 1

    def test_stall_total(self):
        s = compute_stats(make_log([1, 1, 1], stalls=[0.0, 1.5, 0.25]))
        assert s.total_stall == pytest.approx(1.75)

    def test_errors(self):
        log = make_log([1, 2, 3])
        with pytest.raises(ValueError, match="^warmup_exclude 3 >= record count 3$"):
            compute_stats(log, warmup_exclude=3)
        with pytest.raises(ValueError, match="^warmup_exclude must be >= 0, got -1$"):
            compute_stats(log, warmup_exclude=-1)
        with pytest.raises(ValueError, match="warmup_exclude 0 >= record count 0"):
            compute_stats(replace(log, records=()))

    @pytest.mark.parametrize(
        "log, message",
        [
            # each bitrate is finite, but their exact sum is not
            (make_log([1, 1], duration=0.9, bitrate=1e308), "average_bitrate is inf, .* size_bits"),
            (make_log([1, 1, 1], stalls=[1e308, 0.0, 1e308]), "total_stall is inf, .* stall_s"),
        ],
        ids=["average-bitrate", "total-stall"],
    )
    def test_refuses_a_statistic_past_the_float_range(self, log, message):
        with pytest.raises(ValueError, match=message):
            compute_stats(log)


def _std_grid():
    """1200 value lists, seed 2026: the kinds that one power-of-two scale
    holds exactly, and those that it cannot (ints no float holds, ranges
    wider than 2**970)."""
    rng = random.Random(2026)
    kinds = (
        lambda n: [rng.uniform(0, 60) for _ in range(n)],
        lambda n: [rng.randint(0, 4) for _ in range(n)],
        lambda n: [rng.choice((2**53 + 1, 2**60 + 3, 0.5)) for _ in range(n)],
        lambda n: [rng.choice((5e-324, 1e300)) for _ in range(n)],
        lambda n: [rng.choice((rng.uniform(0, 60), rng.randint(0, 4), 5e-324))] * n,
        lambda n: [rng.choice((0, 0.0))] * n,
    )
    for i in range(1200):
        yield kinds[i % len(kinds)](rng.choice((2, 2, 3, 7, 40)))


class TestStdExactness:
    def test_std_buffer_equals_statistics_pstdev(self):
        grid = list(_std_grid())
        mismatches = [
            values
            for values in grid
            if compute_stats(make_log([1] * len(values), buffers=values)).std_buffer
            != pstdev(values)
        ]
        assert len(grid) >= 1000
        assert not mismatches, mismatches[:3]

    @pytest.mark.parametrize(
        "values", [[5e-324, 60.0], [60.0, 5e-324, 30.5], [2.0**-1000, 1.0]]
    )
    def test_std_buffer_is_exact_where_one_scale_would_pass_the_float_range(self, values):
        # every value is below 2**53, but at the smallest one's ulp the largest
        # would scale past the float range, so the exact ratios are summed instead
        log = make_log([1] * len(values), buffers=values)
        assert compute_stats(log).std_buffer == pstdev(values)

    def test_std_switch_degrees_equals_statistics_pstdev(self):
        rng = random.Random(2027)
        mismatches = []
        for _ in range(300):
            versions = [rng.randint(1, 5) for _ in range(rng.choice((2, 3, 40)))]
            degrees = [abs(b - a) for a, b in zip(versions, versions[1:])]
            if compute_stats(make_log(versions)).std_switch_degrees != pstdev(degrees):
                mismatches.append(versions)
        assert not mismatches, mismatches[:3]


class TestBufferCdf:
    # a synthetic log has beta_max 50 s, so its levels are whole seconds up
    # to 50 s + one segment, or up to its media length when that is shorter
    def test_point_mass(self):
        log = make_log([1] * 30, buffers=[40.0] * 30)
        assert buffer_cdf(log) == [(float(g), 0.0 if g < 40 else 1.0) for g in range(53)]

    def test_direct_count(self):
        log = make_log([1] * 4, buffers=[10.0, 20.0, 30.0, 40.0], duration=15.0)
        cdf = dict(buffer_cdf(log))
        assert list(cdf) == [float(g) for g in range(61)]
        assert (cdf[9.0], cdf[25.0], cdf[39.0], cdf[40.0]) == (0.0, 0.5, 0.75, 1.0)

    def test_matches_sort_and_count_oracle(self):
        rng = random.Random(8)
        buffers = [rng.uniform(0, 52) for _ in range(200)]
        log = make_log([1] * 200, buffers=buffers)
        cdf = buffer_cdf(log)
        assert len(cdf) == 53
        for level, frac in cdf:
            expected = sum(1 for b in buffers if b <= level) / len(buffers)
            assert frac == expected

    def test_monotone_bounded_ends_at_one(self):
        rng = random.Random(9)
        buffers = [rng.uniform(0, 50) for _ in range(100)]
        log = make_log([1] * 100, buffers=buffers)
        fracs = [f for _, f in buffer_cdf(log)]
        assert all(0.0 <= f <= 1.0 for f in fracs)
        assert all(b >= a for a, b in zip(fracs, fracs[1:]))
        assert fracs[-1] == 1.0


class TestWarmup:
    def test_first_buffer_fill(self):
        log = make_log([1] * 6, buffers=[5, 20, 35, 50, 51, 50])
        assert warmup_segments(log) == 4

    def test_never_full_returns_zero(self):
        log = make_log([1] * 4, buffers=[5, 10, 15, 20])
        assert warmup_segments(log) == 0

    def test_first_full_on_the_last_segment_returns_zero(self):
        # excluding every segment would leave nothing to summarize
        log = make_log([1, 2, 3, 3], buffers=[5, 20, 35, 50])
        assert warmup_segments(log) == 0
        assert compute_stats(log, warmup_exclude=warmup_segments(log)) == compute_stats(log)


class TestStatsTable:
    def test_contains_every_row_label(self):
        stats = compute_stats(make_log([1, 2, 2, 3]))
        table = stats_table({"AVG-30": stats})
        for label in (
            "Average bitrate (kbps)",
            "Average version",
            "Maximum version",
            "Minimum version",
            "Number of switches",
            "Maximum switch degree",
            "STD of switch degrees",
            "Minimum buffer level (s)",
            "STD of buffer levels (s)",
        ):
            assert label in table

    def test_multi_column(self):
        s = compute_stats(make_log([1, 2, 2, 3]))
        table = stats_table({"ITB": s, "AVG-30": s})
        header = table.splitlines()[0]
        assert "ITB" in header and "AVG-30" in header
