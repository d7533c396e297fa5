import random

import pytest

from vbrsim.estimators import EstimatorState, estimate_cross_version_bitrate
from vbrsim.model import ClientConfig

QPS6 = (48, 42, 38, 34, 28, 22)


def brute_force_rep(history, window_n):
    """Independent oracle: mean of the last min(N, len) values."""
    tail = history[-window_n:]
    return sum(tail) / len(tail)


class TestSmoothedThroughput:
    def test_first_sample_passes_through(self):
        est = EstimatorState((30, 24), ClientConfig(window_n=10))
        est.update_smoothed_throughput(1_500_000)
        assert est.smoothed_throughput == 1_500_000

    def test_weighted_update(self):
        est = EstimatorState((30, 24), ClientConfig(window_n=10))
        est.update_smoothed_throughput(1_000_000)
        est.update_smoothed_throughput(2_000_000)
        assert est.smoothed_throughput == pytest.approx(1_100_000, rel=1e-12)

    def test_fixed_point(self):
        for delta in (0.05, 0.1, 0.5, 1.0):
            est = EstimatorState((30, 24), ClientConfig(window_n=10, delta=delta))
            est.update_smoothed_throughput(777_000)
            est.update_smoothed_throughput(777_000)
            assert est.smoothed_throughput == pytest.approx(777_000, rel=1e-12)

    def test_bounded_by_sample_extremes(self):
        rng = random.Random(11)
        for _ in range(50):
            est = EstimatorState((30, 24), ClientConfig(window_n=10))
            samples = [rng.uniform(1e4, 1e7) for _ in range(rng.randint(1, 40))]
            for s in samples:
                est.update_smoothed_throughput(s)
                assert min(samples) <= est.smoothed_throughput <= max(samples)

    def test_monotone_in_any_single_sample(self):
        rng = random.Random(12)
        for _ in range(50):
            samples = [rng.uniform(1e4, 1e7) for _ in range(rng.randint(2, 20))]
            bumped_at = rng.randrange(len(samples))
            bumped = list(samples)
            bumped[bumped_at] += rng.uniform(1, 1e6)
            cfg = ClientConfig(window_n=10)
            est_a, est_b = EstimatorState((30, 24), cfg), EstimatorState((30, 24), cfg)
            for s in samples:
                est_a.update_smoothed_throughput(s)
            for s in bumped:
                est_b.update_smoothed_throughput(s)
            assert est_b.smoothed_throughput >= est_a.smoothed_throughput

    def test_rejects_nonpositive(self):
        # a throughput of 0.0 is refused in the session loop
        # (tests/test_cli.py::test_run_rejects_a_value_that_underflows_to_zero)
        with pytest.raises(ValueError, match="^delta must be a finite number > 0, got 0$"):
            ClientConfig(delta=0)


class TestCrossVersionEstimate:
    def test_same_qp_is_theta_times_bitrate(self):
        assert estimate_cross_version_bitrate(1000, 30, 30, 1.05) == 1050.0

    def test_six_qp_steps_down_halves(self):
        assert estimate_cross_version_bitrate(2_000_000, 28, 34, 1.05) == 1_050_000.0

    def test_six_qp_steps_up_doubles(self):
        assert estimate_cross_version_bitrate(200_000, 48, 42, 1.05) == 420_000.0

    def test_exact_factors_over_random_bitrates(self):
        rng = random.Random(21)
        for _ in range(1000):
            b = rng.uniform(1e3, 1e8)
            theta = 1.05
            assert estimate_cross_version_bitrate(b, 34, 34, theta) == theta * b
            assert estimate_cross_version_bitrate(b, 34, 40, theta) == theta * b * 0.5
            assert estimate_cross_version_bitrate(b, 34, 28, theta) == theta * b * 2.0

    def test_round_trip_multiplies_theta_squared(self):
        # estimating a->b then b->a compounds the compensation; documented, not "fixed"
        rng = random.Random(22)
        for _ in range(200):
            b = rng.uniform(1e3, 1e8)
            there = estimate_cross_version_bitrate(b, 48, 22, 1.05)
            back = estimate_cross_version_bitrate(there, 22, 48, 1.05)
            assert back == pytest.approx(1.05 * 1.05 * b, rel=1e-12)

    def test_strictly_decreasing_in_target_qp(self):
        values = [estimate_cross_version_bitrate(5e5, 34, qp, 1.05) for qp in range(20, 52)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestIngest:
    def test_full_window_slides(self):
        est = EstimatorState((30,), ClientConfig(window_n=3))
        for b in [100, 200, 300]:
            est.ingest_segment(1, b)
        assert est.rep_bitrate(1) == pytest.approx(200)
        est.ingest_segment(1, 400)
        assert est.rep_bitrate(1) == pytest.approx(300)

    def test_first_segment_sets_rep(self):
        est = EstimatorState((30,), ClientConfig(window_n=10))
        est.ingest_segment(1, 500)
        assert est.rep_bitrate(1) == 500

    def test_warmup_prefix_mean(self):
        est = EstimatorState((30,), ClientConfig(window_n=10))
        for b in [100, 200, 300, 400]:
            est.ingest_segment(1, b)
        assert est.rep_bitrate(1) == pytest.approx(250)

    def test_other_versions_get_projected_bitrates(self):
        est = EstimatorState(QPS6, ClientConfig(window_n=5))
        est.ingest_segment(5, 2_000_000)
        assert est.latest_bitrates[4] == 2_000_000
        assert est.latest_bitrates[3] == pytest.approx(1_050_000)  # qp 28 -> 34
        assert est.latest_bitrates[5] == pytest.approx(4_200_000)  # qp 28 -> 22
        # bit for bit the QP model's projection, for every other version
        for k, qp in enumerate(QPS6):
            if k != 4:
                expected = estimate_cross_version_bitrate(2_000_000, 28, qp, 1.05)
                assert est.latest_bitrates[k] == expected

    def test_rows_are_the_qp_formula_bit_for_bit(self):
        # the oracle is the one QP formula, compared with ==, not approx
        rng = random.Random(35)
        window_n = 4
        for theta in (0.5, 1.0, 1.05, 1.7):
            est = EstimatorState(QPS6, ClientConfig(window_n=window_n, theta=theta))
            assert est.latest_bitrates == ()
            histories = [[] for _ in QPS6]
            for i in range(6 * 15):
                received = i % 6 + 1
                b = 10.0 ** rng.uniform(-3, 12)
                est.ingest_segment(received, b)
                qp_from = QPS6[received - 1]
                expected = [
                    estimate_cross_version_bitrate(b, qp_from, qp, theta) for qp in QPS6
                ]
                expected[received - 1] = b
                assert est.latest_bitrates == tuple(expected)
                for history, value in zip(histories, expected):
                    history.append(value)
                for k, history in enumerate(histories, start=1):
                    tail = history[-window_n:]
                    assert est.rep_bitrate(k) == sum(tail) / len(tail)

    def test_incremental_matches_brute_force_per_step(self):
        rng = random.Random(33)
        for _ in range(100):
            window_n = rng.choice([1, 2, 3, 10, 30, 50])
            est = EstimatorState(QPS6, ClientConfig(window_n=window_n))
            histories = [[] for _ in range(6)]
            for _ in range(rng.randint(1, 80)):
                version = rng.randint(1, 6)
                b = rng.uniform(1e5, 1e7)
                est.ingest_segment(version, b)
                qp_from = QPS6[version - 1]
                for k in range(6):
                    if k == version - 1:
                        histories[k].append(b)
                    else:
                        histories[k].append(
                            estimate_cross_version_bitrate(b, qp_from, QPS6[k], 1.05)
                        )
                for k in range(6):
                    expected = brute_force_rep(histories[k], window_n)
                    assert est.rep_bitrate(k + 1) == expected


class TestConstruction:
    def test_takes_session_constants_from_config(self):
        est = EstimatorState(QPS6, ClientConfig(window_n=2, delta=0.5, theta=1.0))
        assert est.num_versions == 6
        for b in [100.0, 200.0, 400.0]:
            est.ingest_segment(1, b)
            est.update_smoothed_throughput(b)
        assert est.rep_bitrate(1) == 300.0  # window of 2
        assert est.smoothed_throughput == 275.0  # delta 0.5
        assert est.latest_bitrates[1] == estimate_cross_version_bitrate(400.0, 48, 42, 1.0)
