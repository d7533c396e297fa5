import math
import random
from types import SimpleNamespace

import pytest

from vbrsim.model import ClientConfig, ClientView, StateError
from vbrsim.policies import (
    AVG_CASES,
    Decision,
    avg_decide,
    decide,
    flexible_threshold,
    itb_decide,
    select_panic_version,
)

QPS6 = (48, 42, 38, 34, 28, 22)


def make_view(buffer_level, last_version, t_instant):
    return ClientView(
        buffer_level=buffer_level,
        last_version=last_version,
        last_throughput=t_instant,
    )


def make_est(reps, latest, smoothed):
    """Minimal estimator stand-in with prescribed readings."""
    return SimpleNamespace(
        rep_bitrates=tuple(reps),
        latest_bitrates=tuple(latest),
        smoothed_throughput=smoothed,
        segments_seen=1,
        num_versions=len(QPS6),
    )


class TestFlexibleThreshold:
    def test_matched_rates_give_midpoint(self):
        assert flexible_threshold(1e6, 1e6, 10, 50) == pytest.approx(30.0, abs=1e-9)

    def test_zero_throughput(self):
        expected = 50 - 40 / (1 + math.e)  # hand evaluation of the logistic form
        assert flexible_threshold(0.0, 1e6, 10, 50) == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(39.2423, abs=5e-4)

    def test_throughput_three_times_bitrate(self):
        expected = 50 - 40 / (1 + math.exp(-2.0))
        assert flexible_threshold(3e6, 1e6, 10, 50) == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(14.768117, abs=1e-5)

    def test_zero_bitrate_rejected(self):
        with pytest.raises(ValueError):
            flexible_threshold(1e6, 0, 10, 50)

    def test_strict_bounds_and_monotone(self):
        # ratios beyond ~20 saturate to beta_min in float, so test the
        # physically plausible range where strictness is resolvable
        rng = random.Random(7)
        prev = None
        for ratio in sorted(rng.uniform(0, 12) for _ in range(500)):
            th = flexible_threshold(ratio * 1e6, 1e6, 10, 50)
            assert 10 < th < 50
            if prev is not None:
                assert th < prev  # strictly decreasing in throughput/bitrate ratio
            prev = th


class TestPanicSelection:
    ladder = (200e3, 400e3, 600e3, 1000e3, 2200e3, 5200e3)

    def test_picks_highest_feasible(self):
        assert select_panic_version(self.ladder, 800e3) == 3

    def test_empty_feasible_set_falls_back_to_one(self):
        assert select_panic_version(self.ladder, 100e3) == 1

    def test_all_feasible_picks_top(self):
        assert select_panic_version(self.ladder, 10e6) == 6

    def test_tie_prefers_higher_index(self):
        assert select_panic_version((500.0, 500.0, 900.0), 600.0) == 2

    def test_strictly_below_throughput(self):
        # equality does not qualify
        assert select_panic_version((500.0, 800.0), 800.0) == 1

    def test_agrees_with_brute_force(self):
        rng = random.Random(42)
        for _ in range(2000):
            n = rng.randint(1, 8)
            rates = [rng.uniform(1e4, 1e7) for _ in range(n)]
            t = rng.uniform(1e4, 1.2e7)
            feasible = [(rate, k) for k, rate in enumerate(rates, start=1) if rate < t]
            expected = max(feasible, key=lambda rk: (rk[0], rk[1]))[1] if feasible else 1
            assert select_panic_version(rates, t) == expected


class TestAvgDecide:
    def test_uptrend_steps_up_when_candidate_rep_fits(self):
        view = make_view(buffer_level=51, last_version=4, t_instant=1000e3)
        est = make_est(
            reps=(210e3, 400e3, 610e3, 1000e3, 900e3, 5200e3),
            latest=(210e3, 400e3, 610e3, 1000e3, 2200e3, 5200e3),
            smoothed=1000e3,
        )
        d = avg_decide(view, est, ClientConfig())
        assert d.next_version == 5
        assert d.case_label == "uptrend"

    def test_uptrend_holds_when_candidate_rep_too_big(self):
        view = make_view(buffer_level=51, last_version=4, t_instant=1000e3)
        est = make_est(
            reps=(210e3, 400e3, 610e3, 1000e3, 2200e3, 5200e3),
            latest=(210e3, 400e3, 610e3, 1000e3, 2200e3, 5200e3),
            smoothed=1000e3,
        )
        d = avg_decide(view, est, ClientConfig())
        assert d.next_version == 4
        assert d.case_label == "uptrend"

    def test_uptrend_at_top_version_maintains(self):
        view = make_view(buffer_level=51, last_version=6, t_instant=9e6)
        est = make_est(
            reps=(210e3, 400e3, 610e3, 1000e3, 2200e3, 5200e3),
            latest=(210e3, 400e3, 610e3, 1000e3, 2200e3, 5200e3),
            smoothed=9e6,
        )
        for gate in ("prose", "pseudocode"):
            d = avg_decide(view, est, ClientConfig(uptrend_gate=gate))
            assert d.next_version == 6

    def test_uptrend_gate_variants_differ(self):
        # current version's rep fits under the estimate but the next one's does not
        view = make_view(buffer_level=51, last_version=4, t_instant=1200e3)
        est = make_est(
            reps=(210e3, 400e3, 610e3, 1000e3, 2200e3, 5200e3),
            latest=(210e3, 400e3, 610e3, 1000e3, 2200e3, 5200e3),
            smoothed=1200e3,
        )
        assert avg_decide(view, est, ClientConfig(uptrend_gate="prose")).next_version == 4
        assert avg_decide(view, est, ClientConfig(uptrend_gate="pseudocode")).next_version == 5

    def test_stable_maintains(self):
        # matched instant rates put the threshold at 30, so a 35s buffer is stable
        view = make_view(buffer_level=35, last_version=4, t_instant=1000e3)
        est = make_est(
            reps=(210e3, 400e3, 610e3, 1000e3, 2200e3, 5200e3),
            latest=(210e3, 400e3, 610e3, 1000e3, 2200e3, 5200e3),
            smoothed=1000e3,
        )
        d = avg_decide(view, est, ClientConfig())
        assert d.case_label == "stable"
        assert d.next_version == 4
        assert d.flexible_threshold == pytest.approx(30.0)

    def test_buffer_exactly_at_target_is_stable(self):
        view = make_view(buffer_level=50, last_version=4, t_instant=1000e3)
        est = make_est(
            reps=(210e3, 400e3, 610e3, 1000e3, 2200e3, 5200e3),
            latest=(210e3, 400e3, 610e3, 1000e3, 2200e3, 5200e3),
            smoothed=1000e3,
        )
        d = avg_decide(view, est, ClientConfig())
        assert d.case_label == "stable"
        assert d.next_version == 4

    def test_downtrend_steps_down_past_target(self):
        # target becomes 610k; version 4's rep (1000k) exceeds it
        view = make_view(buffer_level=20, last_version=4, t_instant=500e3)
        est = make_est(
            reps=(210e3, 400e3, 610e3, 1000e3, 2200e3, 5200e3),
            latest=(210e3, 400e3, 610e3, 1000e3, 2200e3, 5200e3),
            smoothed=900e3,
        )
        d = avg_decide(view, est, ClientConfig())
        assert d.case_label == "downtrend"
        assert d.next_version == 3
        assert d.target_bitrate == pytest.approx(610e3)

    def test_downtrend_maintains_under_target(self):
        view = make_view(buffer_level=20, last_version=3, t_instant=700e3)
        est = make_est(
            reps=(210e3, 400e3, 610e3, 1000e3, 2200e3, 5200e3),
            latest=(210e3, 400e3, 605e3, 1000e3, 2200e3, 5200e3),
            smoothed=900e3,
        )
        d = avg_decide(view, est, ClientConfig())
        assert d.case_label == "downtrend"
        assert d.next_version == 3

    def test_downtrend_empty_target_steps_down(self):
        view = make_view(buffer_level=20, last_version=3, t_instant=100e3)
        est = make_est(
            reps=(210e3, 400e3, 610e3, 1000e3, 2200e3, 5200e3),
            latest=(210e3, 400e3, 610e3, 1000e3, 2200e3, 5200e3),
            smoothed=50e3,
        )
        d = avg_decide(view, est, ClientConfig())
        assert d.case_label == "downtrend"
        assert d.next_version == 2
        assert d.target_bitrate is None

    def test_downtrend_clamps_at_version_one(self):
        view = make_view(buffer_level=20, last_version=1, t_instant=100e3)
        est = make_est(
            reps=(210e3, 400e3, 610e3, 1000e3, 2200e3, 5200e3),
            latest=(210e3, 400e3, 610e3, 1000e3, 2200e3, 5200e3),
            smoothed=50e3,
        )
        assert avg_decide(view, est, ClientConfig()).next_version == 1

    def test_panic_uses_instant_values(self):
        view = make_view(buffer_level=5, last_version=4, t_instant=800e3)
        est = make_est(
            reps=(210e3, 400e3, 610e3, 1000e3, 2200e3, 5200e3),
            latest=(200e3, 400e3, 600e3, 1000e3, 2200e3, 5200e3),
            smoothed=900e3,
        )
        d = avg_decide(view, est, ClientConfig())
        assert d.case_label == "panic"
        assert d.next_version == 3

    def test_panic_never_raises_the_version(self):
        # instant feasibility would allow version 5, but increases are
        # reserved for a full buffer
        view = make_view(buffer_level=5, last_version=2, t_instant=3000e3)
        est = make_est(
            reps=(210e3, 400e3, 610e3, 1000e3, 2200e3, 5200e3),
            latest=(200e3, 400e3, 600e3, 1000e3, 2200e3, 5200e3),
            smoothed=900e3,
        )
        d = avg_decide(view, est, ClientConfig())
        assert d.case_label == "panic"
        assert d.next_version == 2

    def test_requires_a_received_segment(self):
        view = make_view(buffer_level=5, last_version=2, t_instant=1e6)
        est = make_est(reps=(1, 1, 1, 1, 1, 1), latest=(1, 1, 1, 1, 1, 1), smoothed=None)
        est.segments_seen = 0
        with pytest.raises(StateError):
            avg_decide(view, est, ClientConfig())

    def test_case_partition_is_exhaustive_and_exclusive(self):
        rng = random.Random(9)
        cfg = ClientConfig()
        for _ in range(2000):
            buffer = rng.uniform(0, 55)
            t = rng.uniform(1e5, 5e6)
            latest = sorted(rng.uniform(1e5, 6e6) for _ in range(6))
            reps = sorted(rng.uniform(1e5, 6e6) for _ in range(6))
            view = make_view(buffer_level=buffer, last_version=rng.randint(1, 6), t_instant=t)
            est = make_est(reps=reps, latest=latest, smoothed=rng.uniform(1e5, 5e6))
            d = avg_decide(view, est, cfg)
            assert d.case_label in AVG_CASES
            th = d.flexible_threshold
            assert cfg.beta_min < th < cfg.beta_max
            if buffer > cfg.beta_max:
                assert d.case_label == "uptrend"
            elif buffer >= th:
                assert d.case_label == "stable"
            elif buffer >= cfg.beta_min:
                assert d.case_label == "downtrend"
            else:
                assert d.case_label == "panic"

    def test_step_bound_outside_panic(self):
        rng = random.Random(10)
        cfg = ClientConfig()
        for _ in range(2000):
            current = rng.randint(1, 6)
            view = make_view(
                buffer_level=rng.uniform(0, 55), last_version=current, t_instant=rng.uniform(1e5, 5e6)
            )
            est = make_est(
                reps=[rng.uniform(1e5, 6e6) for _ in range(6)],
                latest=[rng.uniform(1e5, 6e6) for _ in range(6)],
                smoothed=rng.uniform(1e5, 5e6),
            )
            d = avg_decide(view, est, cfg)
            assert 1 <= d.next_version <= 6
            if d.case_label != "panic":
                assert abs(d.next_version - current) <= 1
            if view.buffer_level <= cfg.beta_max:
                assert d.next_version <= current  # no up-switch below a full buffer


class RepTripwire(SimpleNamespace):
    """Estimator stand-in whose representative bitrates raise when read."""

    @property
    def rep_bitrates(self):
        raise LookupError("rep_bitrates read")


class TestRepresentativeBitratesReadLazily:
    # pins the saving: stable, panic and top-version uptrend decisions never
    # sum the windows (stable alone is about half of AVG-30's decisions on
    # a long session)
    READINGS = dict(
        reps=(210e3, 400e3, 610e3, 1000e3, 2200e3, 5200e3),
        latest=(200e3, 400e3, 600e3, 1000e3, 2200e3, 5200e3),
        smoothed=900e3,
    )

    def tripwire(self):
        readings = vars(make_est(**self.READINGS))
        return RepTripwire(**{k: v for k, v in readings.items() if k != "rep_bitrates"})

    @pytest.mark.parametrize("gate", ["prose", "pseudocode"])
    @pytest.mark.parametrize(
        "buffer, version, case", [(35, 4, "stable"), (5, 4, "panic"), (51, 6, "uptrend")]
    )
    def test_regimes_that_never_read_them(self, buffer, version, case, gate):
        view = make_view(buffer_level=buffer, last_version=version, t_instant=1000e3)
        cfg = ClientConfig(uptrend_gate=gate)
        d = avg_decide(view, self.tripwire(), cfg)
        assert d.case_label == case
        assert d == avg_decide(view, make_est(**self.READINGS), cfg)

    @pytest.mark.parametrize("gate", ["prose", "pseudocode"])
    @pytest.mark.parametrize("buffer, case", [(51, "uptrend"), (20, "downtrend")])
    def test_regimes_that_read_them(self, buffer, case, gate):
        view = make_view(buffer_level=buffer, last_version=4, t_instant=1000e3)
        cfg = ClientConfig(uptrend_gate=gate)
        assert avg_decide(view, make_est(**self.READINGS), cfg).case_label == case
        with pytest.raises(LookupError, match="rep_bitrates"):
            avg_decide(view, self.tripwire(), cfg)


class TestItbDecide:
    def test_above_all_bitrates_picks_top(self):
        view = make_view(buffer_level=40, last_version=3, t_instant=9e6)
        est = make_est(
            reps=(1, 1, 1, 1, 1, 1), latest=(200e3, 400e3, 600e3, 1000e3, 2200e3, 5200e3),
            smoothed=9e6,
        )
        d = itb_decide(view, est)
        assert d.next_version == 6
        assert d.case_label == "itb"

    def test_matches_panic_oracle(self):
        view = make_view(buffer_level=40, last_version=3, t_instant=800e3)
        est = make_est(
            reps=(1, 1, 1, 1, 1, 1), latest=(200e3, 400e3, 600e3, 1000e3, 2200e3, 5200e3),
            smoothed=800e3,
        )
        assert itb_decide(view, est).next_version == 3

    def test_alternating_throughput_alternates_versions(self):
        latest = (200e3, 400e3, 600e3, 1000e3, 2200e3, 5200e3)
        est = make_est(reps=(1,) * 6, latest=latest, smoothed=1e6)
        picks = []
        for t in [800e3, 2500e3, 800e3, 2500e3]:
            view = make_view(buffer_level=40, last_version=3, t_instant=t)
            picks.append(itb_decide(view, est).next_version)
        assert picks == [3, 5, 3, 5]

    def test_ignores_buffer_level(self):
        latest = (200e3, 400e3, 600e3, 1000e3, 2200e3, 5200e3)
        est = make_est(reps=(1,) * 6, latest=latest, smoothed=1e6)
        picks = {
            itb_decide(make_view(buffer_level=b, last_version=3, t_instant=800e3), est).next_version
            for b in (0.5, 5, 25, 55)
        }
        assert picks == {3}


class TestDispatch:
    def test_routes_by_config(self):
        view = make_view(buffer_level=5, last_version=4, t_instant=800e3)
        est = make_est(
            reps=(210e3, 400e3, 610e3, 1000e3, 2200e3, 5200e3),
            latest=(200e3, 400e3, 600e3, 1000e3, 2200e3, 5200e3),
            smoothed=900e3,
        )
        assert decide(view, est, ClientConfig(policy="avg")).case_label == "panic"
        assert decide(view, est, ClientConfig(policy="itb")).case_label == "itb"
