"""Synthetic inputs: rectangular bandwidth traces and VBR version ladders.

A ladder's versions share one seeded bursty per-segment bitrate shape. Every
version below the top one gets its own multiplicative "model error" noise on
that shape, the way real encoders depart from a clean rate model, and every
version is then scaled so its empirical mean hits its target average. The
QPs only label the versions in the manifest.

A ``burstiness`` of zero requests a degenerate constant-bitrate ladder: every
segment sits exactly at the version's target average and no noise of any kind
is applied.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from random import NV_MAGICCONST

from .model import NONNEGATIVE, NUMBER, POSITIVE, BandwidthTrace, VideoManifest, check
from .model import check_each, check_qps, int_range, one_of, valid

# Extra multiplier applied to one segment per burst period, mimicking the
# bitrate spikes that scene changes produce.
BURST_FACTOR = 2.0
BURST_PERIOD = 25  # segments between scene-change bursts
MODEL_ERROR = 0.05  # cv of the per-version noise below the top version

# Most breakpoints a rectangular trace may have: 50x the largest trace in use
# (20 000), so a mistyped total or period fails instead of filling memory.
MAX_RECT_BREAKPOINTS = 1_000_000
# Most segments a ladder may have: 10x the largest ladder in use (20 000). At
# the cap gen_vbr_ladder's tracemalloc peak is about 56 MB, 48 MB of it the
# manifest it returns; a Python 3.11 process that only generates it peaks at
# 71 MB RSS.
MAX_LADDER_SEGMENTS = 200_000


@dataclass(frozen=True)
class LadderSpec:
    qps: tuple
    target_avg_bitrates: tuple  # bits/s, ascending with version index
    segment_count: int
    segment_duration: float
    burstiness: float  # coefficient of variation of per-segment bitrate
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "qps", tuple(self.qps))
        object.__setattr__(self, "target_avg_bitrates", tuple(self.target_avg_bitrates))
        check_qps(self.qps)
        if len(self.target_avg_bitrates) != len(self.qps):
            raise ValueError(
                f"expected {len(self.qps)} target bitrates, got {len(self.target_avg_bitrates)}"
            )
        check_each(self.target_avg_bitrates, POSITIVE, lambda i: f"version {i + 1}: target bitrate")
        if any(b <= a for a, b in zip(self.target_avg_bitrates, self.target_avg_bitrates[1:])):
            raise ValueError("target bitrates must strictly increase with version index")
        check(self.segment_count, int_range(1, MAX_LADDER_SEGMENTS), "segment_count")
        check(self.segment_duration, POSITIVE, "segment_duration")
        check(self.burstiness, NONNEGATIVE, "burstiness")
        # the log-normal variance log(1 + cv**2) needs a finite square
        if not valid((self.burstiness * self.burstiness,), NUMBER):
            raise ValueError(f"burstiness must have a finite square, got {self.burstiness}")

    @property
    def num_versions(self) -> int:
        return len(self.qps)


# Version ladders of the two test videos this project mirrors: six versions,
# QP 48 down to 22, with measured average bitrates in bits/s.
LADDER_PRESETS = {
    "sony-like": LadderSpec(
        qps=(48, 42, 38, 34, 28, 22),
        target_avg_bitrates=(203_770, 390_750, 602_960, 991_320, 2_194_050, 5_180_580),
        segment_count=300,
        segment_duration=2.0,
        burstiness=0.3,
        seed=0,
    ),
    "terminator-like": LadderSpec(
        qps=(48, 42, 38, 34, 28, 22),
        target_avg_bitrates=(201_550, 377_970, 567_020, 882_290, 1_798_930, 4_127_860),
        segment_count=300,
        segment_duration=2.0,
        burstiness=0.3,
        seed=0,
    ),
}


def ladder_preset(name: str, **overrides) -> LadderSpec:
    """A named preset, optionally with fields overridden."""
    check(name, one_of(LADDER_PRESETS), "preset")
    return replace(LADDER_PRESETS[name], **overrides)


def gen_rect_bandwidth(
    high: float, low: float, period_high: float, period_low: float, total: float
) -> BandwidthTrace:
    """Alternating high/low piecewise-constant trace, starting high at t=0."""
    names = ("high", "low", "period_high", "period_low", "total")
    check_each((high, low, period_high, period_low, total), POSITIVE, names.__getitem__)
    if total / (period_high + period_low) > MAX_RECT_BREAKPOINTS / 2:
        raise ValueError(
            f"total {total} s with period_high {period_high} s and period_low {period_low} s"
            f" needs more than {MAX_RECT_BREAKPOINTS} breakpoints"
        )
    breakpoints = []
    t = 0.0
    is_high = True
    while t < total:
        breakpoints.append((t, high if is_high else low))
        t += period_high if is_high else period_low
        is_high = not is_high
    return BandwidthTrace(tuple(breakpoints))


def _lognormal_params(cv: float) -> tuple:
    # mu and sigma of the unit-mean log-normal with coefficient of variation cv
    sigma2 = math.log(1.0 + cv * cv)
    return -sigma2 / 2.0, math.sqrt(sigma2)


def _lognormals(rng: random.Random, mu: float, sigma: float, n: int) -> list:
    """``n`` draws of ``rng.lognormvariate(mu, sigma)``, bit for bit.

    This is the stdlib's Kinderman-Monahan loop from ``normalvariate`` with
    its lookups bound once, so it consumes the same ``rng.random()`` values
    and leaves ``rng`` in the same state.
    """
    uniform, log, exp = rng.random, math.log, math.exp
    out = []
    append = out.append
    for _ in range(n):
        while True:
            u1 = uniform()
            u2 = 1.0 - uniform()
            z = NV_MAGICCONST * (u1 - 0.5) / u2
            if z * z / 4.0 <= -log(u2):
                break
        append(exp(mu + z * sigma))
    return out


def _with_model_error(shapes: list, rng: random.Random) -> list:
    """``shapes`` times one fresh log-normal noise draw per segment, of cv MODEL_ERROR."""
    mu, sigma = _lognormal_params(MODEL_ERROR)
    return [s * e for s, e in zip(shapes, _lognormals(rng, mu, sigma, len(shapes)))]


def _version_sizes(bitrates: list, target: float, duration: float) -> tuple:
    """Segment sizes in bits of a version whose per-segment ``bitrates`` are
    scaled so their mean is ``target``."""
    scale = target / (sum(bitrates) / len(bitrates))
    return tuple([max(1, round(b * scale * duration)) for b in bitrates])


def gen_vbr_ladder(spec: LadderSpec, title: str = "synthetic") -> VideoManifest:
    """Generate a manifest from a ladder spec (deterministic for a seed).

    Each version's bitrates become its sizes before the next version is
    drawn, so at most one version's floats are held beside the shared shape.
    """
    n = spec.segment_count
    top = spec.num_versions - 1
    duration = spec.segment_duration
    try:
        if spec.burstiness == 0:
            sizes = [(max(1, round(t * duration)),) * n for t in spec.target_avg_bitrates]
        else:
            rng = random.Random(spec.seed)
            shapes = _lognormals(rng, *_lognormal_params(spec.burstiness), n)
            for i in range(0, n, BURST_PERIOD):
                shapes[i] *= BURST_FACTOR
            sizes = [
                _version_sizes(
                    shapes if k == top else _with_model_error(shapes, rng), target, duration
                )
                for k, target in enumerate(spec.target_avg_bitrates)
            ]
    except OverflowError:  # round() of an infinite bitrate * duration
        raise ValueError(
            f"segment_duration {duration} s makes a segment size overflow a float"
        ) from None
    return VideoManifest(title, duration, spec.qps, sizes)
