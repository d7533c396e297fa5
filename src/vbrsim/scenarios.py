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

from .model import BandwidthTrace, VersionInfo, VideoManifest

# Extra multiplier applied to one segment per burst period, mimicking the
# bitrate spikes that scene changes produce.
BURST_FACTOR = 2.0
BURST_PERIOD = 25  # segments between scene-change bursts
MODEL_ERROR = 0.05  # cv of the per-version noise below the top version

# Most breakpoints a rectangular trace may have: 50x the largest trace in use
# (20 000), so a mistyped total or period fails instead of filling memory.
MAX_RECT_BREAKPOINTS = 1_000_000
# Most segments a ladder may have: 10x the largest ladder in use (20 000); the
# generator holds several lists of this length per version (about 117 MB
# peak at the cap).
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
        if len(self.qps) < 2:
            raise ValueError(f"need at least 2 qps, got {len(self.qps)}")
        if len(self.target_avg_bitrates) != len(self.qps):
            raise ValueError(
                f"expected {len(self.qps)} target bitrates, got {len(self.target_avg_bitrates)}"
            )
        if any(hi >= lo for lo, hi in zip(self.qps, self.qps[1:])):
            raise ValueError(f"qps must strictly decrease with version index, got {self.qps}")
        if not all(0 < b < math.inf for b in self.target_avg_bitrates):
            raise ValueError(
                f"target bitrates must be finite and > 0, got {self.target_avg_bitrates}"
            )
        if any(b <= a for a, b in zip(self.target_avg_bitrates, self.target_avg_bitrates[1:])):
            raise ValueError("target bitrates must strictly increase with version index")
        if not 1 <= self.segment_count <= MAX_LADDER_SEGMENTS:
            raise ValueError(
                f"segment_count must be in 1..{MAX_LADDER_SEGMENTS}, got {self.segment_count}"
            )
        if not 0 < self.segment_duration < math.inf:
            raise ValueError(
                f"segment_duration must be finite and > 0, got {self.segment_duration}"
            )
        # the log-normal variance log(1 + cv**2) needs a finite square
        if not (self.burstiness >= 0 and math.isfinite(self.burstiness * self.burstiness)):
            raise ValueError(
                f"burstiness must be >= 0 with a finite square, got {self.burstiness}"
            )

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
    if name not in LADDER_PRESETS:
        raise ValueError(f"unknown preset {name!r}, expected one of {sorted(LADDER_PRESETS)}")
    return replace(LADDER_PRESETS[name], **overrides)


def gen_rect_bandwidth(
    high: float, low: float, period_high: float, period_low: float, total: float
) -> BandwidthTrace:
    """Alternating high/low piecewise-constant trace, starting high at t=0."""
    for name, val in (
        ("high", high),
        ("low", low),
        ("period_high", period_high),
        ("period_low", period_low),
        ("total", total),
    ):
        if not 0 < val < math.inf:
            raise ValueError(f"{name} must be finite and > 0, got {val}")
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


def _lognormal_shape(rng: random.Random, cv: float) -> float:
    # unit-mean log-normal with the requested coefficient of variation
    sigma2 = math.log(1.0 + cv * cv)
    return rng.lognormvariate(-sigma2 / 2.0, math.sqrt(sigma2))


def gen_vbr_ladder(spec: LadderSpec, title: str = "synthetic") -> VideoManifest:
    """Generate a manifest from a ladder spec (deterministic for a seed)."""
    rng = random.Random(spec.seed)
    n = spec.segment_count
    top = spec.num_versions - 1

    if spec.burstiness == 0:
        bitrates = [[target] * n for target in spec.target_avg_bitrates]
    else:
        shapes = [_lognormal_shape(rng, spec.burstiness) for _ in range(n)]
        for i in range(0, n, BURST_PERIOD):
            shapes[i] *= BURST_FACTOR
        bitrates = []
        for k, target in enumerate(spec.target_avg_bitrates):
            row = shapes
            if k != top:
                row = [s * _lognormal_shape(rng, MODEL_ERROR) for s in shapes]
            scale = target / (sum(row) / n)
            bitrates.append([b * scale for b in row])

    versions = []
    for k in range(spec.num_versions):
        sizes = [max(1, round(b * spec.segment_duration)) for b in bitrates[k]]
        versions.append(
            VersionInfo(index=k + 1, qp=spec.qps[k], segment_sizes=tuple(sizes))
        )
    return VideoManifest(
        title=title, segment_duration=spec.segment_duration, versions=tuple(versions)
    )
