"""Trace-driven simulator for buffer-based rate adaptation of VBR video."""

from .engine import run_session
from .metrics import compute_stats, warmup_segments
from .model import ClientConfig
from .scenarios import gen_rect_bandwidth, gen_vbr_ladder, ladder_preset

__all__ = [
    "ClientConfig",
    "compute_stats",
    "gen_rect_bandwidth",
    "gen_vbr_ladder",
    "ladder_preset",
    "run_session",
    "warmup_segments",
]
