"""Timing summaries: median plus the highest percentile with >= 10 samples beyond it."""

from __future__ import annotations

import statistics

PER_MILLE = (999, 990, 950, 900, 750)  # candidate percentiles, in tenths of a percent
TAIL_SAMPLES = 10


def _rank(per_mille: int, n: int) -> int:
    """Nearest-rank position (1-based) of a percentile among n sorted samples."""
    return -(-per_mille * n // 1000)


def summarize(samples: list[float]) -> dict:
    """{"n", "median", "p", "p_value"}; ``p`` is None below 40 samples."""
    if not samples:
        return {"n": 0, "median": None, "p": None, "p_value": None}
    ordered = sorted(samples)
    n = len(ordered)
    for pm in PER_MILLE:
        if n - _rank(pm, n) >= TAIL_SAMPLES:
            return {"n": n, "median": statistics.median(ordered), "p": pm / 10, "p_value": ordered[_rank(pm, n) - 1]}
    return {"n": n, "median": statistics.median(ordered), "p": None, "p_value": None}


def describe(summary: dict, unit: str) -> str:
    if summary["n"] == 0:
        return "no samples"
    text = f"median {summary['median']:.6g} {unit}"
    if summary["p"] is not None:
        text += f", p{summary['p']:g} {summary['p_value']:.6g} {unit}"
    return text + f", n={summary['n']}"
