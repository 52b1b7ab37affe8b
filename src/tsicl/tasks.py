"""Window-level task example constructors: forecast, impute, backtrace.

All three tasks share one window geometry (lookback ``L = 2h``, horizon ``h``)
so their examples are interchangeable inside a context sequence. Token
sequences are stored as float64 arrays of shape ``(n, 3)`` with columns
``(value, mask_flag, segment_flag)``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError
from .series import ChannelSeries

VALUE, MASK_FLAG, SEGMENT_FLAG = 0, 1, 2


class TaskKind(enum.Enum):
    FORECAST = "forecast"
    IMPUTE = "impute"
    BACKTRACE = "backtrace"

    def __str__(self) -> str:
        return self.value


# Canonical ordering used wherever a task set must be iterated deterministically.
TASK_ORDER = (TaskKind.FORECAST, TaskKind.IMPUTE, TaskKind.BACKTRACE)


def token_array(values: np.ndarray, mask: np.ndarray | None = None, segment: int = 0) -> np.ndarray:
    """Pack values and flags into an ``(n, 3)`` token array.

    Masked positions (mask=1) get value 0 regardless of the input values.
    """
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    out = np.zeros((n, 3), dtype=np.float64)
    out[:, VALUE] = values
    if mask is not None:
        m = np.asarray(mask, dtype=np.float64)
        out[:, MASK_FLAG] = m
        out[m == 1.0, VALUE] = 0.0
    out[:, SEGMENT_FLAG] = segment
    return out


@dataclass(frozen=True)
class WindowSpec:
    """Lookback/horizon pair; lookback is pinned to twice the horizon."""

    lookback: int
    horizon: int

    def __post_init__(self) -> None:
        if self.horizon < 1 or self.lookback < 2:
            raise GeometryError(f"degenerate window {self.lookback}/{self.horizon}")
        if self.lookback != 2 * self.horizon:
            raise GeometryError(
                f"lookback must equal 2*horizon, got {self.lookback}/{self.horizon}"
            )


@dataclass(frozen=True)
class Span:
    """Half-open index range [start, end) on a channel's absolute timeline."""

    dataset: str
    channel: str
    start: int
    end: int

    def overlaps(self, other: "Span") -> bool:
        if self.dataset != other.dataset or self.channel != other.channel:
            return False
        return self.start < other.end and other.start < self.end


@dataclass(frozen=True)
class TaskExample:
    """An (input tokens, target values) pair produced by one task.

    ``source_span`` covers every value the example reads or predicts, in
    absolute (origin_offset-based) coordinates.
    """

    task: TaskKind
    input: np.ndarray  # (L, 3)
    target: np.ndarray  # (h,)
    source_span: Span

    def __post_init__(self) -> None:
        object.__setattr__(self, "input", np.asarray(self.input, dtype=np.float64))
        object.__setattr__(self, "target", np.asarray(self.target, dtype=np.float64))

    @property
    def lookback(self) -> int:
        return self.input.shape[0]

    @property
    def horizon(self) -> int:
        return self.target.shape[0]

    @property
    def masked_positions(self) -> np.ndarray:
        return np.flatnonzero(self.input[:, MASK_FLAG] == 1.0)


def _check_window(s: ChannelSeries, lo: int, hi: int) -> None:
    if lo < 0 or hi > len(s):
        raise GeometryError(
            f"window [{lo}, {hi}) out of range for series of length {len(s)}"
        )


def _span(s: ChannelSeries, lo: int, hi: int) -> Span:
    return Span(s.dataset, s.channel, s.origin_offset + lo, s.origin_offset + hi)


def gen_forecast(s: ChannelSeries, t: int, w: WindowSpec) -> TaskExample:
    """Observe s[t : t+L), predict the following h values."""
    L, h = w.lookback, w.horizon
    _check_window(s, t, t + L + h)
    return TaskExample(
        task=TaskKind.FORECAST,
        input=token_array(s.values[t : t + L]),
        target=s.values[t + L : t + L + h].copy(),
        source_span=_span(s, t, t + L + h),
    )


def gen_backtrace(s: ChannelSeries, t: int, w: WindowSpec) -> TaskExample:
    """Observe s[t : t+L), predict the h values immediately before it.

    The target is emitted in chronological (ascending-time) order.
    """
    L, h = w.lookback, w.horizon
    if t < h:
        raise GeometryError(f"insufficient history: start {t} < horizon {h}")
    _check_window(s, t, t + L)
    return TaskExample(
        task=TaskKind.BACKTRACE,
        input=token_array(s.values[t : t + L]),
        target=s.values[t - h : t].copy(),
        source_span=_span(s, t - h, t + L),
    )


def sample_mask_positions(rng: np.random.Generator, n: int, k: int) -> list[int]:
    """Draw k distinct positions from range(n) uniformly, ascending.

    Selection sampling: the first k entries of a Fisher-Yates shuffle driven
    by ``rng.integers``. This exact scheme is part of the determinism
    contract, so an independent re-implementation can reproduce the draw.
    """
    idx = list(range(n))
    for i in range(k):
        j = int(rng.integers(i, n))
        idx[i], idx[j] = idx[j], idx[i]
    return sorted(idx[:k])


def gen_impute(s: ChannelSeries, t: int, w: WindowSpec, rng: np.random.Generator) -> TaskExample:
    """Mask h of the L window positions; predict the masked values.

    Masked inputs carry value 0 and mask_flag 1; the target lists the true
    values at the masked positions in ascending position order.
    """
    L, h = w.lookback, w.horizon
    if h >= L:
        raise GeometryError(f"mask count {h} must be smaller than window {L}")
    _check_window(s, t, t + L)
    return impute_at(s, t, w, sample_mask_positions(rng, L, h))


def impute_at(s: ChannelSeries, t: int, w: WindowSpec, positions: list[int]) -> TaskExample:
    """The impute example of the window at t that masks ``positions`` (window-relative)."""
    mask = np.zeros(w.lookback)
    mask[positions] = 1.0
    window = s.values[t : t + w.lookback]
    return TaskExample(
        task=TaskKind.IMPUTE,
        input=token_array(window, mask=mask),
        target=window[positions].copy(),
        source_span=_span(s, t, t + w.lookback),
    )


def generate_example(
    task: TaskKind, s: ChannelSeries, t: int, w: WindowSpec, rng: np.random.Generator
) -> TaskExample:
    """Dispatch to the task's constructor (rng only consumed by impute)."""
    if task is TaskKind.FORECAST:
        return gen_forecast(s, t, w)
    if task is TaskKind.BACKTRACE:
        return gen_backtrace(s, t, w)
    return gen_impute(s, t, w, rng)


def valid_start_range(task: TaskKind, length: int, w: WindowSpec) -> tuple[int, int]:
    """Inclusive [lo, hi] range of valid window starts for a task, or (0, -1)."""
    L, h = w.lookback, w.horizon
    if task is TaskKind.FORECAST:
        return 0, length - L - h
    if task is TaskKind.BACKTRACE:
        return h, length - L
    return 0, length - L
