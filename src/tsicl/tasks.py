"""Window-level task examples: forecast, impute, backtrace, from one table.

Every task shows an L-value window (lookback ``L = 2h``) and asks for h values,
so examples are interchangeable inside a context sequence. ``GEOMETRY`` is the
only per-task code: where the h target values lie relative to the window.
``generate_example``, ``valid_start_range``, ``span_width`` and ``source_span``
derive everything else from it. Token sequences are float64 arrays of shape
``(n, 3)`` with columns ``(value, mask_flag, segment_flag)``: ``token_array``
packs an example's input, ``answer_region`` the h answer tokens after it.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
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


@dataclass(frozen=True)
class TaskGeometry:
    """Where a task reads around its L-value input window, in horizons.

    ``before`` horizons precede the window and ``after`` follow it; ``impute``
    masks h positions inside it. The target is everything read but not shown.
    """

    before: int
    after: int
    impute: bool


# The task table. Generation, replay, demo selection and query enumeration all
# read it; its key order is the canonical task order.
GEOMETRY = {
    TaskKind.FORECAST: TaskGeometry(before=0, after=1, impute=False),
    TaskKind.IMPUTE: TaskGeometry(before=0, after=0, impute=True),
    TaskKind.BACKTRACE: TaskGeometry(before=1, after=0, impute=False),
}
TASK_ORDER = tuple(GEOMETRY)


def token_array(values: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    """Pack values and flags into an ``(n, 3)`` token array of the input segment (segment_flag 0).

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
    return out


def answer_region(horizon: int, values: np.ndarray | None = None) -> np.ndarray:
    """Answer-region tokens (segment_flag 1): placeholders (0,1,1), or shown values (v,0,1)."""
    region = np.zeros((horizon, 3))
    region[:, SEGMENT_FLAG] = 1.0
    if values is None:
        region[:, MASK_FLAG] = 1.0
    else:
        region[:, VALUE] = np.asarray(values, dtype=np.float64)
    return region


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


def reach(task: TaskKind, w: WindowSpec) -> tuple[int, int]:
    """How many values ``task`` reads before and after its window."""
    g = GEOMETRY[task]
    return g.before * w.horizon, g.after * w.horizon


def valid_start_range(task: TaskKind, length: int, w: WindowSpec) -> tuple[int, int]:
    """Inclusive range [before, length - L - after] of window starts; empty when hi < lo."""
    before, after = reach(task, w)
    return before, length - w.lookback - after


def span_width(task: TaskKind, w: WindowSpec) -> int:
    """Length of every source span of ``task``: L + before + after."""
    return w.lookback + sum(reach(task, w))


def source_span(task: TaskKind, s: ChannelSeries, t: int, w: WindowSpec) -> Span:
    """The span the example of the window at t reads, without building it."""
    before, after = reach(task, w)
    return Span(s.dataset, s.channel, s.origin_offset + t - before, s.origin_offset + t + w.lookback + after)


def generate_example(
    task: TaskKind, s: ChannelSeries, t: int, w: WindowSpec, rng: np.random.Generator | Sequence[int] | None
) -> TaskExample:
    """The example of ``task`` whose input window is s[t : t+L), derived from its table record.

    The target is the ``before`` values, the masked values, then the ``after``
    values, in ascending time. An impute task draws its h masked positions with
    ``rng``; replay passes the stored window-relative positions instead. Other
    tasks ignore ``rng``.
    """
    L, h = w.lookback, w.horizon
    before, after = reach(task, w)
    if t < before:
        raise GeometryError(f"insufficient history: start {t} < {before}")
    if t < 0 or t + L + after > len(s):
        raise GeometryError(f"window [{t}, {t + L + after}) out of range for series of length {len(s)}")
    positions: Sequence[int] = []
    mask = None
    if GEOMETRY[task].impute:
        positions = sample_mask_positions(rng, L, h) if isinstance(rng, np.random.Generator) else rng
        mask = np.zeros(L)
        mask[positions] = 1.0
    window = s.values[t : t + L]
    return TaskExample(
        task=task,
        input=token_array(window, mask=mask),
        target=np.concatenate([s.values[t - before : t], window[positions], s.values[t + L : t + L + after]]),
        source_span=source_span(task, s, t, w),
    )
