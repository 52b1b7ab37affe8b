"""Window-level task examples: forecast, impute, backtrace, from one table.

Every task shows an L-value window (lookback ``L = 2h``) and asks for h values,
so examples are interchangeable inside a context sequence. ``GEOMETRY`` is the
only per-task code: where the h target values lie relative to the window.
``target_offsets``, ``valid_start_range``, ``span_width`` and ``source_span``
derive everything else from it. An example is integers: the row of its window
start in the flat ``series.SeriesTable`` and its masked positions.
``example_rows`` makes them from window starts on one series, refusing a start
the task table does not admit, and ``gather`` is the one reader of example
values: from rows and target offsets it reads the inputs and targets of any
number of examples at once. Token sequences are float64 arrays of shape
``(n, 3)`` with columns ``(value, mask_flag, segment_flag)``: ``gather`` makes
an example's input tokens and ``answer_region`` the h answer tokens after it.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError
from .series import ChannelSeries, SeriesTable

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


def answer_region(horizon: int, values: np.ndarray | None = None) -> np.ndarray:
    """Answer-region tokens (segment_flag 1): h placeholders (0,1,1), or shown values (v,0,1), (..., h, 3) for values (..., h)."""
    region = np.zeros((horizon, 3) if values is None else (*np.shape(values), 3))
    region[..., SEGMENT_FLAG] = 1.0
    if values is None:
        region[..., MASK_FLAG] = 1.0
    else:
        region[..., VALUE] = values
    return region


@dataclass(frozen=True)
class WindowSpec:
    """A horizon h; its lookback is always L = 2h."""

    horizon: int

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise GeometryError(f"horizon must be >= 1, got {self.horizon}")

    @property
    def lookback(self) -> int:
        return 2 * self.horizon


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


def sample_mask_positions(rng: np.random.Generator, n: int, k: int) -> list[int]:
    """Draw k distinct positions from range(n) uniformly, ascending.

    Selection sampling: the first k entries of a Fisher-Yates shuffle driven
    by ``rng.integers``, whose swap i takes the position j drawn from [i, n).
    The k draws are one ``rng.integers(np.arange(k), n)`` call, which gives
    the same integers, and leaves ``rng`` in the same state, as the k scalar
    calls ``rng.integers(i, n)`` in order. This exact scheme is part of the
    determinism contract, so an independent re-implementation can reproduce
    the draw.
    """
    idx = list(range(n))
    for i, j in enumerate(rng.integers(np.arange(k), n).tolist()):
        idx[i], idx[j] = idx[j], idx[i]
    return sorted(idx[:k])


def draw_mask(task: TaskKind, w: WindowSpec, rng: np.random.Generator) -> list[int]:
    """A new example's window-relative masked positions: h drawn with ``rng`` on an impute task, else none."""
    return sample_mask_positions(rng, w.lookback, w.horizon) if GEOMETRY[task].impute else []


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


def target_offsets(task: TaskKind, w: WindowSpec, masks) -> np.ndarray:
    """Where the h targets of ``task`` examples lie, relative to their window starts, (..., h).

    The ``before`` values, the masked positions, then the ``after`` values, in
    ascending time; ``masks`` (..., k) holds k masked positions per example.
    """
    before, after = reach(task, w)
    masks = np.asarray(masks)
    offsets = np.empty((*masks.shape[:-1], w.horizon), dtype=np.int64)
    offsets[..., :before] = np.arange(-before, 0)
    offsets[..., before : w.horizon - after] = masks
    offsets[..., w.horizon - after :] = np.arange(after) + w.lookback
    return offsets


def gather(values: np.ndarray, starts, offsets: np.ndarray, w: WindowSpec) -> tuple[np.ndarray, np.ndarray]:
    """Inputs (..., L, 3) and targets (..., h) of the examples whose windows start at ``starts`` (...).

    ``starts`` index ``values``, and each example's targets lie at its
    ``offsets`` (..., h) from its start (``target_offsets``): one fancy index
    reads every window and one every target. Offsets inside the window are its
    masked positions, whose tokens read (0, 1, 0).
    """
    L = w.lookback
    starts = np.asarray(starts)[..., None]
    inputs = np.zeros((*starts.shape[:-1], L, 3))
    inputs[..., VALUE] = values[starts + np.arange(L)]
    inside = (offsets >= 0) & (offsets < L)
    if inside.any():
        masked = (*np.nonzero(inside)[:-1], offsets[inside])  # each example's index, then the position
        inputs[(*masked, VALUE)] = 0.0
        inputs[(*masked, MASK_FLAG)] = 1.0
    return inputs, values[starts + offsets]


def example_rows(
    table: SeriesTable, task: TaskKind, s: ChannelSeries, starts: Sequence[int], w: WindowSpec,
    rng: np.random.Generator | None,
) -> tuple[np.ndarray, np.ndarray]:
    """The ``table`` rows of the ``task`` windows of ``s`` that start at ``starts``, and their masks (len(starts), k).

    An impute task draws each window's h masked positions with ``rng``, in
    ``starts`` order; other tasks ignore ``rng``. On the flat table a window
    past either end of ``s`` would read its neighbour, so a start outside
    ``valid_start_range`` raises ``GeometryError`` before any row is made.
    """
    lo, hi = valid_start_range(task, len(s), w)
    for t in starts:
        if t < lo:
            raise GeometryError(f"insufficient history: {task} start {t} < {lo}")
        if t > hi:
            raise GeometryError(f"{task} window at {t} out of range for series of length {len(s)}")
    k = w.horizon if GEOMETRY[task].impute else 0
    masks = np.array([draw_mask(task, w, rng) for _ in starts], dtype=np.int64).reshape(len(starts), k)
    return table.row(s, 0) + np.asarray(starts, dtype=np.int64), masks
