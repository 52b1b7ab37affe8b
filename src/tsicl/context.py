"""Context-sequence assembly: rewrite raw series into context-following samples.

For each query window of a split the builder draws a task, places the
query, and samples demonstration windows of the same task from the train
splits whose source spans are disjoint from the query's. A sample is
integers, in memory as on disk, and a ``ContextDataset`` holds the samples of
one demo count m as arrays: per sample its task's index in ``TASK_ORDER``,
and per demo and last the query the row of its window start in the store's
flat table (``series.SplitStore``) and where its h targets lie from that row
(``tasks.target_offsets``, computed once, where a sample is built or
replayed; an impute example's are its masked positions). Values are read
only when a stream is made, and ``example_streams`` is the one stream
builder: from rows and offsets it gathers each example's input and then its
``tasks.answer_region``, showing its true values or placeholders. Every model
input is laid out with it: ``sample_streams`` gathers a batch of one
dataset's samples, each stream its demos with answers shown and last the
query with placeholders; evaluation gathers a demo prefix and query streams
apart (``evalharness.score_probes``). Answer tokens carry segment_flag=1, so
the encoding stays invertible without separator tokens.

A context file stores one dataset. Its first line, the header, holds
``horizon``, ``samples`` and ``skipped_windows``, then the writer's ``meta``
(``build`` adds its ``config`` and ``store_sha256``); ``read_header`` reads
it alone. Each later line is one sample,
``{"task": ..., "examples": [[dataset, channel, start, end, [masked positions]], ...]}``,
demos then query; spans are on the channel's timeline (a row less its
channel's first row), masked positions window-relative. ``read_jsonl`` turns
them back into rows and offsets of the store's table,
and refuses what ``build`` never writes: samples of different example counts
in one file, an example in the test split, a demo outside the train split,
or a demo that overlaps its query.
"""

from __future__ import annotations

import json
from array import array
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .series import SPLIT_NAMES, SplitStore
from .tasks import (
    GEOMETRY,
    TASK_ORDER,
    TaskKind,
    WindowSpec,
    answer_region,
    draw_mask,
    gather,
    reach,
    span_width,
    target_offsets,
    valid_start_range,
)

DEMO_ATTEMPTS = 1000


@dataclass
class ContextDataset:
    """The samples of one demo count m as integer arrays, their window and the query windows the build skipped.

    Per sample, ``tasks`` (N,) holds its task's index in ``TASK_ORDER``; per
    demo and last the query, ``rows`` (N, m+1) holds the row of its window
    start in ``store``'s flat table and ``offsets`` (N, m+1, h) where its
    targets lie from that row. A context file's header holds the window and
    ``skipped_windows``.
    """

    store: SplitStore
    window: WindowSpec
    tasks: np.ndarray
    rows: np.ndarray
    offsets: np.ndarray
    skipped_windows: int = 0

    def __len__(self) -> int:
        return len(self.tasks)


def sample_task(rng: np.random.Generator, tasks: set[TaskKind] | list[TaskKind]) -> TaskKind:
    """Uniform draw from the task set (canonical order for determinism)."""
    ordered = [t for t in TASK_ORDER if t in set(tasks)]
    if not ordered:
        raise DataError("task set is empty")
    return ordered[int(rng.integers(0, len(ordered)))]


def example_streams(
    values: np.ndarray, w: WindowSpec, rows: np.ndarray, offsets: np.ndarray, shown
) -> tuple[np.ndarray, np.ndarray]:
    """The streams (..., L+h, 3) and targets (..., h) of the examples at rows ``rows`` (...) of the flat table
    ``values`` whose targets lie at ``offsets`` (..., h) from them, in one ``gather``.

    An example's stream is its input and then its answer region, which shows
    its targets where ``shown`` (broadcast to ``rows``' shape) is true and
    placeholders elsewhere. The offsets say everything the task does, so
    evaluation's deliberate wrong-task demos are gathered like any others.
    """
    inputs, targets = gather(values, rows, offsets, w)
    L, h = w.lookback, w.horizon
    streams = np.empty((*rows.shape, L + h, 3))
    streams[..., :L, :] = inputs
    streams[..., L:, :] = answer_region(h, targets)
    streams[~np.broadcast_to(shown, rows.shape), L:, :] = answer_region(h)
    return streams, targets


def sample_streams(dataset: ContextDataset, idxs) -> tuple[np.ndarray, np.ndarray]:
    """The streams (B, (m+1)*(L+h), 3) and targets (B, m+1, h) of the B samples ``idxs`` of ``dataset``.

    A stream is each demo's input and shown answer, then the query's input
    and placeholders: what training and validation run.
    """
    m = dataset.rows.shape[1] - 1
    shown = np.arange(m + 1) < m  # every demo, not the query
    rows, offsets = dataset.rows[idxs], dataset.offsets[idxs]
    streams, targets = example_streams(dataset.store.values, dataset.window, rows, offsets, shown)
    return streams.reshape(len(streams), -1, 3), targets


def sample_demos(
    pool: list[range], query: tuple[int, int], task: TaskKind, m: int, w: WindowSpec, rng: np.random.Generator
) -> list[tuple[int, list[int]]]:
    """Sample m demonstrations of ``task`` from the splits of rows ``pool`` whose source spans miss the query's
    rows [start, end): (window start row, mask).

    Rejection-samples a split, then a uniform window start in it, each with
    its mask drawn before the overlap test; after ``DEMO_ATTEMPTS`` misses per
    demo it falls back to exhaustive enumeration of the valid starts whose
    spans miss the query's. Spans are rows of the flat table, so spans on
    different channels never overlap. Demos may overlap each other.
    """
    if m == 0:
        return []
    ranges = []
    for rows in pool:
        lo, hi = valid_start_range(task, len(rows), w)
        if hi >= lo:
            ranges.append((rows.start, lo, hi))
    if not ranges:
        raise DataError(f"no series in the pool admits a {task} window")
    before, width = reach(task, w)[0], span_width(task, w)

    def misses(row: int) -> bool:
        return not (row - before < query[1] and query[0] < row - before + width)

    demos = []
    for _ in range(m):
        demo = None
        for _ in range(DEMO_ATTEMPTS):
            first, lo, hi = ranges[int(rng.integers(0, len(ranges)))]
            row = first + int(rng.integers(lo, hi + 1))
            mask = draw_mask(task, w, rng)
            if misses(row):
                demo = (row, mask)
                break
        if demo is None:
            # Exhaustive fallback: enumerate every start whose span misses the query's.
            valid = [row for first, lo, hi in ranges for row in range(first + lo, first + hi + 1) if misses(row)]
            if not valid:
                raise DataError(
                    f"insufficient disjoint demo windows: needed {m}, but no {task} window in the pool "
                    "misses the query's span"
                )
            demo = (valid[int(rng.integers(0, len(valid)))], draw_mask(task, w, rng))
        demos.append(demo)
    return demos


def build_context_dataset(
    store: SplitStore,
    split: str,
    tasks: set[TaskKind] | list[TaskKind],
    w: WindowSpec,
    demo_count: int,
    stride: int | None = None,
    seed: int = 0,
    cross_channel_demos: bool = False,
) -> ContextDataset:
    """Enumerate query windows over every channel's ``split`` of ``store`` and emit context samples.

    One task is drawn per window; windows whose drawn task cannot fit (e.g. a
    backtrace start without history) are skipped and counted. Each window uses
    an independent sub-seed derived from (seed, window index), so the build is
    deterministic and order-independent. Demos come from train splits only:
    the query's own channel's, or every channel's with ``cross_channel_demos``.
    """
    task_list = [t for t in TASK_ORDER if t in set(tasks)]
    if not task_list:
        raise DataError("task set is empty")
    stride = w.horizon if stride is None else stride
    if stride < 1:
        raise ConfigError(f"stride must be >= 1, got {stride}")
    train = [store.rows(c, "train") for c in range(len(store.channels))]

    L, h = w.lookback, w.horizon
    task_ids, rows, offsets = [], [], []
    skipped = 0
    window_index = 0
    for c, channel in enumerate(store.channels):
        queries = store.rows(c, split)
        if len(queries) < L + h:
            raise DataError(
                f"the {split} split of {store.dataset}/{channel}, of length {len(queries)}, cannot fit one "
                f"{L}+{h} window"
            )
        for t in range(0, len(queries) - L + 1, stride):
            rng = np.random.default_rng(np.random.SeedSequence((seed, window_index)))
            window_index += 1
            task = sample_task(rng, task_list)
            lo, hi = valid_start_range(task, len(queries), w)
            if not lo <= t <= hi:
                skipped += 1
                continue
            row, mask = queries.start + t, draw_mask(task, w, rng)
            start = row - reach(task, w)[0]  # where the query's source span starts
            try:
                demos = sample_demos(train if cross_channel_demos else [train[c]], (start, start + span_width(task, w)),
                                     task, demo_count, w, rng)
            except DataError:
                skipped += 1
                continue
            picks = [*demos, (row, mask)]
            task_ids.append(TASK_ORDER.index(task))
            rows.append([r for r, _ in picks])
            offsets.append(target_offsets(task, w, [mask for _, mask in picks]))
    if not rows:
        raise DataError(f"empty dataset: all {skipped} windows skipped")
    return ContextDataset(store, w, np.array(task_ids), np.array(rows, np.int32), np.array(offsets, np.int32), skipped)


def build_train_valid(
    store: SplitStore,
    tasks: set[TaskKind] | list[TaskKind],
    w: WindowSpec,
    demo_counts: Sequence[int],
    seed: int,
    stride: int | None = None,
    **options,
) -> Iterator[tuple[int, ContextDataset, ContextDataset]]:
    """Yield (m, train, valid) per demo count m, the k-th seeded ``seed*1000 + 2k`` and ``+ 1``.

    Train queries come from the train splits and valid queries from the valid
    splits, at the same ``stride``; both draw their demos from the train
    splits. ``options`` go to ``build_context_dataset``. Every count is
    checked before the first build; a repeated count is refused, since both
    builds would claim one ``m``.
    """
    if not demo_counts or min(demo_counts) < 0:
        raise ConfigError(f"demo_counts must be one or more counts >= 0, got {list(demo_counts)}")
    if len(set(demo_counts)) < len(demo_counts):
        raise ConfigError(f"demo_counts must not repeat a count, got {list(demo_counts)}")
    for k, m in enumerate(demo_counts):
        train, valid = (build_context_dataset(store, split, tasks, w, m, stride, seed * 1000 + 2 * k + j, **options)
                        for j, split in enumerate(("train", "valid")))
        yield m, train, valid


def write_jsonl(dataset: ContextDataset, path: str | Path, meta: dict | None = None) -> None:
    """The header line (window, sample count, skipped windows, then ``meta``), then per sample its task and
    examples: each one's source span, found from its row as ``_replay_rows`` finds the row back, and its
    masked positions, the offsets of an impute example."""
    w, store = dataset.window, dataset.store
    header = {"horizon": w.horizon, "samples": len(dataset), "skipped_windows": dataset.skipped_windows, **(meta or {})}
    held = store.locate(dataset.rows)
    before = np.array([reach(t, w)[0] for t in TASK_ORDER])[dataset.tasks]
    starts = dataset.rows - store.bounds[held, 0] - before[:, None]
    with Path(path).open("w") as fh:
        fh.write(json.dumps(header, separators=(",", ":")) + "\n")
        for t, located, first, offsets in zip(*(x.tolist() for x in (dataset.tasks, held, starts, dataset.offsets))):
            task = TASK_ORDER[t]
            width, impute = span_width(task, w), GEOMETRY[task].impute
            examples = [[store.dataset, store.channels[i], a, a + width, o if impute else []]
                        for i, a, o in zip(located, first, offsets)]
            fh.write(json.dumps({"task": str(task), "examples": examples}, separators=(",", ":")) + "\n")


def read_header(path: str | Path) -> dict:
    """A context file's first line alone, which must be a JSON object; else ``DataError`` names the file."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such dataset file: {path}")
    try:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
        with path.open() as fh:
            header = json.loads(fh.readline())
        if not isinstance(header, dict):
            raise ValueError(f"header {header!r} is not an object")
    except ValueError as exc:
        raise DataError(f"malformed dataset {path}, line 1: {exc!r}") from None
    return header


class _Refused(ValueError):
    """A replay check failed on the stored example at ``index`` in the file."""

    def __init__(self, index: int, why: str):
        super().__init__(why)
        self.index = index


def _replay_rows(
    store: SplitStore, w: WindowSpec, task_ids: np.ndarray, query: np.ndarray, fields: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The row of each stored example's window start in ``store``'s flat table and its (h,) target offsets,
    checked as arrays.

    Per example, in file order: its task's index in ``TASK_ORDER``, whether it
    ends its record (the query), and its ``fields`` row: its channel's index
    in ``store.channels``, its span's start and end on that channel's
    timeline, and h masked positions (zeros where its task masks none). A
    span must lie in one split of its channel and be as wide as its task
    reads; an impute mask must be h ascending window positions; no example
    may lie in the test split, and a demo must lie in the train split and
    miss its query's span.
    The first example that fails raises ``_Refused``.
    """
    channel, start, end, masks = fields[:, 0], fields[:, 1], fields[:, 2], fields[:, 3:]
    first = store.bounds[channel, 0]
    bounds = store.bounds[channel] - first[:, None]  # where each example's channel's splits start and end, in time
    held = (bounds[:, :3] <= start[:, None]).sum(axis=1) - 1  # the split a span starts in, -1 before the first
    inside = (held >= 0) & (end <= bounds[np.arange(len(held)), held + 1])
    impute = np.array([GEOMETRY[t].impute for t in TASK_ORDER])[task_ids]
    bad_mask = (masks[:, 0] < 0) | (masks[:, -1] >= w.lookback) | (np.diff(masks, axis=1) <= 0).any(axis=1)
    own_query = np.flatnonzero(query)[np.cumsum(query) - query]  # records end at their queries
    overlap = (channel == channel[own_query]) & (start < end[own_query]) & (start[own_query] < end)
    checks = [  # in order: an example that fails several is refused by the first
        (~inside, "lies in no split of its channel"),
        (end - start != np.array([span_width(t, w) for t in TASK_ORDER])[task_ids], "is not as wide as its task reads"),
        (impute & bad_mask, f"does not mask {w.horizon} ascending positions of its window"),
        (held == SPLIT_NAMES.index("test"), "lies in the test split"),
        (~query & (held != SPLIT_NAMES.index("train")), "is a demo outside the train split"),
        (~query & overlap, "is a demo that overlaps its query"),
    ]
    failed = np.any([bad for bad, _ in checks], axis=0)
    if failed.any():
        first = int(np.argmax(failed))
        raise _Refused(first, next(why for bad, why in checks if bad[first]))
    before = np.array([reach(t, w)[0] for t in TASK_ORDER])[task_ids]
    offsets = np.empty(masks.shape, dtype=np.int32)
    for t, task in enumerate(TASK_ORDER):
        picked = task_ids == t
        offsets[picked] = target_offsets(task, w, masks[picked, : w.horizon if GEOMETRY[task].impute else 0])
    return (first + start + before).astype(np.int32), offsets


def read_jsonl(path: str | Path, store: SplitStore) -> ContextDataset:
    """Read a context file into a dataset of rows of ``store``'s flat table, as ``build`` made it.

    Each line is parsed into integers as it is read, and must hold as many
    examples as the first; then the whole file's examples are checked and
    turned into rows and offsets at once (``_replay_rows``): the first row of
    an example's channel, plus its span's start on that channel's timeline
    and the values its task reads before its window. A malformed or refused example raises ``DataError`` naming
    its line.
    """
    header = read_header(path)
    channel_of = {(store.dataset, name): i for i, name in enumerate(store.channels)}
    lineno = 1
    # JSONDecodeError is a ValueError; a bad key, type or span is a malformed file too
    try:
        w = WindowSpec(header["horizon"])
        h = w.horizon
        skipped = header["skipped_windows"]
        if type(skipped) is not int or skipped < 0:
            raise ValueError(f"skipped_windows must be an integer >= 0, got {skipped!r}")
        tasks: list[int] = []
        n = 0  # examples per sample, the first sample's
        fields = array("q")  # per example: channel index, span start and end, h masked positions or zeros
        with Path(path).open() as fh:
            fh.readline()
            for lineno, line in enumerate(fh, start=2):
                record = json.loads(line)
                task = TaskKind(record["task"])
                k = h if GEOMETRY[task].impute else 0
                pad = [0] * (h - k)
                if not record["examples"]:
                    raise ValueError("a sample needs a query")
                n = n or len(record["examples"])
                if len(record["examples"]) != n:
                    raise ValueError(f"example count {len(record['examples'])}, the file's first sample's {n}")
                for example in record["examples"]:
                    dataset, name, first, last, mask = example
                    channel = channel_of.get((dataset, name))
                    if channel is None:
                        raise ValueError(f"example {example} names no channel of the store")
                    if len(mask) != k:
                        raise ValueError(f"example {example} masks {len(mask)} positions, a {task} example {k}")
                    fields.extend([channel, first, last, *mask, *pad])
                tasks.append(TASK_ORDER.index(task))
        sample_tasks = np.array(tasks, dtype=np.int64)
        task_ids, query = np.repeat(sample_tasks, n), np.tile(np.arange(n) == n - 1, len(tasks))
        table_fields = np.frombuffer(fields, dtype=np.int64).reshape(-1, 3 + h)
        try:
            rows, offsets = _replay_rows(store, w, task_ids, query, table_fields)
        except _Refused as exc:
            lineno = 2 + exc.index // n
            channel, first, last, *mask = table_fields[exc.index].tolist()
            k = h if GEOMETRY[TASK_ORDER[task_ids[exc.index]]].impute else 0
            example = [store.dataset, store.channels[channel], first, last, mask[:k]]
            raise ValueError(f"example {example} {exc}") from None
        if len(tasks) != header["samples"]:
            raise DataError(f"{len(tasks)} samples, the header promises {header['samples']}")
    except (KeyError, TypeError, AttributeError, IndexError, ValueError, OverflowError) as exc:
        raise DataError(f"malformed dataset {path}, line {lineno}: {exc!r}") from None
    return ContextDataset(store, w, sample_tasks, rows.reshape(len(tasks), n), offsets.reshape(len(tasks), n, h), skipped)
