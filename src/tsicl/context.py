"""Context-sequence assembly: rewrite raw series into context-following samples.

For each query window the builder draws a task, places the query, and
samples demonstration windows of the same task whose source spans are
disjoint from the query's. A sample is integers, in memory as on disk, and a
``ContextDataset`` holds the samples of one demo count m as arrays: per sample
its task's index in ``TASK_ORDER``, and per demo and last the query the row of
its window start in a ``series.SeriesTable`` (one flat copy of the series it
was built from) and where its h targets lie from that row
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
demos then query; spans are absolute, masked positions window-relative.
``read_jsonl`` turns them back into rows and offsets of the store's table,
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
from .series import ChannelSeries, SeriesTable, SplitStore
from .tasks import (
    GEOMETRY,
    TASK_ORDER,
    Span,
    TaskKind,
    WindowSpec,
    answer_region,
    draw_mask,
    gather,
    reach,
    source_span,
    span_width,
    target_offsets,
    valid_start_range,
)

DEMO_ATTEMPTS = 1000


@dataclass
class ContextDataset:
    """The samples of one demo count m as integer arrays, their window and the query windows the build skipped.

    Per sample, ``tasks`` (N,) holds its task's index in ``TASK_ORDER``; per
    demo and last the query, ``rows`` (N, m+1) holds the ``table`` row of its
    window start and ``offsets`` (N, m+1, h) where its targets lie from that
    row. A context file's header holds the window and ``skipped_windows``.
    """

    table: SeriesTable
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
    table: SeriesTable, w: WindowSpec, rows: np.ndarray, offsets: np.ndarray, shown
) -> tuple[np.ndarray, np.ndarray]:
    """The streams (..., L+h, 3) and targets (..., h) of the examples at ``table`` rows ``rows`` (...) whose
    targets lie at ``offsets`` (..., h) from them, in one ``gather``.

    An example's stream is its input and then its answer region, which shows
    its targets where ``shown`` (broadcast to ``rows``' shape) is true and
    placeholders elsewhere. The offsets say everything the task does, so
    evaluation's deliberate wrong-task demos are gathered like any others.
    """
    inputs, targets = gather(table.values, rows, offsets, w)
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
    streams, targets = example_streams(dataset.table, dataset.window, dataset.rows[idxs], dataset.offsets[idxs], shown)
    return streams.reshape(len(streams), -1, 3), targets


def sample_demos(
    pool: list[ChannelSeries],
    query_span: Span,
    task: TaskKind,
    m: int,
    w: WindowSpec,
    rng: np.random.Generator,
) -> list[tuple[ChannelSeries, int, list[int]]]:
    """Sample m demonstrations of ``task`` with spans disjoint from the query's: (series, window start, mask).

    Rejection-samples uniform window starts, each with its mask drawn before
    the overlap test; after ``DEMO_ATTEMPTS`` misses per demo it falls back to
    exhaustive enumeration of the valid starts whose spans miss the query's.
    Demos may overlap each other.
    """
    if m == 0:
        return []
    ranges = []
    for i, s in enumerate(pool):
        lo, hi = valid_start_range(task, len(s), w)
        if hi >= lo:
            ranges.append((i, lo, hi))
    if not ranges:
        raise DataError(f"no series in the pool admits a {task} window")

    demos = []
    for _ in range(m):
        demo = None
        for _ in range(DEMO_ATTEMPTS):
            sidx, lo, hi = ranges[int(rng.integers(0, len(ranges)))]
            t = int(rng.integers(lo, hi + 1))
            mask = draw_mask(task, w, rng)
            if not source_span(task, pool[sidx], t, w).overlaps(query_span):
                demo = (pool[sidx], t, mask)
                break
        if demo is None:
            # Exhaustive fallback: enumerate every start whose span misses the query's.
            valid = [
                (sidx, t)
                for sidx, lo, hi in ranges
                for t in range(lo, hi + 1)
                if not source_span(task, pool[sidx], t, w).overlaps(query_span)
            ]
            if not valid:
                raise DataError(
                    f"insufficient disjoint demo windows: needed {m}, but no {task} window in the pool "
                    "misses the query's span"
                )
            sidx, t = valid[int(rng.integers(0, len(valid)))]
            demo = (pool[sidx], t, draw_mask(task, w, rng))
        demos.append(demo)
    return demos


def build_context_dataset(
    series: list[ChannelSeries],
    tasks: set[TaskKind] | list[TaskKind],
    w: WindowSpec,
    demo_count: int,
    stride: int | None = None,
    seed: int = 0,
    demo_pool: list[ChannelSeries] | None = None,
    cross_channel_demos: bool = False,
    table: SeriesTable | None = None,
) -> ContextDataset:
    """Enumerate query windows over ``series`` and emit context samples.

    One task is drawn per window; windows whose drawn task cannot fit (e.g. a
    backtrace start without history) are skipped and counted. Each window uses
    an independent sub-seed derived from (seed, window index), so the build is
    deterministic and order-independent.

    ``demo_pool`` defaults to the query series themselves and must hold train
    split data only; demos come from the query's own channel unless
    ``cross_channel_demos``. Samples hold rows of ``table``, which must hold
    every query and pool series (by default, a table of just those).
    """
    task_list = [t for t in TASK_ORDER if t in set(tasks)]
    if not task_list:
        raise DataError("task set is empty")
    stride = w.horizon if stride is None else stride
    if stride < 1:
        raise ConfigError(f"stride must be >= 1, got {stride}")
    pool = series if demo_pool is None else demo_pool
    for s in pool:
        if s.split is not None and s.split != "train":
            raise DataError(f"demo pool must be train-split data, got {s.split!r}")
    table = SeriesTable([*series, *pool]) if table is None else table
    by_channel: dict[tuple[str, str], list[ChannelSeries]] = {}
    for s in pool:
        by_channel.setdefault((s.dataset, s.channel), []).append(s)

    L, h = w.lookback, w.horizon
    task_ids, rows, offsets = [], [], []
    skipped = 0
    window_index = 0
    for s in series:
        if len(s) < L + h:
            raise DataError(
                f"series {s.dataset}/{s.channel} of length {len(s)} cannot fit one "
                f"{L}+{h} window"
            )
        for t in range(0, len(s) - L + 1, stride):
            rng = np.random.default_rng(np.random.SeedSequence((seed, window_index)))
            window_index += 1
            task = sample_task(rng, task_list)
            lo, hi = valid_start_range(task, len(s), w)
            if not lo <= t <= hi:
                skipped += 1
                continue
            query = (s, t, draw_mask(task, w, rng))
            demo_source = pool if cross_channel_demos else by_channel.get((s.dataset, s.channel), [])
            try:
                demos = sample_demos(demo_source, source_span(task, s, t, w), task, demo_count, w, rng)
            except DataError:
                skipped += 1
                continue
            picks = [*demos, query]
            task_ids.append(TASK_ORDER.index(task))
            rows.append([table.row(p, start) for p, start, _ in picks])
            offsets.append(target_offsets(task, w, [mask for _, _, mask in picks]))
    if not rows:
        raise DataError(f"empty dataset: all {skipped} windows skipped")
    return ContextDataset(table, w, np.array(task_ids), np.array(rows, np.int32), np.array(offsets, np.int32), skipped)


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

    Valid queries come from the valid split, at the same ``stride``, and draw
    their demos from the train split. Every sample holds rows of
    ``store.table``. ``options`` go to ``build_context_dataset``.
    Every count is checked before the first build; a repeated count is
    refused, since both builds would claim one ``m``.
    """
    if not demo_counts or min(demo_counts) < 0:
        raise ConfigError(f"demo_counts must be one or more counts >= 0, got {list(demo_counts)}")
    if len(set(demo_counts)) < len(demo_counts):
        raise ConfigError(f"demo_counts must not repeat a count, got {list(demo_counts)}")
    train_series = [store.series(ch, "train") for ch in store.channels]
    valid_series = [store.series(ch, "valid") for ch in store.channels]
    for k, m in enumerate(demo_counts):
        train = build_context_dataset(
            train_series, tasks, w, m, stride=stride, seed=seed * 1000 + 2 * k, table=store.table, **options
        )
        valid = build_context_dataset(
            valid_series, tasks, w, m, stride=stride,
            seed=seed * 1000 + 2 * k + 1, demo_pool=train_series, table=store.table, **options,
        )
        yield m, train, valid


def write_jsonl(dataset: ContextDataset, path: str | Path, meta: dict | None = None) -> None:
    """The header line (window, sample count, skipped windows, then ``meta``), then per sample its task and
    examples: each one's source span, found from its row as ``_replay_rows`` finds the row back, and its
    masked positions, the offsets of an impute example."""
    w, table = dataset.window, dataset.table
    header = {"horizon": w.horizon, "samples": len(dataset), "skipped_windows": dataset.skipped_windows, **(meta or {})}
    held = table.locate(dataset.rows)
    origin = np.array([s.origin_offset for s in table.series])
    before = np.array([reach(t, w)[0] for t in TASK_ORDER])[dataset.tasks]
    starts = origin[held] + dataset.rows - table.firsts[held] - before[:, None]
    names = [(s.dataset, s.channel) for s in table.series]
    with Path(path).open("w") as fh:
        fh.write(json.dumps(header, separators=(",", ":")) + "\n")
        for t, located, first, offsets in zip(*(x.tolist() for x in (dataset.tasks, held, starts, dataset.offsets))):
            task = TASK_ORDER[t]
            width, impute = span_width(task, w), GEOMETRY[task].impute
            examples = [[*names[i], a, a + width, o if impute else []] for i, a, o in zip(located, first, offsets)]
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
    table: SeriesTable, w: WindowSpec, names: list, task_ids: np.ndarray, query: np.ndarray, fields: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The table row of each stored example's window start and its (h,) target offsets, checked as arrays.

    Per example, in file order: its task's index in ``TASK_ORDER``, whether it
    ends its record (the query), and its ``fields`` row: its channel's index
    in ``names`` ((dataset, channel) pairs), its span's start and end, and h
    masked positions (zeros where its task masks none). A span must lie in
    one split of its channel and be as wide as its task reads; an impute mask
    must be h ascending window positions; no example may lie in the test
    split, and a demo must lie in the train split and miss its query's span.
    The first example that fails raises ``_Refused``.
    """
    channel, start, end, masks = fields[:, 0], fields[:, 1], fields[:, 2], fields[:, 3:]
    series_channel = np.array([names.index((s.dataset, s.channel)) for s in table.series])
    origin = np.array([s.origin_offset for s in table.series])
    split = np.array([s.split for s in table.series])
    inside = (series_channel == channel[:, None]) & (origin <= start[:, None]) & (end[:, None] <= origin + np.diff(table.firsts))
    held = inside.argmax(axis=1)
    impute = np.array([GEOMETRY[t].impute for t in TASK_ORDER])[task_ids]
    bad_mask = (masks[:, 0] < 0) | (masks[:, -1] >= w.lookback) | (np.diff(masks, axis=1) <= 0).any(axis=1)
    own_query = np.flatnonzero(query)[np.cumsum(query) - query]  # records end at their queries
    overlap = (channel == channel[own_query]) & (start < end[own_query]) & (start[own_query] < end)
    checks = [  # in order: an example that fails several is refused by the first
        (~inside.any(axis=1), "lies in no split of its channel"),
        (end - start != np.array([span_width(t, w) for t in TASK_ORDER])[task_ids], "is not as wide as its task reads"),
        (impute & bad_mask, f"does not mask {w.horizon} ascending positions of its window"),
        (split[held] == "test", "lies in the test split"),
        (~query & (split[held] != "train"), "is a demo outside the train split"),
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
    return (table.firsts[held] + start - origin[held] + before).astype(np.int32), offsets


def read_jsonl(path: str | Path, store: SplitStore) -> ContextDataset:
    """Read a context file into a dataset of rows of ``store.table``, as ``build`` made it.

    Each line is parsed into integers as it is read, and must hold as many
    examples as the first; then the whole file's examples are checked and
    turned into rows and offsets at once (``_replay_rows``): the row of the
    split that holds an example's span, plus the values its task reads before
    its window. A malformed or refused example raises ``DataError`` naming
    its line.
    """
    header = read_header(path)
    table = store.table
    names = list(dict.fromkeys((s.dataset, s.channel) for s in table.series))
    channel_of = {name: i for i, name in enumerate(names)}
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
            rows, offsets = _replay_rows(table, w, names, task_ids, query, table_fields)
        except _Refused as exc:
            lineno = 2 + exc.index // n
            channel, first, last, *mask = table_fields[exc.index].tolist()
            k = h if GEOMETRY[TASK_ORDER[task_ids[exc.index]]].impute else 0
            raise ValueError(f"example {[*names[channel], first, last, mask[:k]]} {exc}") from None
        if len(tasks) != header["samples"]:
            raise DataError(f"{len(tasks)} samples, the header promises {header['samples']}")
    except (KeyError, TypeError, AttributeError, IndexError, ValueError, OverflowError) as exc:
        raise DataError(f"malformed dataset {path}, line {lineno}: {exc!r}") from None
    return ContextDataset(table, w, sample_tasks, rows.reshape(len(tasks), n), offsets.reshape(len(tasks), n, h), skipped)
