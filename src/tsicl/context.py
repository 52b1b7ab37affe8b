"""Context-sequence assembly: rewrite raw series into context-following samples.

For each query window the builder draws a task, generates the query example,
and samples demonstration examples of the same task whose source spans are
disjoint from the query's. ``build_stream`` lays examples out, the one builder
of model inputs: each demo's input, then its ``tasks.answer_region`` showing
its true values, and last the query's input and placeholder region. Answer
tokens carry segment_flag=1, so the encoding stays invertible without
separator tokens.

A context file stores decisions, not values. Its first line, the header, holds
``lookback``, ``horizon``, ``samples`` and ``skipped_windows``, then the
writer's ``meta`` (``build`` adds its ``config`` and ``store_sha256``);
``read_header`` reads it alone. Each later line is one sample,
``{"task": ..., "examples": [[dataset, channel, start, end, [masked positions]], ...]}``,
demos then query; spans are absolute, masked positions window-relative.
``read_jsonl`` replays them.
"""

from __future__ import annotations

import json
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, GeometryError
from .series import ChannelSeries, SplitStore
from .tasks import (
    TASK_ORDER,
    Span,
    TaskExample,
    TaskKind,
    WindowSpec,
    answer_region,
    generate_example,
    reach,
    source_span,
    valid_start_range,
)

DEMO_ATTEMPTS = 1000


@dataclass(frozen=True)
class ContextSample:
    """One record: its demos and query, ``query.target`` the truth; ``tokens`` are built on each access."""

    demos: tuple[TaskExample, ...]
    query: TaskExample

    @property
    def tokens(self) -> np.ndarray:  # the model input, ((m+1)*(L+h), 3); not cached: samples hold no copy
        return build_stream(self.demos, self.query)


@dataclass
class ContextDataset:
    """Built samples, their window and the query windows the build skipped: what a context header holds."""

    samples: list[ContextSample]
    window: WindowSpec
    skipped_windows: int = 0

    def __len__(self) -> int:
        return len(self.samples)


def pool_datasets(datasets: Sequence[ContextDataset]) -> ContextDataset:
    """The samples of datasets built with one window and several demo counts, as one set."""
    samples = [s for d in datasets for s in d.samples]
    return ContextDataset(samples, datasets[0].window, sum(d.skipped_windows for d in datasets))


def sample_task(rng: np.random.Generator, tasks: set[TaskKind] | list[TaskKind]) -> TaskKind:
    """Uniform draw from the task set (canonical order for determinism)."""
    ordered = [t for t in TASK_ORDER if t in set(tasks)]
    if not ordered:
        raise DataError("task set is empty")
    return ordered[int(rng.integers(0, len(ordered)))]


def build_stream(demos: Sequence[TaskExample], query: TaskExample | None = None) -> np.ndarray:
    """Each demo's input and shown answer, then the query's input and placeholder answer region.

    Without a query this is the demo prefix alone, which evaluation builds
    once and puts in front of every ``build_stream((), query)``; teacher
    forcing passes the query as one more demo. No task-match check:
    ``assemble`` adds one for ``build_context_dataset``, while evaluation also
    builds deliberate wrong-task contexts.
    """
    parts = [part for d in demos for part in (d.input, answer_region(d.horizon, d.target))]
    if query is not None:
        parts += [query.input, answer_region(query.horizon)]
    return np.concatenate(parts, axis=0) if parts else np.zeros((0, 3))


def assemble(demos: Sequence[TaskExample], query: TaskExample) -> ContextSample:
    """One sample of the demos and the query.

    Every demo must share the query's task and geometry.
    """
    L, h = query.lookback, query.horizon
    for demo in demos:
        if demo.task is not query.task:
            raise DataError(f"demo task {demo.task} does not match query task {query.task}")
        if demo.lookback != L or demo.horizon != h:
            raise GeometryError(
                f"demo geometry {demo.lookback}/{demo.horizon} does not match query {L}/{h}"
            )
    return ContextSample(tuple(demos), query)


def _candidate_starts(pool: list[ChannelSeries], task: TaskKind, w: WindowSpec):
    ranges = []
    for i, s in enumerate(pool):
        lo, hi = valid_start_range(task, len(s), w)
        if hi >= lo:
            ranges.append((i, lo, hi))
    return ranges


def sample_demos(
    pool: list[ChannelSeries],
    query_span: Span,
    task: TaskKind,
    m: int,
    w: WindowSpec,
    rng: np.random.Generator,
) -> list[TaskExample]:
    """Sample m demonstrations of ``task`` with spans disjoint from the query.

    Rejection-samples uniform window starts; after ``DEMO_ATTEMPTS`` misses per
    demo it falls back to exhaustive enumeration of the valid starts whose
    spans miss the query's. Demos may overlap each other.
    """
    if m == 0:
        return []
    ranges = _candidate_starts(pool, task, w)
    if not ranges:
        raise DataError(f"no series in the pool admits a {task} window")

    demos: list[TaskExample] = []
    for _ in range(m):
        example = None
        for _ in range(DEMO_ATTEMPTS):
            ridx = int(rng.integers(0, len(ranges)))
            sidx, lo, hi = ranges[ridx]
            t = int(rng.integers(lo, hi + 1))
            candidate = generate_example(task, pool[sidx], t, w, rng)
            if not candidate.source_span.overlaps(query_span):
                example = candidate
                break
        if example is None:
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
            example = generate_example(task, pool[sidx], t, w, rng)
        demos.append(example)
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
) -> ContextDataset:
    """Enumerate query windows over ``series`` and emit context samples.

    One task is drawn per window; windows whose drawn task cannot fit (e.g. a
    backtrace start without history) are skipped and counted. Each window uses
    an independent sub-seed derived from (seed, window index), so the build is
    deterministic and order-independent.

    ``demo_pool`` defaults to the query series themselves and must hold train
    split data only; demos come from the query's own channel unless
    ``cross_channel_demos``.
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
    by_channel: dict[tuple[str, str], list[ChannelSeries]] = {}
    for s in pool:
        by_channel.setdefault((s.dataset, s.channel), []).append(s)

    L, h = w.lookback, w.horizon
    samples: list[ContextSample] = []
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
            try:
                query = generate_example(task, s, t, w, rng)
            except GeometryError:
                skipped += 1
                continue
            demo_source = pool if cross_channel_demos else by_channel.get((s.dataset, s.channel), [])
            try:
                demos = sample_demos(demo_source, query.source_span, task, demo_count, w, rng)
            except DataError:
                skipped += 1
                continue
            samples.append(assemble(demos, query))
    if not samples:
        raise DataError(f"empty dataset: all {skipped} windows skipped")
    return ContextDataset(samples, w, skipped)


def build_train_valid(
    store: SplitStore,
    tasks: set[TaskKind] | list[TaskKind],
    w: WindowSpec,
    demo_counts: Sequence[int],
    seed: int,
    stride: int | None = None,
    valid_stride: int | None = None,
    **options,
) -> Iterator[tuple[int, ContextDataset, ContextDataset]]:
    """Yield (m, train, valid) per demo count m, the k-th seeded ``seed*1000 + 2k`` and ``+ 1``.

    Valid queries come from the valid split and draw their demos from the
    train split; ``valid_stride`` falls back to ``stride``. ``options`` go to
    ``build_context_dataset``. Every count is checked before the first build; a
    repeated count is refused, since both builds would claim one ``m``.
    """
    if not demo_counts or min(demo_counts) < 0:
        raise ConfigError(f"demo_counts must be one or more counts >= 0, got {list(demo_counts)}")
    if len(set(demo_counts)) < len(demo_counts):
        raise ConfigError(f"demo_counts must not repeat a count, got {list(demo_counts)}")
    if valid_stride is not None and valid_stride < 1:
        raise ConfigError(f"valid_stride must be >= 1, got {valid_stride}")
    train_series = [store.series(ch, "train") for ch in store.channels]
    valid_series = [store.series(ch, "valid") for ch in store.channels]
    for k, m in enumerate(demo_counts):
        train = build_context_dataset(
            train_series, tasks, w, m, stride=stride, seed=seed * 1000 + 2 * k, **options
        )
        valid = build_context_dataset(
            valid_series, tasks, w, m, stride=valid_stride or stride,
            seed=seed * 1000 + 2 * k + 1, demo_pool=train_series, **options,
        )
        yield m, train, valid


def _example_record(e: TaskExample) -> list:
    span = e.source_span
    return [span.dataset, span.channel, span.start, span.end, e.masked_positions.tolist()]


def write_jsonl(dataset: ContextDataset, path: str | Path, meta: dict | None = None) -> None:
    """The header line (window, sample count, skipped windows, then ``meta``), then per sample its task and examples."""
    header = {
        "lookback": dataset.window.lookback,
        "horizon": dataset.window.horizon,
        "samples": len(dataset.samples),
        "skipped_windows": dataset.skipped_windows,
        **(meta or {}),
    }
    with Path(path).open("w") as fh:
        fh.write(json.dumps(header, separators=(",", ":")) + "\n")
        for s in dataset.samples:
            record = {"task": str(s.query.task), "examples": [_example_record(e) for e in (*s.demos, s.query)]}
            fh.write(json.dumps(record, separators=(",", ":")) + "\n")


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


def _replay(raw: list, task: TaskKind, w: WindowSpec, store: SplitStore) -> TaskExample:
    """The example one stored record names, regenerated from the split that holds its span."""
    _, channel, start, end, positions = raw
    for s in store.splits[channel].values():
        if s.origin_offset <= start and end <= s.origin_offset + len(s):
            break
    else:
        raise ValueError(f"span {raw[:4]} lies in no split of channel {channel!r}")
    example = generate_example(task, s, start - s.origin_offset + reach(task, w)[0], w, positions)
    if _example_record(example) != raw or example.horizon != w.horizon:
        raise ValueError(f"example {raw} does not replay from the store")
    return example


def read_jsonl(path: str | Path, store: SplitStore) -> ContextDataset:
    """Read a context file, regenerating each example from ``store`` as ``build`` did, then ``assemble``.

    ``_replay`` passes ``tasks.generate_example`` the stored mask in place of an rng, at the
    window start the task table gives: the span start minus its split's ``origin_offset``,
    plus the values the task reads before its window. An example must give back its span
    and mask, else ``DataError`` names the line.
    """
    header = read_header(path)
    lineno = 1
    # JSONDecodeError is a ValueError; a bad key, type or span is a malformed file too
    try:
        dataset = ContextDataset([], WindowSpec(header["lookback"], header["horizon"]), header["skipped_windows"])
        with Path(path).open() as fh:
            fh.readline()
            for lineno, line in enumerate(fh, start=2):
                raw = json.loads(line)
                task = TaskKind(raw["task"])
                *demos, query = [_replay(e, task, dataset.window, store) for e in raw["examples"]]
                dataset.samples.append(assemble(demos, query))
        if len(dataset.samples) != header["samples"]:
            raise DataError(f"{len(dataset.samples)} samples, the header promises {header['samples']}")
    except (KeyError, TypeError, AttributeError, IndexError, ValueError) as exc:
        raise DataError(f"malformed dataset {path}, line {lineno}: {exc!r}") from None
    return dataset
