"""Context-sequence assembly: rewrite raw series into context-following samples.

For each query window the builder draws a task, generates the query example,
samples demonstration examples of the same task whose source spans are
disjoint from the query's, and concatenates them (demo input, demo answer,
..., query input) into one token stream. Demo answers are tagged with
segment_flag=1 so the encoding stays invertible without separator tokens.
"""

from __future__ import annotations

import json
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError, GeometryError
from .series import ChannelSeries, SplitStore
from .tasks import (
    TASK_ORDER,
    Span,
    TaskExample,
    TaskKind,
    WindowSpec,
    generate_example,
    token_array,
    valid_start_range,
)

DEMO_ATTEMPTS = 1000


@dataclass(frozen=True)
class ContextSequence:
    """Ordered demonstrations of one task, ready to prefix a query."""

    task: TaskKind
    demos: tuple[TaskExample, ...]

    def __post_init__(self) -> None:
        for d in self.demos:
            if d.task is not self.task:
                raise DataError(f"demo task {d.task} does not match context task {self.task}")


@dataclass(frozen=True)
class ContextSample:
    """One training/eval record: flattened context + query tokens and the query target."""

    task: TaskKind
    tokens: np.ndarray  # (m*(L+h) + L, 3)
    target: np.ndarray  # (h,)
    query_span: Span
    demo_spans: tuple[Span, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tokens", np.asarray(self.tokens, dtype=np.float64))
        object.__setattr__(self, "target", np.asarray(self.target, dtype=np.float64))


@dataclass
class ContextDataset:
    """Built samples plus an echo of everything needed to rebuild them."""

    samples: list[ContextSample]
    window: WindowSpec
    demo_count: int
    tasks: tuple[TaskKind, ...]
    seed: int
    stride: int
    skipped_windows: int = 0
    extra: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.samples)


def sample_task(rng: np.random.Generator, tasks: set[TaskKind] | list[TaskKind]) -> TaskKind:
    """Uniform draw from the task set (canonical order for determinism)."""
    ordered = [t for t in TASK_ORDER if t in set(tasks)]
    if not ordered:
        raise DataError("task set is empty")
    return ordered[int(rng.integers(0, len(ordered)))]


def answer_tokens(target: np.ndarray) -> np.ndarray:
    """Encode a demo's answer values as segment-1 tokens."""
    return token_array(target, segment=1)


def build_stream(demos: Sequence[TaskExample], query: TaskExample | None = None) -> np.ndarray:
    """Flatten (demo input, demo answer)* followed by the query input.

    Without a query this is the demo prefix alone, which evaluation flattens
    once and appends every query to. No task-match check: ``assemble`` adds
    one for ``build_context_dataset``, while evaluation also flattens
    deliberate wrong-task contexts.
    """
    parts = [part for d in demos for part in (d.input, answer_tokens(d.target))]
    if query is not None:
        parts.append(query.input)
    return np.concatenate(parts, axis=0) if parts else np.zeros((0, 3))


def assemble(context: ContextSequence, query: TaskExample) -> ContextSample:
    """One sample: the flattened context and query, with provenance spans."""
    if context.task is not query.task:
        raise DataError(f"context task {context.task} does not match query task {query.task}")
    L, h = query.lookback, query.horizon
    for demo in context.demos:
        if demo.lookback != L or demo.horizon != h:
            raise GeometryError(
                f"demo geometry {demo.lookback}/{demo.horizon} does not match query {L}/{h}"
            )
    return ContextSample(
        task=query.task,
        tokens=build_stream(context.demos, query),
        target=query.target.copy(),
        query_span=query.source_span,
        demo_spans=tuple(d.source_span for d in context.demos),
    )


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
    pairwise_disjoint: bool = False,
    max_attempts: int = DEMO_ATTEMPTS,
) -> list[TaskExample]:
    """Sample m demonstrations of ``task`` with spans disjoint from the query.

    Rejection-samples uniform window starts; after ``max_attempts`` misses per
    demo it falls back to exhaustive enumeration of the remaining valid
    starts. Demos may overlap each other unless ``pairwise_disjoint``.
    """
    if m == 0:
        return []
    ranges = _candidate_starts(pool, task, w)
    if not ranges:
        raise DataError(f"no series in the pool admits a {task} window")

    taken: list[Span] = []

    def admissible(span: Span) -> bool:
        if span.overlaps(query_span):
            return False
        if pairwise_disjoint and any(span.overlaps(t) for t in taken):
            return False
        return True

    demos: list[TaskExample] = []
    for k in range(m):
        example = None
        for _ in range(max_attempts):
            ridx = int(rng.integers(0, len(ranges)))
            sidx, lo, hi = ranges[ridx]
            t = int(rng.integers(lo, hi + 1))
            candidate = generate_example(task, pool[sidx], t, w, rng)
            if admissible(candidate.source_span):
                example = candidate
                break
        if example is None:
            # Exhaustive fallback: enumerate every admissible start.
            valid: list[tuple[int, int]] = []
            for sidx, lo, hi in ranges:
                for t in range(lo, hi + 1):
                    probe = generate_example(task, pool[sidx], t, w, np.random.default_rng(0))
                    if admissible(probe.source_span):
                        valid.append((sidx, t))
            if not valid:
                raise DataError(
                    f"insufficient disjoint demo windows: needed {m}, found {k} "
                    f"(0 candidates remain for demo {k + 1})"
                )
            sidx, t = valid[int(rng.integers(0, len(valid)))]
            example = generate_example(task, pool[sidx], t, w, rng)
        taken.append(example.source_span)
        demos.append(example)
    return demos


def count_disjoint_starts(
    pool: list[ChannelSeries], query_span: Span, task: TaskKind, w: WindowSpec
) -> int:
    """Number of admissible demo starts (brute force; used in error paths/tests)."""
    n = 0
    rng = np.random.default_rng(0)
    for s in pool:
        lo, hi = valid_start_range(task, len(s), w)
        for t in range(lo, hi + 1):
            if not generate_example(task, s, t, w, rng).source_span.overlaps(query_span):
                n += 1
    return n


def build_context_dataset(
    series: list[ChannelSeries],
    tasks: set[TaskKind] | list[TaskKind],
    w: WindowSpec,
    demo_count: int,
    stride: int | None = None,
    seed: int = 0,
    demo_pool: list[ChannelSeries] | None = None,
    pairwise_disjoint_demos: bool = False,
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
        raise DataError(f"stride must be >= 1, got {stride}")
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
                demos = sample_demos(
                    demo_source,
                    query.source_span,
                    task,
                    demo_count,
                    w,
                    rng,
                    pairwise_disjoint=pairwise_disjoint_demos,
                )
            except DataError:
                skipped += 1
                continue
            samples.append(assemble(ContextSequence(task, tuple(demos)), query))
    if not samples:
        raise DataError(f"empty dataset: all {skipped} windows skipped")
    return ContextDataset(
        samples=samples,
        window=w,
        demo_count=demo_count,
        tasks=tuple(task_list),
        seed=seed,
        stride=stride,
        skipped_windows=skipped,
    )


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
    ``build_context_dataset``.
    """
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


def _sample_record(sample: ContextSample) -> dict:
    tokens = [[float(v), int(m), int(s)] for v, m, s in sample.tokens]
    return {
        "task": str(sample.task),
        "tokens": tokens,
        "target": [float(x) for x in sample.target],
        "provenance": {
            "query": sample.query_span.as_list(),
            "demos": [sp.as_list() for sp in sample.demo_spans],
        },
    }


def write_jsonl(dataset: ContextDataset, path: str | Path) -> None:
    """One header line (config echo) followed by one record per sample."""
    header = {
        "lookback": dataset.window.lookback,
        "horizon": dataset.window.horizon,
        "demo_count": dataset.demo_count,
        "tasks": [str(t) for t in dataset.tasks],
        "seed": dataset.seed,
        "stride": dataset.stride,
        "skipped_windows": dataset.skipped_windows,
        "samples": len(dataset.samples),
        **dataset.extra,
    }
    with Path(path).open("w") as fh:
        fh.write(json.dumps(header, separators=(",", ":")) + "\n")
        for sample in dataset.samples:
            fh.write(json.dumps(_sample_record(sample), separators=(",", ":")) + "\n")


def read_jsonl(path: str | Path) -> ContextDataset:
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such dataset file: {path}")
    known = {"lookback", "horizon", "demo_count", "tasks", "seed", "stride", "skipped_windows", "samples"}
    lineno = 1
    # JSONDecodeError is a ValueError; a bad key, type or shape is a malformed file too
    try:
        with path.open() as fh:
            header = json.loads(fh.readline())
            dataset = ContextDataset(
                samples=[],
                window=WindowSpec(header["lookback"], header["horizon"]),
                demo_count=header["demo_count"],
                tasks=tuple(TaskKind(t) for t in header["tasks"]),
                seed=header["seed"],
                stride=header["stride"],
                skipped_windows=header.get("skipped_windows", 0),
                extra={k: v for k, v in header.items() if k not in known},
            )
            horizon = dataset.window.horizon
            for lineno, line in enumerate(fh, start=2):
                raw = json.loads(line)
                sample = ContextSample(
                    task=TaskKind(raw["task"]),
                    tokens=np.array(raw["tokens"], dtype=np.float64),
                    target=np.array(raw["target"], dtype=np.float64),
                    query_span=Span.from_list(raw["provenance"]["query"]),
                    demo_spans=tuple(Span.from_list(x) for x in raw["provenance"]["demos"]),
                )
                if sample.tokens.ndim != 2 or sample.tokens.shape[1] != 3:
                    raise DataError(f"tokens of shape {sample.tokens.shape}, expected (n, 3)")
                if sample.target.shape != (horizon,):
                    raise DataError(f"target of shape {sample.target.shape}, expected ({horizon},)")
                dataset.samples.append(sample)
        if len(dataset.samples) != header["samples"]:
            raise DataError(f"{len(dataset.samples)} samples, the header promises {header['samples']}")
    except (KeyError, TypeError, AttributeError, IndexError, ValueError) as exc:
        raise DataError(f"malformed dataset {path}, line {lineno}: {exc!r}") from None
    return dataset
