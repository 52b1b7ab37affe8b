import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from conftest import TINY_CLI
from tsicl import context
from tsicl.cli import main
from tsicl.context import (
    ContextDataset,
    build_context_dataset,
    build_train_valid,
    read_jsonl,
    sample_demos,
    sample_streams,
    sample_task,
    write_jsonl,
)
from tsicl.errors import DataError
from tsicl.experiment import store_from_channels
from tsicl.series import ChannelSeries, SeriesTable, SplitStore
from tsicl.synthetic import SynthSpec, generate
from tsicl.tasks import (
    MASK_FLAG,
    SEGMENT_FLAG,
    TASK_ORDER,
    VALUE,
    Span,
    TaskKind,
    WindowSpec,
    answer_region,
    draw_mask,
    source_span,
    target_offsets,
    valid_start_range,
)

W42 = WindowSpec(2)


def count_disjoint_starts(pool, query_span: Span, task: TaskKind, w: WindowSpec) -> int:
    """Number of admissible demo starts, by brute force over every series of the pool."""
    count = 0
    for s in pool:
        lo, hi = valid_start_range(task, len(s), w)
        count += sum(not source_span(task, s, t, w).overlaps(query_span) for t in range(lo, hi + 1))
    return count


def series_of(n, channel="c", offset=0, split="train"):
    return ChannelSeries("d", channel, np.arange(n, dtype=float), origin_offset=offset, split=split)


def sample_of(s, task, starts, w, rng=None):
    """A dataset of the one sample of ``s`` whose examples start at ``starts``, demos then the query, masks drawn
    with ``rng``."""
    table = SeriesTable([s])
    masks = np.array([draw_mask(task, w, rng) for _ in starts]).reshape(len(starts), -1)
    rows = np.array([[table.row(s, t) for t in starts]])
    return ContextDataset(table, w, np.array([TASK_ORDER.index(task)]), rows, target_offsets(task, w, masks)[None])


class TestSampleTask:
    def test_singleton(self):
        rng = np.random.default_rng(0)
        assert all(sample_task(rng, {TaskKind.FORECAST}) is TaskKind.FORECAST for _ in range(20))

    def test_empty_set(self):
        with pytest.raises(DataError, match="empty"):
            sample_task(np.random.default_rng(0), set())

    def test_uniform_over_two_tasks(self):
        # binomial(10000, 0.5): sigma = 50, so +-3 sigma = +-150 around 5000
        rng = np.random.default_rng(123)
        k = {TaskKind.FORECAST, TaskKind.IMPUTE}
        n_fore = sum(sample_task(rng, k) is TaskKind.FORECAST for _ in range(10_000))
        assert abs(n_fore - 5000) <= 150


class TestSampleDemos:
    def test_disjointness_forced(self):
        pool = [series_of(40)]
        query_span = Span("d", "c", 0, 6)
        demos = sample_demos(pool, query_span, TaskKind.FORECAST, 1, W42, np.random.default_rng(0))
        assert len(demos) == 1
        series, t, mask = demos[0]
        assert series is pool[0] and mask == []
        assert source_span(TaskKind.FORECAST, series, t, W42).start >= 6
        assert source_span(TaskKind.FORECAST, series, t, W42).end <= 40

    def test_insufficient_reports_available_count(self):
        pool = [series_of(8)]  # starts 0..2: every window overlaps the query's [0, 6)
        query_span = Span("d", "c", 0, 6)
        assert count_disjoint_starts(pool, query_span, TaskKind.FORECAST, W42) == 0
        m = 5
        with pytest.raises(DataError, match="insufficient disjoint demo windows") as err:
            sample_demos(pool, query_span, TaskKind.FORECAST, m, W42, np.random.default_rng(0))
        assert f"needed {m}" in str(err.value)

    def test_zero_demos(self):
        assert sample_demos([series_of(40)], Span("d", "c", 0, 6), TaskKind.FORECAST, 0, W42, np.random.default_rng(0)) == []

    def test_demos_may_overlap_each_other_by_default(self):
        pool = [series_of(14)]  # only a handful of start positions
        query_span = Span("d", "c", 0, 6)
        demos = sample_demos(pool, query_span, TaskKind.FORECAST, 6, W42, np.random.default_rng(1))
        assert len(demos) == 6  # more demos than disjoint slots: overlap happened


class TestAssemble:
    def test_empty_context_identity(self):
        q = reference.example(TaskKind.FORECAST, series_of(10), 0, W42)
        (tokens,), (targets,) = sample_streams(sample_of(series_of(10), TaskKind.FORECAST, [0], W42), [0])
        assert np.array_equal(tokens, np.concatenate([q[0], answer_region(2)]))
        assert np.array_equal(targets[-1], q[1])

    def test_paper_scale_token_count(self):
        w = WindowSpec(96)
        out = sample_of(series_of(288 * 6), TaskKind.FORECAST, [*(288 * (i + 1) for i in range(4)), 0], w)
        assert sample_streams(out, [0])[0].shape == (1, 1440, 3)  # 5 examples of L + h = 288

    def test_hand_built_concatenation(self):
        s = series_of(40)
        (tokens,), _ = sample_streams(sample_of(s, TaskKind.FORECAST, [10, 20, 0], W42), [0])
        expected_values = np.concatenate(
            [s.values[10:14], s.values[14:16], s.values[20:24], s.values[24:26], s.values[0:4], [0, 0]]
        )
        assert np.array_equal(tokens[:, VALUE], expected_values)
        assert np.array_equal(tokens[:, SEGMENT_FLAG], [0, 0, 0, 0, 1, 1] * 3)
        assert np.array_equal(tokens[:, MASK_FLAG], [0] * 16 + [1, 1])

    def test_task_mismatch(self, tmp_path):
        """A sample holds one task, so on disk a demo of another task is a record that does not replay."""
        s = series_of(40)
        store = SplitStore("d", splits={"c": {"train": s}})
        path = tmp_path / "ctx.jsonl"
        write_jsonl(sample_of(s, TaskKind.FORECAST, [10, 0], W42), path)
        header, line = path.read_text().splitlines()
        record = json.loads(line)
        record["examples"][0] = ["d", "c", 10, 14, [1, 3]]  # the impute example at 10
        path.write_text("\n".join([header, json.dumps(record)]) + "\n")
        with pytest.raises(DataError, match="masks 2 positions, a forecast example 0"):
            read_jsonl(path, store)


class TestBuildDataset:
    def test_single_window(self):
        ds = build_context_dataset([series_of(6)], {TaskKind.FORECAST}, W42, 0, stride=1, seed=0)
        assert len(ds) == 1

    def test_deterministic_bytes(self, tmp_path):
        series = [series_of(60)]
        blobs = []
        for run in range(2):
            ds = build_context_dataset(series, {TaskKind.FORECAST, TaskKind.IMPUTE}, W42, 2, stride=3, seed=9)
            path = tmp_path / f"run{run}.jsonl"
            write_jsonl(ds, path)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_window_count_matches_enumeration(self):
        # L=8, h=4, stride 4, length 60, forecast-only: starts {0,4,...,48} -> 13
        w = WindowSpec(4)
        ds = build_context_dataset([series_of(60)], {TaskKind.FORECAST}, w, 0, stride=4, seed=0)
        expected = len([t for t in range(0, 60 - 8 + 1, 4) if t + 12 <= 60])
        assert expected == 13
        assert len(ds) == 13

    def test_skips_are_counted(self):
        # backtrace start 0 lacks history, so some windows are skipped
        ds = build_context_dataset([series_of(30)], {TaskKind.BACKTRACE}, W42, 0, stride=2, seed=1)
        assert ds.skipped_windows >= 1
        assert (ds.tasks == TASK_ORDER.index(TaskKind.BACKTRACE)).all()

    def test_empty_result(self):
        # forecast never fits: series shorter than L+h windows at every stride start
        with pytest.raises(DataError, match="cannot fit|empty dataset"):
            build_context_dataset([series_of(5)], {TaskKind.FORECAST}, W42, 0, stride=1, seed=0)

    def test_demo_pool_split_enforced(self):
        bad_pool = [series_of(40, split="valid")]
        with pytest.raises(DataError, match="train-split"):
            build_context_dataset(
                [series_of(40)], {TaskKind.FORECAST}, W42, 1, stride=4, seed=0, demo_pool=bad_pool
            )

    def test_jsonl_round_trip(self, tmp_path):
        """Store-built train and valid parts, with and without cross-channel demos, replay exactly."""
        store = store_from_channels(generate(SynthSpec(count=2, length=240, seed=0)), "synth")
        for cross_channel_demos in (False, True):
            parts = build_train_valid(
                store, TASK_ORDER, WindowSpec(4), [0, 2], seed=4, stride=3, cross_channel_demos=cross_channel_demos
            )
            foreign_demos = 0
            channels = np.array([s.channel for s in store.table.series])
            for m, train, valid in parts:
                for name, ds in (("train", train), ("valid", valid)):
                    assert set(ds.tasks.tolist()) == set(range(len(TASK_ORDER)))
                    path = tmp_path / f"{name}_m{m}.jsonl"
                    write_jsonl(ds, path)
                    loaded = read_jsonl(path, store)
                    assert loaded.table is ds.table and loaded.window == ds.window
                    assert loaded.skipped_windows == ds.skipped_windows
                    assert ds.rows.shape == (len(ds), m + 1)
                    for got, want in zip((loaded.tasks, loaded.rows, loaded.offsets), (ds.tasks, ds.rows, ds.offsets)):
                        assert got.dtype == want.dtype and np.array_equal(got, want)
                    for i in range(len(ds)):
                        assert reference.sample_spans(loaded, i) == reference.sample_spans(ds, i)
                    example_channels = channels[store.table.locate(ds.rows)]
                    foreign_demos += int((example_channels[:, :-1] != example_channels[:, -1:]).sum())
                    # replay is value-exact, so a second write is byte-identical
                    again = tmp_path / f"{name}_m{m}_again.jsonl"
                    write_jsonl(loaded, again)
                    assert path.read_bytes() == again.read_bytes()
            assert (foreign_demos > 0) == cross_channel_demos


# SHA-256 of every build decision below: the windows, tasks, demo spans and
# masks, read from the context files' records (every line after the header, so
# the header's layout does not enter it). They are integers, so the digest does
# not depend on BLAS, but it pins numpy's Generator stream (PCG64 under
# SeedSequence, and Generator.integers): a numpy release that changes that
# stream changes this digest.
BUILD_DECISIONS_SHA256 = "07b9159c1d116fe7a3d8070d64053363d070f1a43a26757ee7b81700af363c55"


def test_build_decisions_are_pinned(tmp_path, monkeypatch):
    store = store_from_channels(generate(SynthSpec(count=2, length=240, seed=0)), "synth")
    digest = hashlib.sha256()
    for m, train, valid in build_train_valid(store, TASK_ORDER, WindowSpec(4), [0, 2], seed=4, stride=3):
        for name, ds in (("train", train), ("valid", valid)):
            path = tmp_path / f"{name}_m{m}.jsonl"
            write_jsonl(ds, path)
            with path.open("rb") as fh:
                fh.readline()
                digest.update(fh.read())
    calls = []
    real = context.draw_mask
    monkeypatch.setattr(context, "draw_mask", lambda *args: calls.append(args) or real(*args))
    monkeypatch.setattr(context, "DEMO_ATTEMPTS", 1)
    demos = sample_demos([series_of(14)], Span("d", "c", 0, 6), TaskKind.IMPUTE, 3, W42, np.random.default_rng(0))
    assert len(calls) > 3  # a rejected candidate: at least one demo came through the exhaustive fallback
    spans = [source_span(TaskKind.IMPUTE, s, t, W42) for s, t, _ in demos]
    records = [[span.start, span.end, mask] for span, (_, _, mask) in zip(spans, demos)]
    digest.update(json.dumps(records).encode())
    assert digest.hexdigest() == BUILD_DECISIONS_SHA256


@st.composite
def build_config(draw):
    h = draw(st.integers(min_value=1, max_value=4))
    w = WindowSpec(h)
    n = draw(st.integers(min_value=4 * (3 * h), max_value=240))
    m = draw(st.integers(min_value=0, max_value=8))
    tasks = draw(
        st.sets(st.sampled_from([TaskKind.FORECAST, TaskKind.IMPUTE, TaskKind.BACKTRACE]), min_size=1)
    )
    seed = draw(st.integers(min_value=0, max_value=2**31))
    stride = draw(st.integers(min_value=1, max_value=2 * h))
    return w, n, m, tasks, seed, stride


class TestStructuralInvariants:
    @given(build_config())
    @settings(max_examples=60, deadline=None)
    def test_emitted_samples_are_well_formed(self, cfg):
        w, n, m, tasks, seed, stride = cfg
        series = [series_of(n)]
        try:
            ds = build_context_dataset(series, tasks, w, m, stride=stride, seed=seed)
        except DataError:
            return  # pool too small for m disjoint demos: acceptable outcome
        L, h = w.lookback, w.horizon
        for i in range(len(ds)):
            (tokens,), targets = sample_streams(ds, [i])
            assert len(tokens) == (m + 1) * (L + h)
            assert np.array_equal(tokens[-h:], answer_region(h))
            assert targets.shape == (1, m + 1, h)
            *demos, query = reference.sample_spans(ds, i)
            assert len(demos) == m
            for span in demos:
                assert not span.overlaps(query)
                # demos must come from the train-split pool
                assert span.start >= 0 and span.end <= n


# SHA-256 of every context file a tiny build writes. Its sample lines are the
# bytes written when samples still held token arrays: holding rows must not
# move them. Its header's config has no file paths (``cli.PATH_KEYS``), so
# out_dir does not move the bytes either. The header's
# ``store_sha256`` is left out of the digest and checked to name the store
# instead, since the store's floats come from numpy's sin and cos, whose last
# bits may differ between numpy builds; everything else is integers and config.
CONTEXT_FILES_SHA256 = {
    "decoder": {
        "ctx_train_m0.jsonl": "7fd576a127e290cb985923c6a4669ce74e979fb6f9d2019fdbc2cd6f49482c6e",
        "ctx_train_m1.jsonl": "611ecae48516b39862e7d5b0f3f71c2fffec1227c464eb54ddeccbf6d77f9bd1",
        "ctx_valid_m0.jsonl": "d87774b753b5015148337a2b434e9f9bf275bf9d5221ea0c9fe40bf0eed2f3ee",
        "ctx_valid_m1.jsonl": "e8b712e9e24a1d2faf749d77f88928d205b3673cbea2e1a49944ba7e211ac9cb",
    },
    "cross_channel": {
        "ctx_train_m0.jsonl": "1f10e8b1a84519bc51dd8c6bc1bf61c7dd6a95397b23e1732aeea9f902801002",
        "ctx_train_m2.jsonl": "4c94a0c706d86ce2f6dc1a2249c0cd0459890546199d73be74cf4a291ad3f1d6",
        "ctx_valid_m0.jsonl": "48e1a416a7e4d83209a6264e728fb424b34dd60c8bb8162589c6538c5586e30b",
        "ctx_valid_m2.jsonl": "a1fb0b2e97e957744bff51462ba374f87dac7d0bac171cb591af2f6dab013745",
    },
}


@pytest.mark.parametrize(
    "name, settings", [("decoder", {}), ("cross_channel", {"cross_channel_demos": "true", "demo_counts": "0,2"})]
)
def test_context_files_keep_their_bytes(tmp_path, name, settings):
    args = [arg for key, value in {**TINY_CLI, **settings, "out_dir": tmp_path}.items() for arg in ("--set", f"{key}={value}")]
    for stage in ("synth", "ingest", "build"):
        assert main([stage, *args]) == 0
    store = hashlib.sha256((tmp_path / "store.json").read_bytes()).hexdigest().encode()
    digests = {}
    for path in sorted(tmp_path.glob("ctx_*.jsonl")):
        data = path.read_bytes()
        assert data.count(store) == 1
        digests[path.name] = hashlib.sha256(data.replace(store, b"")).hexdigest()
    assert digests == CONTEXT_FILES_SHA256[name]


def test_a_replayed_sample_holds_integers(tmp_path):
    """A replayed 24-demo dataset holds under 256 bytes per example: rows and masks, no token arrays."""
    store = store_from_channels(generate(SynthSpec(count=2, length=240, seed=0)), "synth")
    [(_, train, _)] = build_train_valid(store, TASK_ORDER, WindowSpec(4), [24], seed=0, stride=4)
    write_jsonl(train, tmp_path / "ctx.jsonl")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        replayed = read_jsonl(tmp_path / "ctx.jsonl", store)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    examples = replayed.rows.size
    assert examples == 25 * len(train) > 0
    assert held / examples < 256, f"{held / examples:.0f} bytes per example"
