"""The baseline adapter table and the one answer-region rule of adapted streams."""

from dataclasses import replace

import numpy as np
import pytest

import reference
from tsicl import adapters, evalharness, experiment
from tsicl.context import example_streams
from tsicl.errors import DataError
from tsicl.evalharness import EvalProtocol, _fit_adapted, eval_demo_starts, score_probes
from tsicl.model import (
    DECODER_CAUSAL,
    ENCODER_MASKED,
    VARIANTS,
    ModelConfig,
    horizon_patch_count,
    init_params,
    patchify,
    readout_rows,
)
from tsicl.series import ChannelSeries
from tsicl.synthetic import SynthSpec, generate
from tsicl.tasks import MASK_FLAG, TaskKind, WindowSpec, answer_region, example_rows, target_offsets

TINY_MODEL = ModelConfig(patch_size=4, d_model=8, n_layers=1, n_heads=2, ff_mult=2)
WINDOWS = (WindowSpec(12), WindowSpec(6))


def series(n=96):
    values = np.random.default_rng(7).standard_normal(n)
    return ChannelSeries("d", "c", values)


def query_batch(task: TaskKind, w: WindowSpec, positions=None, starts=(20, 30, 40)):
    """Inputs (N, L, 3) and masks (N, k) of ``task`` queries on ``series()``; an impute query masks ``positions``,
    by default a late block, so truncation keeps a prefix."""
    L, h = w.lookback, w.horizon
    positions = (list(range(L - h - 1, L - 1)) if task is TaskKind.IMPUTE else []) if positions is None else positions
    s = series()
    inputs = np.stack([reference.example(task, s, t, w, positions)[0] for t in starts])
    return inputs, np.array([positions] * len(starts), dtype=np.int64).reshape(len(starts), len(positions))


TABLE = {
    (DECODER_CAUSAL, TaskKind.BACKTRACE): adapters.adapt_backtrace_flip,
    (DECODER_CAUSAL, TaskKind.IMPUTE): adapters.adapt_impute_truncate,
    (DECODER_CAUSAL, TaskKind.FORECAST): None,
    (ENCODER_MASKED, TaskKind.BACKTRACE): adapters.adapt_backtrace_flip,
    (ENCODER_MASKED, TaskKind.FORECAST): adapters.adapt_identity,
    (ENCODER_MASKED, TaskKind.IMPUTE): None,
}


@pytest.mark.parametrize("variant, task", list(TABLE))
def test_adapter_table(variant, task):
    expected = TABLE[variant, task]
    if expected is None:
        with pytest.raises(DataError, match="no baseline adapter"):
            adapters.adapter_for(variant == DECODER_CAUSAL, task)
    else:
        assert adapters.adapter_for(variant == DECODER_CAUSAL, task) is expected


def test_flip_twice_is_the_identity():
    w = WindowSpec(12)
    inputs, masks = query_batch(TaskKind.BACKTRACE, w)
    once, read = adapters.adapt_backtrace_flip(inputs, masks, w)
    twice, _ = adapters.adapt_backtrace_flip(once, masks, w)
    assert not np.array_equal(once, inputs)
    assert np.array_equal(twice, inputs)
    assert all(np.array_equal(x, inputs[i][::-1]) for i, x in enumerate(once))  # each query reversed on its own
    assert np.array_equal(read, np.tile(np.arange(w.horizon)[::-1], (len(inputs), 1)))


@pytest.mark.parametrize(
    "positions",
    [[14, 15, 18, 21, 23], [12, 13, 14], [3, 7, 11, 20], [0, 1, 2, 9], [5, 6, 7]],
)
def test_truncate_scores_the_masked_positions_in_order(positions):
    window = np.arange(24, dtype=float) * 10.0
    w = WindowSpec(12)
    tokens, target = reference.example(TaskKind.IMPUTE, ChannelSeries("d", "c", window), 0, w, positions)
    (history,), (read,) = adapters.adapt_impute_truncate(tokens[None], np.array([positions]), w)
    first, last = positions[0], positions[-1]
    # the model forecasts the hull forward from the prefix, or backward from the suffix
    hull = window[first : last + 1]
    forward = first + last >= w.lookback
    assert np.array_equal(history, tokens[:first] if forward else tokens[last + 1 :][::-1])
    raw = hull if forward else hull[::-1]
    assert read.max() + 1 == len(hull)
    pred = np.concatenate([raw, [-1.0, -1.0]])[read]
    assert np.array_equal(pred, window[positions])
    assert np.array_equal(pred, target)


def test_truncate_refuses_a_mask_at_both_ends():
    w = WindowSpec(12)
    with pytest.raises(DataError, match="both ends"):
        adapters.adapt_impute_truncate(*query_batch(TaskKind.IMPUTE, w, positions=[0, 5, 23]), w)


@pytest.mark.parametrize("w", WINDOWS, ids=lambda w: f"{w.lookback}/{w.horizon}")
@pytest.mark.parametrize("task", [TaskKind.FORECAST, TaskKind.BACKTRACE, TaskKind.IMPUTE])
def test_fitted_streams_are_patch_aligned_and_end_in_the_answer_region(w, task):
    adapt = {
        TaskKind.FORECAST: adapters.adapt_identity,
        TaskKind.BACKTRACE: adapters.adapt_backtrace_flip,
        TaskKind.IMPUTE: adapters.adapt_impute_truncate,
    }[task]
    histories, read = adapt(*query_batch(task, w), w)
    p = TINY_MODEL.patch_size
    for history, steps in zip(histories, read.max(axis=1) + 1):
        (stream,), model_h = _fit_adapted(history[None], int(steps), TINY_MODEL)
        assert len(stream) % p == 0 and model_h % p == 0
        assert steps <= model_h < steps + p
        assert np.array_equal(stream[-model_h:], answer_region(model_h))
        kept = stream[:-model_h]
        assert np.array_equal(kept, history[len(history) - len(kept) :])


def test_a_ragged_impute_baseline_is_each_query_scored_alone():
    """Truncated histories of several lengths are predicted in groups; each query gets its own answer, in order."""
    w = WindowSpec(12)
    late, early, split = list(range(11, 23)), list(range(12)), [*range(1, 7), *range(13, 19)]
    masks = np.array([late, split, early, list(range(8, 20)), early, [*range(5, 11), *range(17, 23)], late])
    starts = range(0, 6 * len(masks), 6)
    inputs = np.stack([reference.example(TaskKind.IMPUTE, series(), t, w, m)[0] for t, m in zip(starts, masks.tolist())])
    histories, read = adapters.adapt_impute_truncate(inputs, masks, w)
    keys = [(len(x), steps) for x, steps in zip(histories, read.max(axis=1) + 1)]
    assert len({length for length, _ in keys}) >= 2 and keys != sorted(keys)  # several groups, out of query order
    params = init_params(TINY_MODEL, seed=4)
    got = evalharness.baseline_path(TaskKind.IMPUTE, inputs, masks, params, TINY_MODEL, w)
    alone = [evalharness.baseline_path(TaskKind.IMPUTE, inputs[i : i + 1], masks[i : i + 1], params, TINY_MODEL, w)
             for i in range(len(inputs))]
    assert got.tobytes() == np.concatenate(alone).tobytes()


def test_encoder_backtrace_stream_is_the_flip_plus_a_masked_tail(monkeypatch):
    w = WindowSpec(12)
    inputs, masks = query_batch(TaskKind.BACKTRACE, w, starts=(20,))
    fed = []
    real = evalharness.batched_predict

    def recording(streams, horizon, params, config):
        fed.extend((stream, horizon) for stream in streams)
        return real(streams, horizon, params, config)

    monkeypatch.setattr(evalharness, "batched_predict", recording)
    config = replace(TINY_MODEL, variant=ENCODER_MASKED)
    evalharness.baseline_path(TaskKind.BACKTRACE, inputs, masks, init_params(config), config, w)
    h = w.horizon
    flipped = np.zeros((w.lookback, 3))
    flipped[:, 0] = inputs[0][::-1, 0]
    placeholders = np.tile([0.0, 1.0, 1.0], (h, 1))  # value 0, masked, answer segment
    want = np.concatenate([flipped, placeholders])
    (stream, horizon), = fed
    assert horizon == h
    assert stream.dtype == want.dtype and stream.tobytes() == want.tobytes()


def test_encoder_forecast_baseline_is_the_no_context_probe():
    store = experiment.store_from_channels(generate(SynthSpec(count=2, length=240, seed=0)), "synth")
    config = replace(TINY_MODEL, variant=ENCODER_MASKED)
    protocol = EvalProtocol(TaskKind.FORECAST, (TaskKind.IMPUTE, TaskKind.BACKTRACE), WindowSpec(4), demo_count=1)
    preds, _, _ = score_probes(protocol, ("no_context", "baseline"), store, init_params(config, seed=1), config)
    assert len(preds["baseline"]) > 1
    assert np.array_equal(preds["baseline"], preds["no_context"])


def masked_tail(stream: np.ndarray, p: int) -> tuple[int, int]:
    """Patch rows [first, total) of the longest run of final patches whose every token is masked."""
    masked = patchify(stream, p)[:, MASK_FLAG::3].min(axis=1) == 1
    first = len(masked)
    while first > 0 and masked[first - 1]:
        first -= 1
    return first, len(masked)


@pytest.mark.parametrize("variant", VARIANTS)
def test_readout_rows_cover_exactly_the_masked_tail(variant, monkeypatch):
    """The encoder reads the masked tail's own rows; the decoder reads them one row earlier."""
    store = experiment.store_from_channels(generate(SynthSpec(count=1, length=240, seed=0)), "synth")
    w = WindowSpec(12)
    config = replace(TINY_MODEL, variant=variant)
    rng = np.random.default_rng(0)
    task, table, channel = TaskKind.BACKTRACE, store.table, store.channels[0]
    train_s, test_s = store.series(channel, "train"), store.series(channel, "test")
    rows, masks = example_rows(table, task, train_s, eval_demo_starts(len(train_s), task, w, 2), w, rng)
    prefix = example_streams(table, w, rows, target_offsets(task, w, masks), True)[0].reshape(-1, 3)
    rows, masks = example_rows(table, task, test_s, range(w.horizon, len(test_s) - w.lookback + 1, 6), w, rng)
    queries, _ = example_streams(table, w, rows, target_offsets(task, w, masks), False)
    fed = []
    real = evalharness.batched_predict

    def recording(streams, horizon, params, config, prefix=None):
        # each stream behind the rows a cached prefix covers; their tokens are unmasked, so zeros stand in
        head = np.zeros((0 if prefix is None else prefix[0][0].shape[1] * config.patch_size, 3))
        fed.append([(np.concatenate([head, s]), horizon, len(head)) for s in streams])
        return real(streams, horizon, params, config, prefix=prefix)

    monkeypatch.setattr(evalharness, "batched_predict", recording)
    params = init_params(config)
    evalharness.context_path(queries, prefix, params, config, w.horizon)
    evalharness.baseline_path(task, queries[:, : w.lookback], masks, params, config, w)
    assert [len(streams) for streams in fed] == [len(queries)] * 2 and len(queries) > 1

    p = config.patch_size
    shift = 1 if variant == DECODER_CAUSAL else 0
    for stream, horizon, prefix_len in (entry for streams in fed for entry in streams):
        lo, hi = masked_tail(stream, p)
        hp = horizon_patch_count(horizon, config)
        assert hi - lo == hp
        assert readout_rows(config, len(stream) // p, hp) == (lo - shift, hi - shift)
        assert lo - shift >= prefix_len // p  # the readout rows lie after any prefix
