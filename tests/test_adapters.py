"""The baseline adapter table and the one answer-region rule of adapted streams."""

from dataclasses import replace

import numpy as np
import pytest

from tsicl import adapters, evalharness, experiment
from tsicl.errors import DataError
from tsicl.evalharness import EvalProtocol, _fit_adapted, score_probes
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
from tsicl.tasks import (
    MASK_FLAG,
    Span,
    TaskExample,
    TaskKind,
    WindowSpec,
    answer_region,
    generate_example,
    token_array,
)

TINY_MODEL = ModelConfig(patch_size=4, d_model=8, n_layers=1, n_heads=2, ff_mult=2)
WINDOWS = (WindowSpec(24, 12), WindowSpec(12, 6))


def series(n=96):
    values = np.random.default_rng(7).standard_normal(n)
    return ChannelSeries("d", "c", values)


def impute_example(window: np.ndarray, positions: list[int]) -> TaskExample:
    mask = np.zeros(len(window))
    mask[positions] = 1.0
    span = Span("d", "c", 0, len(window))
    return TaskExample(TaskKind.IMPUTE, token_array(window, mask=mask), window[positions].copy(), span)


def examples(w: WindowSpec) -> dict[TaskKind, TaskExample]:
    """One example per task; the impute mask is a late block, so truncation keeps a prefix."""
    s = series()
    L, h = w.lookback, w.horizon
    return {
        TaskKind.FORECAST: generate_example(TaskKind.FORECAST, s, 20, w, None),
        TaskKind.BACKTRACE: generate_example(TaskKind.BACKTRACE, s, 20, w, None),
        TaskKind.IMPUTE: impute_example(s.values[20 : 20 + L], list(range(L - h - 1, L - 1))),
    }


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
    example = examples(WindowSpec(24, 12))[TaskKind.BACKTRACE]
    once = adapters.adapt_backtrace_flip(example)
    twice = adapters.adapt_backtrace_flip(replace(example, input=once.tokens))
    assert not np.array_equal(once.tokens, example.input)
    assert np.array_equal(twice.tokens, example.input)


@pytest.mark.parametrize(
    "positions",
    [[14, 15, 18, 21, 23], [12, 13, 14], [3, 7, 11, 20], [0, 1, 2, 9], [5, 6, 7]],
)
def test_truncate_scores_the_masked_positions_in_order(positions):
    window = np.arange(24, dtype=float) * 10.0
    example = impute_example(window, positions)
    adapted = adapters.adapt_impute_truncate(example)
    first, last = positions[0], positions[-1]
    assert np.array_equal(adapted.score_offsets + first, example.masked_positions)
    # the model forecasts the hull forward from the prefix, or backward from the suffix
    hull = window[first : last + 1]
    raw = hull[::-1] if adapted.reverse_output else hull
    pred = adapted.score_prediction(np.concatenate([raw, [-1.0, -1.0]]))
    assert np.array_equal(pred, window[positions])
    assert np.array_equal(pred, example.target)


def test_truncate_refuses_a_mask_at_both_ends():
    with pytest.raises(DataError, match="both ends"):
        adapters.adapt_impute_truncate(impute_example(np.arange(24, dtype=float), [0, 5, 23]))


@pytest.mark.parametrize("w", WINDOWS, ids=lambda w: f"{w.lookback}/{w.horizon}")
@pytest.mark.parametrize("task", [TaskKind.FORECAST, TaskKind.BACKTRACE, TaskKind.IMPUTE])
def test_fitted_streams_are_patch_aligned_and_end_in_the_answer_region(w, task):
    example = examples(w)[task]
    adapt = {
        TaskKind.FORECAST: adapters.adapt_identity,
        TaskKind.BACKTRACE: adapters.adapt_backtrace_flip,
        TaskKind.IMPUTE: adapters.adapt_impute_truncate,
    }[task]
    adapted = adapt(example)
    stream, model_h = _fit_adapted(adapted, TINY_MODEL)
    p = TINY_MODEL.patch_size
    assert len(stream) % p == 0 and model_h % p == 0
    assert adapted.predict_steps <= model_h < adapted.predict_steps + p
    assert np.array_equal(stream[-model_h:], answer_region(model_h))
    history = stream[:-model_h]
    assert np.array_equal(history, adapted.tokens[len(adapted.tokens) - len(history) :])


def test_encoder_backtrace_stream_is_the_flip_plus_a_masked_tail(monkeypatch):
    example = examples(WindowSpec(24, 12))[TaskKind.BACKTRACE]
    fed = []
    real = evalharness.batched_predict

    def recording(streams, horizons, params, config):
        fed.extend(zip(streams, horizons))
        return real(streams, horizons, params, config)

    monkeypatch.setattr(evalharness, "batched_predict", recording)
    config = replace(TINY_MODEL, variant=ENCODER_MASKED)
    evalharness.baseline_path([example], init_params(config), config)
    h = example.horizon
    placeholders = np.tile([0.0, 1.0, 1.0], (h, 1))  # value 0, masked, answer segment
    want = np.concatenate([token_array(example.input[::-1, 0]), placeholders])
    (stream, horizon), = fed
    assert horizon == h
    assert stream.dtype == want.dtype and stream.tobytes() == want.tobytes()


def test_encoder_forecast_baseline_is_the_no_context_probe():
    store = experiment.store_from_channels(generate(SynthSpec(count=2, length=240, seed=0)), "synth")
    config = replace(TINY_MODEL, variant=ENCODER_MASKED)
    protocol = EvalProtocol(TaskKind.FORECAST, (TaskKind.IMPUTE, TaskKind.BACKTRACE), WindowSpec(8, 4), demo_count=1)
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
    w = WindowSpec(24, 12)
    config = replace(TINY_MODEL, variant=variant)
    rng = np.random.default_rng(0)
    channel = store.channels[0]
    demos = evalharness.select_eval_demos(store.series(channel, "train"), TaskKind.BACKTRACE, w, 2, rng)
    queries = evalharness.enumerate_queries(store.series(channel, "test"), TaskKind.BACKTRACE, w, 6, rng)
    fed = []
    real = evalharness.batched_predict

    def recording(streams, horizons, params, config, prefix=None):
        # each stream as the model sees it, with the rows a cached prefix covers
        head = np.zeros((0, 3)) if prefix is None else prefix
        fed.append([(np.concatenate([head, s]), h, len(head)) for s, h in zip(streams, horizons)])
        return real(streams, horizons, params, config, prefix=prefix)

    monkeypatch.setattr(evalharness, "batched_predict", recording)
    params = init_params(config)
    evalharness.context_path(queries, demos, params, config)
    evalharness.baseline_path(queries, params, config)
    assert [len(streams) for streams in fed] == [len(queries)] * 2 and len(queries) > 1

    p = config.patch_size
    shift = 1 if variant == DECODER_CAUSAL else 0
    for stream, horizon, prefix_len in (entry for streams in fed for entry in streams):
        lo, hi = masked_tail(stream, p)
        hp = horizon_patch_count(horizon, config)
        assert hi - lo == hp
        assert readout_rows(config, len(stream) // p, hp) == (lo - shift, hi - shift)
        assert lo - shift >= prefix_len // p  # the readout rows lie after any prefix
