"""Contracts of the whole pipeline: one eval loop and readout, frozen weights, no leakage, determinism."""

from dataclasses import replace

import numpy as np
import pytest

from conftest import benchmark_module, overrides, settings
from tsicl import autodiff as ad
from tsicl import evalharness, experiment
from tsicl.cli import main, resolve_config
from tsicl.context import build_stream, build_train_valid, pool_datasets, read_jsonl
from tsicl.evalharness import (
    PROBES,
    EvalProtocol,
    EvalReport,
    batched_predict,
    enumerate_queries,
    score_probes,
    select_eval_demos,
)
from tsicl.model import DECODER_CAUSAL, VARIANTS, ModelConfig, init_params
from tsicl.series import load_store
from tsicl.synthetic import SynthSpec, generate
from tsicl.tasks import TaskKind, WindowSpec, answer_region
from tsicl.trainer import evaluate_loss

WINDOW = WindowSpec(8, 4)
TINY_MODEL = ModelConfig(patch_size=4, d_model=8, n_layers=1, n_heads=2, ff_mult=2)
STAGES = ("synth", "ingest", "build", "train", "eval", "report")


def tiny_store():
    return experiment.store_from_channels(generate(SynthSpec(count=2, length=240, seed=0)), "synth")


@pytest.mark.parametrize("variant", VARIANTS)
def test_evaluate_loss_is_the_mse_of_batched_predict(variant):
    config = replace(TINY_MODEL, variant=variant)
    params = init_params(config, seed=1)
    tasks = [TaskKind.FORECAST, TaskKind.IMPUTE]
    parts = [v for _, _, v in build_train_valid(tiny_store(), tasks, WINDOW, [0, 1], seed=0, stride=1)]
    valid = pool_datasets(parts)
    assert len({len(s.tokens) for s in valid.samples}) == 2 and len(valid.samples) > 64
    streams = [s.tokens for s in valid.samples]
    preds = np.stack(batched_predict(streams, [4] * len(streams), params, config))
    truth = np.stack([s.query.target for s in valid.samples])
    assert evaluate_loss(valid, params, config) == np.mean((preds - truth) ** 2)


def test_context_headers_count_the_replayed_samples(pipeline_dir, monkeypatch):
    """The benchmark's train_samples_per_s divides by ``artifacts.train_sample_count``, read from the headers."""
    artifacts = benchmark_module("artifacts", monkeypatch)
    store = load_store(pipeline_dir / "store.json")
    paths = sorted(pipeline_dir.glob("ctx_train_m*.jsonl"))
    assert [p.name for p in paths] == ["ctx_train_m0.jsonl", "ctx_train_m1.jsonl"]
    assert artifacts.train_sample_count(pipeline_dir) == sum(len(read_jsonl(p, store)) for p in paths) > 0


@pytest.fixture(scope="module")
def seed_run(pipeline_dir):
    """``experiment.run_seed`` on the configuration that ``pipeline_dir`` was staged with."""
    return experiment.run_seed(resolve_config(None, settings(pipeline_dir)))


def test_run_seed_equals_the_staged_cli(pipeline_dir, seed_run, tmp_path):
    """In memory or through files, one configuration gives the same rows and the same training record."""
    report, record = seed_run
    assert [r.method for r in report.rows] == list(PROBES)
    staged = EvalReport.read_csv(pipeline_dir / "eval_report.csv").rows
    assert [r.method for r in staged] == ["baseline", "ictp"]
    assert {r.method: r for r in report.rows if r.method in ("baseline", "ictp")} == {r.method: r for r in staged}
    record.write_csv(tmp_path / "train_record.csv")
    staged_lines = (pipeline_dir / "train_record.csv").read_text().splitlines(keepends=True)
    body = "".join(line for line in staged_lines if not line.startswith("# config,"))
    assert (tmp_path / "train_record.csv").read_text() == body


def test_report_lists_every_method(pipeline_dir, seed_run, tmp_path, capsys):
    report, _ = seed_run
    report.write_csv(tmp_path / "probes.csv")
    assert main(["report", *overrides(tmp_path), "--set", f"reports={tmp_path / 'probes.csv'}"]) == 0
    lines = (tmp_path / "summary.csv").read_text().splitlines()
    assert [line.split(",")[4] for line in lines[1:-2]] == ["baseline", "ictp", "no_context", "wrong_task"]
    staged_ratio = [line for line in (pipeline_dir / "eval_report.csv").read_text().splitlines()
                    if line.startswith("# improvement_ratio,")]
    assert lines[-2:-1] == staged_ratio


def test_eval_demos_and_queries_do_not_leak(monkeypatch):
    store = tiny_store()
    protocol = EvalProtocol(TaskKind.BACKTRACE, (TaskKind.IMPUTE, TaskKind.FORECAST), WINDOW, demo_count=3)
    seen = []
    real = evalharness.context_path

    def recording(queries, demos, *args):
        seen.append((queries, demos))
        return real(queries, demos, *args)

    monkeypatch.setattr(evalharness, "context_path", recording)
    score_probes(protocol, PROBES, store, init_params(TINY_MODEL), TINY_MODEL, seed=0)

    def bounds(channel, split):
        s = store.series(channel, split)
        return s.origin_offset, s.origin_offset + len(s)

    assert len(seen) == 3 * len(store.channels)
    assert {d.task for _, demos in seen for d in demos} == {TaskKind.BACKTRACE, TaskKind.IMPUTE}
    for queries, demos in seen:
        for d in demos:
            lo, hi = bounds(d.source_span.channel, "train")
            assert lo <= d.source_span.start and d.source_span.end <= hi
        for q in queries:
            lo, hi = bounds(q.source_span.channel, "test")
            assert lo <= q.source_span.start and q.source_span.end <= hi
            assert not any(d.source_span.overlaps(q.source_span) for d in demos)


@pytest.mark.parametrize("demo_count", [0, 3])
def test_context_path_streams_are_demos_then_query(demo_count, monkeypatch):
    """The model sees build_stream(demos, q): as one stream, or as a cached prefix and the rest."""
    store = tiny_store()
    channel = store.channels[0]
    rng = np.random.default_rng(0)
    demos = select_eval_demos(store.series(channel, "train"), TaskKind.IMPUTE, WINDOW, demo_count, rng)
    queries = enumerate_queries(store.series(channel, "test"), TaskKind.IMPUTE, WINDOW, 4, rng)
    real_encode, real_forward = evalharness.encode_prefix, evalharness.forward_patch_predictions
    for variant in VARIANTS:
        config = replace(TINY_MODEL, variant=variant)
        prefixes, fed = [], []

        def encoding(tokens, *args):
            prefixes.append(tokens)
            return real_encode(tokens, *args)

        def forwarding(batch_tokens, *args):
            fed.extend(batch_tokens)
            return real_forward(batch_tokens, *args)

        monkeypatch.setattr(evalharness, "encode_prefix", encoding)
        monkeypatch.setattr(evalharness, "forward_patch_predictions", forwarding)
        evalharness.context_path(queries, demos, init_params(config), config)
        cached = variant == DECODER_CAUSAL and demo_count > 0
        assert len(prefixes) == cached and len(fed) == len(queries) > 1, variant
        for stream, q in zip(fed, queries):
            want = build_stream(demos, q)
            seen = np.concatenate([prefixes[0], stream]) if cached else stream
            assert seen.dtype == want.dtype and seen.shape == want.shape, variant
            assert seen.tobytes() == want.tobytes(), variant


@pytest.mark.parametrize("variant", VARIANTS)
def test_context_path_equals_the_prepended_streams(variant):
    """The encoder, and the decoder without demos, run the very streams they did before the prefix cache."""
    config = replace(TINY_MODEL, variant=variant)
    store = tiny_store()
    channel = store.channels[0]
    rng = np.random.default_rng(0)
    params = init_params(config, seed=2)
    queries = enumerate_queries(store.series(channel, "test"), TaskKind.IMPUTE, WINDOW, 4, rng)
    region = answer_region(WINDOW.horizon)
    for demo_count in (0, 3):
        demos = select_eval_demos(store.series(channel, "train"), TaskKind.IMPUTE, WINDOW, demo_count, rng)
        prepended = [np.concatenate([build_stream(demos), q.input, region]) for q in queries]
        want = np.stack(batched_predict(prepended, [WINDOW.horizon] * len(queries), params, config))
        got = evalharness.context_path(queries, demos, params, config)
        assert got.dtype == want.dtype and got.shape == want.shape
        if variant == DECODER_CAUSAL and demo_count:
            # equal here; BLAS may round the prefix's batch of one apart from a batch of many
            assert np.max(np.abs(got - want)) <= 1e-5 * np.max(np.abs(want))
        else:
            assert got.tobytes() == want.tobytes(), demo_count


def test_eval_that_moves_a_weight_is_refused(monkeypatch):
    protocol = EvalProtocol(TaskKind.BACKTRACE, (TaskKind.FORECAST,), WINDOW, demo_count=1)
    real = evalharness.batched_predict

    def nudging(streams, horizons, params, config, **kwargs):
        params["head.b"].data = params["head.b"].data + 1e-12
        return real(streams, horizons, params, config, **kwargs)

    monkeypatch.setattr(evalharness, "batched_predict", nudging)
    with pytest.raises(RuntimeError, match="frozen-model contract"):
        score_probes(protocol, ("ictp",), tiny_store(), init_params(TINY_MODEL), TINY_MODEL)


def test_same_seed_gives_byte_identical_artifacts(tmp_path):
    def run() -> dict[str, bytes]:
        for stage in STAGES:
            assert main([stage, *overrides(tmp_path)]) == 0
        return {f.name: f.read_bytes() for f in sorted(tmp_path.iterdir())}

    first = run()
    assert {"synth.csv", "store.json", "checkpoint.json", "eval_report.csv", "summary.csv"} <= set(first)
    assert run() == first
