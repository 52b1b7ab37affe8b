"""Contracts of the whole pipeline: one eval loop and readout, frozen weights, no leakage, determinism."""

from dataclasses import replace

import numpy as np
import pytest

from conftest import overrides
from tsicl import autodiff as ad
from tsicl import evalharness, experiment
from tsicl.cli import main
from tsicl.context import build_stream, build_train_valid
from tsicl.evalharness import (
    PROBES,
    EvalProtocol,
    EvalReport,
    batched_predict,
    enumerate_queries,
    score_probes,
    select_eval_demos,
)
from tsicl.model import VARIANTS, ModelConfig, answer_region, init_params
from tsicl.series import load_store
from tsicl.synthetic import SynthSpec, generate
from tsicl.tasks import TaskKind, WindowSpec
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
    valid = experiment.merge_datasets(parts)
    assert len({len(s.tokens) for s in valid.samples}) == 2 and len(valid.samples) > 64
    streams = [np.concatenate([s.tokens, answer_region(4)]) for s in valid.samples]
    preds = np.stack(batched_predict(streams, [4] * len(streams), params, config))
    truth = np.stack([s.target for s in valid.samples])
    assert evaluate_loss(valid, params, config) == np.mean((preds - truth) ** 2)


def test_cli_rows_equal_evaluate_paths(pipeline_dir):
    params, meta = ad.load_params(pipeline_dir / "checkpoint.json")
    cfg = experiment.UnseenTaskExperiment(
        window=WINDOW, eval_demo_count=1, model=ModelConfig.from_dict(meta["model"])
    )
    scores = experiment.evaluate_paths(cfg, load_store(pipeline_dir / "store.json"), params, seed=0)
    rows = {r.method: r.mse for r in EvalReport.read_csv(pipeline_dir / "eval_report.csv").rows}
    assert rows == {"ictp": scores["context"], "baseline": scores["baseline"]}


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
    store = tiny_store()
    channel = store.channels[0]
    rng = np.random.default_rng(0)
    demos = select_eval_demos(store.series(channel, "train"), TaskKind.IMPUTE, WINDOW, demo_count, rng)
    queries = enumerate_queries(store.series(channel, "test"), TaskKind.IMPUTE, WINDOW, 4, rng)
    fed = []
    real = evalharness.batched_predict

    def recording(streams, horizons, params, config):
        fed.extend(streams)
        return real(streams, horizons, params, config)

    monkeypatch.setattr(evalharness, "batched_predict", recording)
    evalharness.context_path(queries, demos, init_params(TINY_MODEL), TINY_MODEL, WINDOW.horizon)
    assert len(fed) == len(queries) > 1
    for stream, q in zip(fed, queries):
        want = np.concatenate([build_stream(demos, q), answer_region(WINDOW.horizon)])
        assert stream.dtype == want.dtype and stream.shape == want.shape
        assert stream.tobytes() == want.tobytes()


def test_eval_that_moves_a_weight_is_refused(monkeypatch):
    protocol = EvalProtocol(TaskKind.BACKTRACE, (TaskKind.FORECAST,), WINDOW, demo_count=1)
    real = evalharness.batched_predict

    def nudging(streams, horizons, params, config):
        params["head.b"].data = params["head.b"].data + 1e-12
        return real(streams, horizons, params, config)

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
