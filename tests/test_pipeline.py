"""Contracts of the whole pipeline: one eval loop and readout, frozen weights, no leakage, determinism."""

import base64
import hashlib
import json
import os
from dataclasses import replace

import numpy as np
import pytest

import reference
from conftest import benchmark_module, overrides, settings
from tsicl import autodiff as ad
from tsicl import evalharness, experiment
from tsicl.cli import main, model_config, resolve_config
from tsicl.errors import DataError
from tsicl.context import build_train_valid, example_streams, read_jsonl, sample_streams
from tsicl.evalharness import (
    BATCH,
    PROBES,
    EvalProtocol,
    EvalReport,
    batched_predict,
    eval_demo_starts,
    score_probes,
)
from tsicl.model import DECODER_CAUSAL, ENCODER_MASKED, VARIANTS, ModelConfig, init_params
from tsicl.series import build_store, load_store
from tsicl.synthetic import SynthSpec, generate
from tsicl.tasks import TaskKind, WindowSpec, example_rows, target_offsets
from tsicl.trainer import evaluate_loss

WINDOW = WindowSpec(4)
TINY_MODEL = ModelConfig(patch_size=4, d_model=8, n_layers=1, n_heads=2, ff_mult=2)
STAGES = ("synth", "ingest", "build", "train", "eval", "report")


def tiny_store():
    return build_store(generate(SynthSpec(count=2, length=240, seed=0)))


@pytest.mark.parametrize("variant", VARIANTS)
def test_evaluate_loss_is_the_mse_of_batched_predict(variant):
    """Over two demo counts and several batches, in float64 to 1e-10: the sum order differs, the readout does not."""
    config = replace(TINY_MODEL, variant=variant)
    params = init_params(config, seed=1)
    for p in params.values():
        p.data = p.data.astype(np.float64)
    tasks = [TaskKind.FORECAST, TaskKind.IMPUTE]
    parts = [v for _, _, v in build_train_valid(tiny_store(), tasks, WINDOW, [0, 1], seed=0, stride=1)]
    assert all(len(part) > 32 for part in parts)  # more than one batch of the default size each
    errors = []
    for part in parts:  # one demo count, so one stream length, each
        streams, targets = sample_streams(part, range(len(part)))
        errors.append(batched_predict(streams, WINDOW.horizon, params, config) - targets[:, -1])
    want = np.mean(np.concatenate(errors) ** 2)
    assert abs(evaluate_loss(parts, params, config) - want) <= 1e-10 * want


def test_context_headers_count_the_replayed_samples(pipeline_dir, monkeypatch):
    """The benchmark's train_samples_per_s divides by ``artifacts.train_sample_count``, read from the headers."""
    artifacts = benchmark_module("artifacts", monkeypatch)
    store = load_store(pipeline_dir / "store.json")
    paths = sorted(pipeline_dir.glob("ctx_train_m*.jsonl"))
    assert [p.name for p in paths] == ["ctx_train_m0.jsonl", "ctx_train_m1.jsonl"]
    assert artifacts.train_sample_count(pipeline_dir) == sum(len(read_jsonl(p, store)) for p in paths) > 0


def test_the_checkpoint_is_its_float32_bytes_and_a_small_header(pipeline_dir):
    """Four bytes a model parameter value, and under 4 KB of everything else: no value is decimal text."""
    text = (pipeline_dir / "checkpoint.json").read_text()
    entries = json.loads(text)["params"].values()
    model = model_config(resolve_config(None, settings(pipeline_dir)))
    values = sum(p.data.size for p in init_params(model).values())
    assert sum(len(base64.b64decode(entry["data"], validate=True)) for entry in entries) == 4 * values
    assert len(text) - sum(len(entry["data"]) for entry in entries) < 4096


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


def test_report_refuses_a_row_given_twice(pipeline_dir, tmp_path, capsys):
    """The same one-seed report twice is not two seeds: ``report`` exits 3 naming the row, and writes nothing."""
    path = pipeline_dir / "eval_report.csv"
    assert main(["report", *overrides(tmp_path), "--set", f"reports={path},{path}"]) == 3
    assert "repeated row: method baseline of cell ('decoder_causal', 'backtrace'" in capsys.readouterr().err
    assert not (tmp_path / "summary.csv").exists()
    report = EvalReport.read_csv(path)
    with pytest.raises(DataError, match="repeated row: method ictp"):
        evalharness.improvement_ratio(EvalReport([*report.rows, report.rows[-1]]))


def test_eval_demos_and_queries_do_not_leak(monkeypatch):
    """Every value a query reads lies in its channel's test split, every value a demo reads in its train split."""
    store = tiny_store()
    protocol = EvalProtocol(TaskKind.BACKTRACE, (TaskKind.IMPUTE, TaskKind.FORECAST), WINDOW, demo_count=3)
    seen = []
    real = evalharness.example_rows

    def recording(task, split, starts, w, rng):
        rows, masks = real(task, split, starts, w, rng)
        seen.append((task, rows, target_offsets(task, w, masks)))
        return rows, masks

    monkeypatch.setattr(evalharness, "example_rows", recording)
    score_probes(protocol, PROBES, store, init_params(TINY_MODEL), TINY_MODEL, seed=0)

    # per channel: its queries, then the ictp and the wrong_task demos
    assert [task for task, _, _ in seen] == [TaskKind.BACKTRACE, TaskKind.BACKTRACE, TaskKind.IMPUTE] * len(store.channels)
    for k, (task, rows, offsets) in enumerate(seen):
        split = store.rows(k // 3, "test" if k % 3 == 0 else "train")
        first = rows + np.minimum(offsets.min(axis=1), 0)
        end = rows + np.maximum(offsets.max(axis=1) + 1, WINDOW.lookback)
        assert len(rows) > 0 and (split.start <= first).all() and (end <= split.stop).all()


def impute_probe(store, demo_count: int, rng):
    """Channel 0's impute demo prefix and stride-4 query streams as eval gathers them, and their reference examples."""
    task, train, test = TaskKind.IMPUTE, store.rows(0, "train"), store.rows(0, "test")
    made = []
    for split, starts, shown in ((train, eval_demo_starts(len(train), task, WINDOW, demo_count), True),
                                 (test, range(0, len(test) - WINDOW.lookback + 1, 4), False)):
        rows, masks = example_rows(task, split, starts, WINDOW, rng)
        streams, _ = example_streams(store.values, WINDOW, rows, target_offsets(task, WINDOW, masks), shown)
        values = store.values[split.start : split.stop]
        examples = [reference.example(task, values, t, WINDOW, mask) for t, mask in zip(starts, masks.tolist())]
        made.append((streams, examples))
    (prefix, demos), (queries, examples) = made
    return prefix.reshape(-1, 3), demos, queries, examples


@pytest.mark.parametrize("demo_count", [0, 3])
def test_context_path_streams_are_demos_then_query(demo_count, monkeypatch):
    """The model sees ``reference.build_stream(demos, q)``: as one stream, or as a cached prefix and the rest."""
    prefix, demos, queries, examples = impute_probe(tiny_store(), demo_count, np.random.default_rng(0))
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
        evalharness.context_path(queries, prefix, init_params(config), config, WINDOW.horizon)
        cached = variant == DECODER_CAUSAL and demo_count > 0
        assert len(prefixes) == cached and len(fed) == len(examples) > 1, variant
        for stream, q in zip(fed, examples):
            want = reference.build_stream(demos, q)
            seen = np.concatenate([prefixes[0], stream]) if cached else stream
            assert seen.dtype == want.dtype and seen.shape == want.shape, variant
            assert seen.tobytes() == want.tobytes(), variant


@pytest.mark.parametrize("variant", VARIANTS)
def test_context_path_equals_the_prepended_streams(variant):
    """The encoder, and the decoder without demos, run the very streams they did before the prefix cache."""
    config = replace(TINY_MODEL, variant=variant)
    store = tiny_store()
    rng = np.random.default_rng(0)
    params = init_params(config, seed=2)
    for demo_count in (0, 3):
        prefix, demos, queries, examples = impute_probe(store, demo_count, rng)
        prepended = np.stack([reference.build_stream(demos, q) for q in examples])
        want = batched_predict(prepended, WINDOW.horizon, params, config)
        got = evalharness.context_path(queries, prefix, params, config, WINDOW.horizon)
        assert got.dtype == want.dtype and got.shape == want.shape
        if variant == DECODER_CAUSAL and demo_count:
            # equal here; BLAS may round the prefix's batch of one apart from a batch of many
            assert np.max(np.abs(got - want)) <= 1e-5 * np.max(np.abs(want))
        else:
            assert got.tobytes() == want.tobytes(), demo_count


def test_eval_that_moves_a_weight_is_refused(monkeypatch):
    protocol = EvalProtocol(TaskKind.BACKTRACE, (TaskKind.FORECAST,), WINDOW, demo_count=1)
    real = evalharness.batched_predict

    def nudging(streams, horizon, params, config, **kwargs):
        params["head.b"].data = params["head.b"].data + 1e-12
        return real(streams, horizon, params, config, **kwargs)

    monkeypatch.setattr(evalharness, "batched_predict", nudging)
    with pytest.raises(RuntimeError, match="frozen-model contract"):
        score_probes(protocol, ("ictp",), tiny_store(), init_params(TINY_MODEL), TINY_MODEL)


def staged(out_dir) -> dict[str, bytes]:
    """Every stage of the tiny configuration, writing to ``out_dir``: the files it leaves there."""
    for stage in STAGES:
        assert main([stage, *overrides(out_dir)]) == 0
    return {f.name: f.read_bytes() for f in sorted(out_dir.iterdir())}


def test_same_seed_gives_byte_identical_artifacts(tmp_path):
    first = staged(tmp_path)
    assert {"synth.csv", "store.json", "checkpoint.json", "eval_report.csv", "summary.csv"} <= set(first)
    assert staged(tmp_path) == first


def test_artifacts_do_not_depend_on_the_output_path(tmp_path):
    """The same run under two out_dir names of different lengths leaves the same files, byte for byte."""
    short = staged(tmp_path / "a")
    contexts = {f"ctx_{part}_m{m}.jsonl" for part in ("train", "valid") for m in (0, 1)}
    assert set(short) == contexts | {"synth.csv", "store.json", "checkpoint.json", "train_record.csv",
                                     "eval_report.csv", "summary.csv"}
    assert staged(tmp_path / "a_much_longer_output_directory") == short


# SHA-256 of every integer decision ``score_probes`` makes at seed 0 in the three
# cells below: per channel, in the order they are made, the queries and then each
# probe's demos, each as its task and per example its dataset, channel, span and
# masked positions. Integers only, so the digest does not depend on BLAS; like
# ``test_build_decisions_are_pinned`` it pins numpy's Generator stream.
EVAL_DECISIONS_SHA256 = "44330a9aeb8d3d7e7badb8ba5fd85602a9572b622adeafccbc866241758924d3"
EVAL_CELLS = (
    (DECODER_CAUSAL, TaskKind.BACKTRACE, (TaskKind.IMPUTE, TaskKind.FORECAST)),
    (ENCODER_MASKED, TaskKind.BACKTRACE, (TaskKind.FORECAST, TaskKind.IMPUTE)),
    (ENCODER_MASKED, TaskKind.FORECAST, (TaskKind.IMPUTE, TaskKind.BACKTRACE)),
)


def test_eval_decisions_are_pinned(tmp_path, monkeypatch):
    """The same decisions on the forked path (two or more cores) and the serial one (one core)."""
    store = build_store(generate(SynthSpec(count=2, length=480, seed=0)))
    real = evalharness.example_rows

    def recording(task, split, starts, w, rng):
        rows, masks = real(task, split, starts, w, rng)
        spans = [reference.source_span(store, task, row, w) for row in rows.tolist()]
        records = [[*span, mask] for span, mask in zip(spans, masks.tolist())]
        channel = store.channels[store.locate(split.start)]
        with (tmp_path / f"{os.getpid()}.jsonl").open("a") as fh:  # a forked worker records in its own file
            fh.write(json.dumps([channel, str(task), records]) + "\n")
        return rows, masks

    monkeypatch.setattr(evalharness, "example_rows", recording)
    digest = hashlib.sha256()
    for variant, task, pretrain in EVAL_CELLS:
        config = replace(TINY_MODEL, variant=variant)
        protocol = EvalProtocol(task, pretrain, WINDOW, demo_count=2)
        preds, _, _ = score_probes(protocol, PROBES, store, init_params(config), config, seed=0, stride=1)
        assert len(preds["ictp"]) >= 2 * BATCH  # enough queries for two workers
        by_channel = {}
        for path in sorted(tmp_path.glob("*.jsonl")):
            for line in path.read_text().splitlines():  # each channel is scored whole in one process
                by_channel.setdefault(json.loads(line)[0], []).append(line)
            path.unlink()
        assert sorted(by_channel) == sorted(store.channels) and all(len(calls) == 3 for calls in by_channel.values())
        for channel in store.channels:
            digest.update("\n".join(by_channel[channel]).encode() + b"\n")
    assert digest.hexdigest() == EVAL_DECISIONS_SHA256
