"""Malformed inputs and failure paths end in the documented errors and exit codes."""

import base64
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import overrides
from tsicl import autodiff as ad
from tsicl import cli, evalharness, trainer
from tsicl.cli import main
from tsicl.context import build_context_dataset, read_jsonl
from tsicl.errors import DataError, NumericalError
from tsicl.model import ModelConfig, init_params
from tsicl.series import build_store, load_store
from tsicl.synthetic import SynthSpec, generate
from tsicl.tasks import TaskKind, WindowSpec

SRC = Path(__file__).resolve().parents[1] / "src"
WINDOW = WindowSpec(4)
TINY_MODEL = ModelConfig(patch_size=4, d_model=8, n_layers=1, n_heads=2, ff_mult=2)


def copy_artifacts(src_dir: Path, dst_dir: Path) -> None:
    for f in src_dir.iterdir():
        (dst_dir / f.name).write_bytes(f.read_bytes())


def truncated_copy(src_dir: Path, dst_dir: Path, name: str) -> Path:
    """Copy every artifact, then cut ``name`` to its first half."""
    copy_artifacts(src_dir, dst_dir)
    target = dst_dir / name
    data = target.read_bytes()
    target.write_bytes(data[: len(data) // 2])
    return target


def run_stage(stage: str, out_dir: Path) -> subprocess.CompletedProcess:
    """One CLI stage of the tiny configuration, as its own process."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "tsicl.cli", stage, *overrides(out_dir)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )


@pytest.mark.parametrize(
    "stage, artifact",
    [
        ("build", "store.json"),
        ("train", "store.json"),
        ("eval", "checkpoint.json"),
        ("train", "ctx_train_m1.jsonl"),
        ("report", "eval_report.csv"),
    ],
)
def test_cli_truncated_artifact_exits_3(pipeline_dir, tmp_path, stage, artifact):
    target = truncated_copy(pipeline_dir, tmp_path, artifact)
    proc = run_stage(stage, tmp_path)
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert str(target) in proc.stderr


def edit_json(name: str, edit):
    def garble(out_dir: Path) -> Path:
        path = out_dir / name
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))  # json writes nan and inf as NaN and Infinity
        return path

    return garble


def set_first_value(value):
    """The checkpoint's first parameter value set to ``value``, as bytes of the checkpoint's dtype."""
    def edit(payload):
        entry = next(iter(payload["params"].values()))
        dtype = np.dtype(payload["dtype"]).newbyteorder("<")
        raw = bytearray(base64.b64decode(entry["data"]))
        raw[: dtype.itemsize] = np.array(value, dtype=dtype).tobytes()
        entry["data"] = base64.b64encode(raw).decode()

    return edit


def zeros_entry(n: int) -> dict:
    """A checkpoint entry of n float32 zeros, the dtype the tiny run trains in."""
    return {"shape": [n], "data": base64.b64encode(np.zeros(n, dtype="<f4").tobytes()).decode()}


def copy_over(source: str, target: str):
    def garble(out_dir: Path) -> Path:
        (out_dir / target).write_bytes((out_dir / source).read_bytes())
        return out_dir / target

    return garble


def nan_train_value(payload):
    """One train value of the store's first channel set to NaN."""
    next(iter(payload["channels"].values()))["splits"]["train"]["values"][0] = float("nan")


def drop_split(name: str):
    def edit(payload):
        del next(iter(payload["channels"].values()))["splits"][name]

    return edit


def untiled_splits(payload):
    """Every channel's valid split moved to origin 0, over its train split."""
    for entry in payload["channels"].values():
        entry["splits"]["valid"]["origin_offset"] = 0


def shifted_splits(payload):
    """Every split of every channel 5 steps later: they still tile a timeline, but one that starts at 5."""
    for entry in payload["channels"].values():
        for split in entry["splits"].values():
            split["origin_offset"] += 5


def repeated_csv_channel(out_dir: Path) -> Path:
    """synth.csv whose header names its first channel twice, over both channels' columns."""
    path = out_dir / "synth.csv"
    header, rest = path.read_text().split("\n", 1)
    first = header.split(",")[1]
    path.write_text(",".join(["timestamp", first, first]) + "\n" + rest)
    return path


def undecodable_csv(out_dir: Path) -> Path:
    """synth.csv behind a UTF-16 byte-order mark, which is not UTF-8."""
    path = out_dir / "synth.csv"
    path.write_bytes(b"\xff\xfe" + path.read_bytes())
    return path


@pytest.mark.parametrize(
    "stage, garble",
    [
        pytest.param("eval", edit_json("checkpoint.json", lambda payload: payload.update(meta=[])),
                     id="meta_not_an_object"),
        pytest.param("eval", edit_json("checkpoint.json", lambda payload: payload["meta"].update(model={"bogus": 1})),
                     id="meta_model_unknown_key"),
        pytest.param("eval", edit_json("checkpoint.json", set_first_value(float("nan"))), id="nan_value"),
        pytest.param("eval", edit_json("checkpoint.json", set_first_value(float("inf"))), id="infinity_value"),
        pytest.param("ingest", undecodable_csv, id="undecodable_csv"),
        pytest.param("train", copy_over("ctx_train_m1.jsonl", "ctx_train_m0.jsonl"), id="context_file_of_another_demo_count"),
        pytest.param("build", edit_json("store.json", nan_train_value), id="nan_store_value"),
        pytest.param("build", edit_json("store.json", drop_split("train")), id="store_without_a_train_split"),
        pytest.param("build", edit_json("store.json", untiled_splits), id="store_splits_not_tiling_the_timeline"),
        pytest.param("build", edit_json("store.json", shifted_splits), id="store_train_split_not_at_origin_0"),
        pytest.param("ingest", repeated_csv_channel, id="csv_header_repeating_a_channel"),
        pytest.param("eval", edit_json("store.json", drop_split("test")), id="store_without_a_test_split"),
        pytest.param("eval", edit_json("store.json", lambda payload: payload.update(channels={})),
                     id="store_without_channels"),
    ],
)
def test_cli_garbled_artifact_exits_3(pipeline_dir, tmp_path, stage, garble):
    copy_artifacts(pipeline_dir, tmp_path)
    target = garble(tmp_path)
    proc = run_stage(stage, tmp_path)
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert str(target) in proc.stderr


# (kind, position, byte): overwrite, insert before or delete the byte at position mod the file's length
BYTE_EDITS = st.lists(
    st.tuples(st.sampled_from(("replace", "insert", "delete")), st.integers(0, 2**31), st.integers(0, 255)),
    min_size=1, max_size=4,
)


def edited(data: bytes, edits) -> bytes:
    out = bytearray(data)
    for kind, position, byte in edits:
        i = position % max(len(out), 1)
        if kind == "insert" or not out:
            out.insert(i, byte)
        elif kind == "replace":
            out[i] = byte
        else:
            del out[i]
    return bytes(out)


@pytest.mark.parametrize(
    "artifact, stage",
    [("synth.csv", "ingest"), ("store.json", "build"), ("ctx_train_m1.jsonl", "train"),
     ("checkpoint.json", "eval"), ("eval_report.csv", "report")],
)
def test_random_byte_edits_exit_with_a_documented_code(pipeline_dir, tmp_path, artifact, stage):
    """Whatever a few byte edits do to the artifact, the stage that reads it returns 0, 2, 3 or 4, never raises."""
    data = (pipeline_dir / artifact).read_bytes()

    @given(BYTE_EDITS)
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    def stage_exits_cleanly(edits):
        with tempfile.TemporaryDirectory(dir=tmp_path) as name:
            out = Path(name)
            copy_artifacts(pipeline_dir, out)
            (out / artifact).write_bytes(edited(data, edits))
            assert main([stage, *overrides(out)]) in (0, 2, 3, 4)

    stage_exits_cleanly()


def moved(record: dict, k: int, store, split: str) -> None:
    """Example k of ``record`` moved to the start of ``split`` of its channel, with its width and mask."""
    dataset, channel, start, end, mask = record["examples"][k]
    c = store.channels.index(channel)
    origin = store.rows(c, split).start - int(store.bounds[c, 0])
    record["examples"][k] = [dataset, channel, origin, origin + end - start, mask]


@pytest.mark.parametrize(
    "edit, why",
    [
        (lambda record, store: moved(record, -1, store, "test"), "lies in the test split"),
        (lambda record, store: moved(record, 0, store, "valid"), "is a demo outside the train split"),
        (lambda record, store: record["examples"].__setitem__(0, record["examples"][-1]),
         "is a demo that overlaps its query"),
        (lambda record, store: record["examples"].pop(0), "example count 1, the file's first sample's 2"),
    ],
    ids=["query_in_test_split", "demo_in_valid_split", "demo_is_its_query", "one_demo_fewer"],
)
def test_replay_refuses_a_record_build_never_writes(pipeline_dir, tmp_path, capsys, edit, why):
    """One hand-edited record, the file's last, per rule of the split contract and for a sample of another
    demo count than the file's first: read_jsonl names file and line, train exits 3."""
    copy_artifacts(pipeline_dir, tmp_path)
    store = load_store(tmp_path / "store.json")
    path = tmp_path / "ctx_train_m1.jsonl"
    *lines, last = path.read_text().splitlines()
    record = json.loads(last)
    edit(record, store)
    path.write_text("\n".join([*lines, json.dumps(record, separators=(",", ":"))]) + "\n")
    line = len(lines) + 1
    with pytest.raises(DataError, match=f"malformed dataset {path}, line {line}: .*{why}"):
        read_jsonl(path, store)
    before = (tmp_path / "checkpoint.json").read_bytes()
    assert main(["train", *overrides(tmp_path)]) == 3
    assert f"{path}, line {line}: " in capsys.readouterr().err
    assert (tmp_path / "checkpoint.json").read_bytes() == before


class TestMalformedFiles:
    def test_store(self, pipeline_dir, tmp_path):
        payload = json.loads((pipeline_dir / "store.json").read_text())
        split = {"origin_offset": 0, "values": [[1.0, 2.0]]}  # a 2-d channel
        splits = {name: split for name in ("train", "valid", "test")}
        cases = {
            "truncated": (pipeline_dir / "store.json").read_text()[:100],
            "missing_key": json.dumps({k: v for k, v in payload.items() if k != "channels"}),
            "bad_shape": json.dumps({**payload, "channels": {"c": {"mean": 0.0, "std": 1.0, "splits": splits}}}),
        }
        for name, text in cases.items():
            path = tmp_path / f"{name}.json"
            path.write_text(text)
            with pytest.raises(DataError, match=f"malformed store .*{name}.json"):
                load_store(path)

    def test_checkpoint(self, pipeline_dir, tmp_path):
        payload = json.loads((pipeline_dir / "checkpoint.json").read_text())
        name, entry = next(iter(payload["params"].items()))
        data = entry["data"]

        def with_entry(edited: dict) -> str:
            return json.dumps({**payload, "params": {name: edited}})

        cases = {  # case -> (file text, what the error names)
            "truncated": ((pipeline_dir / "checkpoint.json").read_text()[:100], ""),
            "missing_key": (json.dumps({"meta": payload["meta"]}), "dtype"),
            "bad_shape": (with_entry({"shape": [3, 5], "data": zeros_entry(2)["data"]}), "reshape"),
            "not_base64": (with_entry({**entry, "data": data[:8] + "*" + data[8:]}), "base64"),
            # an entry as checkpoints were written before they held bytes
            "decimal_values": (with_entry({"shape": [2], "values": [1.0, 2.0]}), "'data'"),
        }
        for case, (text, why) in cases.items():
            path = tmp_path / f"{case}.json"
            path.write_text(text)
            with pytest.raises(DataError, match=f"malformed checkpoint .*{case}.json.*{why}"):
                ad.load_params(path)

    def test_context_jsonl(self, pipeline_dir, tmp_path):
        store = load_store(pipeline_dir / "store.json")
        header, first, *rest = (pipeline_dir / "ctx_train_m1.jsonl").read_text().splitlines()
        record = json.loads(first)
        impute = next(json.loads(line) for line in rest if json.loads(line)["task"] == "impute")
        split_end = len(store.rows(0, "train"))

        def edited(raw, query):
            """The whole file with its first record replaced by ``raw`` whose query is ``query``."""
            return "\n".join([header, json.dumps({**raw, "examples": [*raw["examples"][:-1], query]}), *rest])

        def reheaded(fields):
            """The first record under a header of ``fields``."""
            return "\n".join([json.dumps(fields), first])

        meta = json.loads(header)
        dataset, channel, start, end, positions = record["examples"][-1]
        *span, mask = impute["examples"][-1]
        past_end = [dataset, store.channels[0], split_end - 2, split_end - 2 + end - start, positions]
        cases = {  # case -> (text, line named in the error)
            "truncated": ("\n".join([header, first, rest[0][:40]]), 3),
            "short": ("\n".join([header, first]), 2),
            "header_not_an_object": ("\n".join(["[]", first]), 1),
            "header_bad_horizon": (reheaded({**meta, "horizon": None}), 1),
            "header_without_skipped_windows": (reheaded({k: v for k, v in meta.items() if k != "skipped_windows"}), 1),
            "header_skipped_windows_not_a_count": (reheaded({**meta, "skipped_windows": "many"}), 1),
            "header_negative_skipped_windows": (reheaded({**meta, "skipped_windows": -3}), 1),
            "missing_key": ("\n".join([header, json.dumps({k: v for k, v in record.items() if k != "examples"})]), 2),
            "past_split_end": (edited(record, past_end), 2),
            "unknown_channel": (edited(record, [dataset, "no_such_channel", start, end, positions]), 2),
            "duplicate_mask": (edited(impute, [*span, [mask[0], *mask[:-1]]]), 2),
            "mask_out_of_range": (edited(impute, [*span, [*mask[:-1], 99]]), 2),
        }
        for case, (text, line) in cases.items():
            path = tmp_path / f"{case}.jsonl"
            path.write_text(text + "\n")
            with pytest.raises(DataError, match=f"malformed dataset .*{case}.jsonl, line {line}:"):
                read_jsonl(path, store)

    def test_eval_report(self, pipeline_dir, tmp_path):
        header, first, *_ = (pipeline_dir / "eval_report.csv").read_text().splitlines()
        cases = {
            "cut_row": "\n".join([header, first[:30]]),
            "missing_field": "\n".join([header, first.rsplit(",", 1)[0]]) + "\n",
            "bad_number": "\n".join([header, first.rsplit(",", 1)[0] + ",zero"]) + "\n",
        }
        for case, text in cases.items():
            path = tmp_path / f"{case}.csv"
            path.write_text(text)
            with pytest.raises(DataError, match=f"malformed report .*{case}.csv, line 2"):
                evalharness.EvalReport.read_csv(path)


def test_train_on_context_built_from_another_store_exits_3(pipeline_dir, tmp_path, capsys):
    """A store ingested with another seed, or synthesised shorter so that old spans leave its splits."""
    cases = {
        "reseeded": [("ingest", "seed=1")],
        "shorter": [("synth", "synth_length=200"), ("ingest", "synth_length=200")],
    }
    for case, stages in cases.items():
        out = tmp_path / case
        out.mkdir()
        copy_artifacts(pipeline_dir, out)
        for stage, setting in stages:
            assert main([stage, *overrides(out), "--set", setting]) == 0
        capsys.readouterr()
        assert main(["train", *overrides(out)]) == 3, case
        err = capsys.readouterr().err
        assert str(out / "ctx_train_m0.jsonl") in err and f"not built from {out / 'store.json'}" in err, err


@pytest.mark.parametrize(
    "reingest, train_settings",
    [(["seed=1"], []), ([], ["tasks=forecast"])],
    ids=["store", "build_key"],
)
def test_a_mismatched_context_header_replays_nothing(pipeline_dir, tmp_path, monkeypatch, reingest, train_settings):
    copy_artifacts(pipeline_dir, tmp_path)
    for setting in reingest:
        assert main(["ingest", *overrides(tmp_path), "--set", setting]) == 0
    calls = []
    monkeypatch.setattr(cli, "read_jsonl", lambda *args: calls.append(args))
    assert main(["train", *overrides(tmp_path), *(arg for item in train_settings for arg in ("--set", item))]) == 3
    assert calls == []


@pytest.mark.parametrize(
    "changed, key",
    [(["horizon=8"], "horizon"), (["tasks=forecast"], "tasks")],
    ids=["window", "tasks"],
)
def test_train_on_context_built_with_other_settings_exits_3(pipeline_dir, tmp_path, capsys, changed, key):
    copy_artifacts(pipeline_dir, tmp_path)
    before = (tmp_path / "checkpoint.json").read_bytes()
    assert main(["train", *overrides(tmp_path), *(arg for item in changed for arg in ("--set", item))]) == 3
    err = capsys.readouterr().err
    assert f"{tmp_path / 'ctx_train_m0.jsonl'} was not built with {key} = " in err
    assert (tmp_path / "checkpoint.json").read_bytes() == before


def test_eval_of_a_checkpoint_pretrained_on_other_tasks_exits_2(pipeline_dir, capsys):
    """The held-out task must be unseen by the checkpoint, not only by the configured tasks."""
    before = sorted(pipeline_dir.iterdir())
    args = ["--set", "tasks=forecast,backtrace", "--set", "eval_task=impute"]
    assert main(["eval", *overrides(pipeline_dir), *args]) == 2
    err = capsys.readouterr().err
    assert "['forecast', 'impute']" in err and "['forecast', 'backtrace']" in err
    assert sorted(pipeline_dir.iterdir()) == before


def test_supervised_demo_outputs_on_the_encoder_exits_2(pipeline_dir, tmp_path, capsys):
    copy_artifacts(pipeline_dir, tmp_path)
    before = (tmp_path / "checkpoint.json").read_bytes()
    args = ["--set", "variant=encoder_masked", "--set", "supervise_demo_outputs=true"]
    assert main(["train", *overrides(tmp_path), *args]) == 2
    assert "supervise_demo_outputs is refused on encoder_masked" in capsys.readouterr().err
    assert (tmp_path / "checkpoint.json").read_bytes() == before


@pytest.mark.parametrize(
    "stage, setting, message",
    [
        pytest.param("eval", "eval_task=bogus", "unknown task name", id="bogus_eval_task"),
        pytest.param("build", "tasks=", "task set is empty", id="empty_task_list"),
        pytest.param("eval", "eval_stride=-1", "eval_stride must be >= 1, got -1", id="negative_eval_stride"),
        pytest.param("build", "demo_counts=-1", "demo_counts must be one or more counts >= 0, got [-1]",
                     id="negative_demo_count"),
        pytest.param("build", "demo_counts=", "demo_counts must be one or more counts >= 0, got []",
                     id="no_demo_counts"),
        pytest.param("build", "demo_counts=1,1", "demo_counts must not repeat a count, got [1, 1]",
                     id="duplicate_demo_counts"),
        pytest.param("build", "stride=-1", "stride must be >= 1, got -1", id="negative_stride"),
        pytest.param("train", "n_heads=0", "n_heads must be >= 1", id="zero_heads"),
        pytest.param("synth", "seed=-1", "seed must be >= 0, got -1", id="negative_seed"),
    ],
)
def test_unknown_eval_task_exits_2(pipeline_dir, capsys, stage, setting, message):
    def contents() -> dict[str, bytes]:  # the session's shared run: a stage that rewrote a file would break later tests
        return {f.name: f.read_bytes() for f in pipeline_dir.iterdir()}

    before = contents()
    assert main([stage, *overrides(pipeline_dir), "--set", setting]) == 2
    assert message in capsys.readouterr().err
    assert contents() == before


@pytest.mark.parametrize("stage, message", [("train", "no such store"), ("eval", "missing checkpoint")])
def test_a_failing_stage_leaves_no_out_dir(tmp_path, capsys, stage, message):
    out = tmp_path / "fresh" / "a" / "b"
    assert main([stage, *overrides(out)]) == 3
    assert message in capsys.readouterr().err
    assert not (tmp_path / "fresh").exists()


@pytest.mark.parametrize(
    "stage, setting, message",
    [
        ("train", "n_heads=0", "n_heads must be >= 1"),
        ("train", "batch_size=0", "batch_size, max_epochs and patience must be >= 1"),
        ("eval", "eval_task=bogus", "unknown task name"),
        ("build", "lookback=24", "unknown config keys: ['lookback']"),  # lookback is 2 * horizon
        ("build", "valid_stride=4", "unknown config keys: ['valid_stride']"),  # valid queries use stride
        ("train", "max_tokens=4096", "unknown config keys: ['max_tokens']"),  # model.MAX_TOKENS
        ("synth", "synth_noise_sigma=0.1", "unknown config keys: ['synth_noise_sigma']"),  # synthetic.NOISE_SIGMA
        # a dataset_name field of eval_report.csv that report would split or cut
        ("synth", "dataset_name=syn,th", "dataset_name must hold no comma or line break, got 'syn,th'"),
        ("report", "dataset_name=syn\nth", "dataset_name must hold no comma or line break, got 'syn\\nth'"),
        ("ingest", "channels=s000,s001,s000", "channels must not repeat a name, got ['s000', 's001', 's000']"),
    ],
    ids=["zero_heads", "zero_batch_size", "bogus_eval_task", "removed_lookback", "removed_valid_stride",
         "removed_max_tokens", "removed_synth_noise_sigma", "comma_in_dataset_name", "line_break_in_dataset_name",
         "repeated_channel"],
)
def test_a_configuration_error_exits_2_before_reading_a_file(
    pipeline_dir, tmp_path, monkeypatch, capsys, stage, setting, message
):
    fresh = tmp_path / "fresh" / "a"
    assert main([stage, *overrides(fresh), "--set", setting]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "fresh").exists()

    copy_artifacts(pipeline_dir, tmp_path)
    reads = []
    for module, name in [(cli, "load_store"), (cli, "read_header"), (cli, "read_jsonl"), (ad, "load_params")]:
        monkeypatch.setattr(module, name, lambda *args, name=name: reads.append(name))
    assert main([stage, *overrides(tmp_path), "--set", setting]) == 2
    assert message in capsys.readouterr().err
    assert reads == []


def test_train_without_a_finite_valid_loss_is_numerical_error(monkeypatch):
    store = build_store(generate(SynthSpec(count=1, length=240, seed=0)))
    data = build_context_dataset(store, "train", [TaskKind.FORECAST], WINDOW, 0, seed=0)
    monkeypatch.setattr(trainer, "evaluate_loss", lambda *args, **kwargs: float("nan"))
    config = trainer.TrainConfig(batch_size=64, max_epochs=2, patience=2)
    with pytest.raises(NumericalError, match="no finite validation loss"):
        trainer.train(init_params(TINY_MODEL), [data], [data], TINY_MODEL, config)


def test_run_unseen_eval_scores_every_probe_in_order():
    protocol = evalharness.EvalProtocol(TaskKind.BACKTRACE, (TaskKind.FORECAST, TaskKind.IMPUTE), WINDOW, 1)
    store = build_store(generate(SynthSpec(count=1, length=240)))
    params = init_params(TINY_MODEL)
    report = evalharness.run_unseen_eval(protocol, TINY_MODEL, params, store, probes=evalharness.PROBES)
    assert [r.method for r in report.rows] == list(evalharness.PROBES)
    assert all(np.isfinite([r.mse, r.mae]).all() for r in report.rows)


@pytest.mark.parametrize(
    "case, edit",
    [
        ("missing", lambda params: params.pop("head.b")),
        ("misshapen", lambda params: params.update({"head.b": zeros_entry(5)})),
        # a checkpoint from before the key projection lost its bias
        ("key_bias", lambda params: params.update({"l0.attn.bk": zeros_entry(8)})),
    ],
)
def test_eval_on_a_checkpoint_that_does_not_fit_the_model_exits_3(pipeline_dir, tmp_path, capsys, case, edit):
    copy_artifacts(pipeline_dir, tmp_path)
    ckpt = tmp_path / "checkpoint.json"
    payload = json.loads(ckpt.read_text())
    before = dict(payload["params"])
    edit(payload["params"])
    ckpt.write_text(json.dumps(payload))
    (edited,) = [name for name in before.keys() | payload["params"].keys()
                 if before.get(name) != payload["params"].get(name)]
    assert main(["eval", *overrides(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert str(ckpt) in err and f"parameter {edited}" in err
