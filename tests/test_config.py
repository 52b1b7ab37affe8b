"""The run configuration: one schema, defaults from the config dataclasses, the keys the benchmark sets, and
the config file."""

from dataclasses import dataclass, field, fields, make_dataclass

import pytest

from conftest import benchmark_module
from tsicl import cli, experiment
from tsicl.model import ModelConfig
from tsicl.trainer import TrainConfig


def test_every_key_the_benchmark_sets_is_a_schema_key_with_its_default(monkeypatch):
    workloads = benchmark_module("workloads", monkeypatch)
    for w in workloads.WORKLOADS.values():
        assert set(w.config(0, "out")) <= set(cli.SCHEMA), w.name
    defaults = dict(workloads.DEFAULTS)
    assert defaults.pop("lookback") == 2 * cli.SCHEMA["horizon"][1]  # the window's lookback is 2 * horizon
    for key, default in defaults.items():
        assert cli.SCHEMA[key][1] == default, key


@pytest.mark.parametrize("cls", [ModelConfig, TrainConfig])
def test_every_config_field_is_a_schema_key_with_its_default(cls):
    for f in fields(cls):
        assert cli.SCHEMA[f.name] == (f.type, f.default), f.name


def test_the_default_configuration_reads_as_the_dataclass_defaults():
    cfg = cli.resolve_config(None, [])
    assert experiment.model_config(cfg) == ModelConfig()
    assert experiment.train_config(cfg) == TrainConfig()


@pytest.mark.parametrize(
    "annotated",
    [
        pytest.param(make_dataclass("Odd", [("window", "int | None", field(default=None))]), id="string"),
        pytest.param(dataclass(type("Odd", (), {"__annotations__": {"window": int | None}, "window": None})),
                     id="type"),
    ],
)
def test_the_schema_refuses_an_annotation_it_cannot_parse(annotated):
    with pytest.raises(TypeError, match="Odd.window: cannot parse"):
        cli._field_entries(annotated)


FLOAT_KEYS = sorted(key for key, (kind, _) in cli.SCHEMA.items() if kind == "float")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_a_float_key_refuses_a_non_finite_value(key, value, tmp_path, capsys):
    """A nan bound compares False everywhere: ``clip_norm=nan`` would train with clipping silently off."""
    out = tmp_path / "out"
    assert cli.main(["train", "--set", f"out_dir={out}", "--set", f"{key}={value}"]) == 2
    assert f"cannot parse {key} = '{value}' as float: not finite" in capsys.readouterr().err
    assert not out.exists()


def test_a_flag_overrides_the_config_file_which_overrides_the_default(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# a comment\n\n  horizon = 8  \nd_model=16\n   # indented comment\n")
    cfg = cli.resolve_config(str(path), ["d_model=32"])
    assert (cfg["horizon"], cfg["d_model"], cfg["n_layers"]) == (8, 32, cli.SCHEMA["n_layers"][1])


@pytest.mark.parametrize(
    "case, message",
    [
        ("missing", "no such config file: {path}"),
        ("no_equals", "{path}:2: expected 'key = value', got 'horizon 8'"),
        ("undecodable", "cannot read config file {path}: 'utf-8' codec can't decode"),
        ("directory", "cannot read config file {path}: "),
    ],
)
def test_an_unreadable_config_file_exits_2(tmp_path, capsys, case, message):
    path = tmp_path / case
    if case == "no_equals":
        path.write_text("seed = 1\nhorizon 8\n")
    elif case == "undecodable":
        path.write_bytes(b"seed = \xff\xfe\n")
    elif case == "directory":
        path.mkdir()
    out = tmp_path / "out"
    assert cli.main(["synth", "--config", str(path), "--set", f"out_dir={out}"]) == 2
    assert message.format(path=path) in capsys.readouterr().err
    assert not out.exists()
