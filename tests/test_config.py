"""The run configuration: one schema, defaults from the config dataclasses, and the keys the benchmark sets."""

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
    for key, default in workloads.DEFAULTS.items():
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
