"""The pipeline as functions of one run configuration.

A run configuration is the flat dict that ``cli.resolve_config`` returns: every
key of ``cli.SCHEMA``, resolved. The readers here turn it into the library's
objects (``window``, ``task_kinds``, ``model_config``, ``train_config``,
``synth_spec``, ``eval_protocol``) and ``build_datasets`` builds its context
data, so the CLI's stages and ``run_seed`` read a configuration the same way.
The stages hand their results on through files; ``run_seed`` runs synth ->
store -> build -> train -> eval in memory and scores the held-out task four
ways on the same frozen weights: with correct demonstrations (``ictp``), with
none, with wrong-task demonstrations, and through the reprogramming baseline.
The probes run in ``evalharness.score_probes``, the one eval loop.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from .context import build_train_valid
from .errors import ConfigError
from .evalharness import PROBES, EvalProtocol, EvalReport, run_unseen_eval
from .model import ModelConfig, init_params
from .series import RawDataset, SplitStore, build_store
from .synthetic import SynthSpec, generate
from .tasks import TaskKind, WindowSpec
from .trainer import TrainConfig, TrainRecord, train


def window(cfg: dict) -> WindowSpec:
    return WindowSpec(cfg["horizon"])


def task_kinds(names: list[str]) -> list[TaskKind]:
    if not names:
        raise ConfigError("task set is empty")
    try:
        return [TaskKind(n) for n in names]
    except ValueError as exc:
        raise ConfigError(f"unknown task name: {exc}") from None


def model_config(cfg: dict) -> ModelConfig:
    return ModelConfig(**{f.name: cfg[f.name] for f in fields(ModelConfig)})


def train_config(cfg: dict) -> TrainConfig:
    return TrainConfig(**{f.name: cfg[f.name] for f in fields(TrainConfig)})


def synth_spec(cfg: dict) -> SynthSpec:
    return SynthSpec(
        family=cfg["synth_family"],
        count=cfg["synth_count"],
        length=cfg["synth_length"],
        seed=cfg["seed"],
        name=cfg["dataset_name"],
        min_window=window(cfg).lookback + cfg["horizon"],
    )


def eval_protocol(cfg: dict) -> EvalProtocol:
    return EvalProtocol(
        eval_task=task_kinds([cfg["eval_task"]])[0],
        pretrain_tasks=tuple(task_kinds(cfg["tasks"])),
        window=window(cfg),
        demo_count=cfg["demo_count"],
    )


def build_datasets(store: SplitStore, cfg: dict):
    """``build_train_valid`` with the configuration's tasks, window, demo counts, seed and options."""
    return build_train_valid(
        store,
        task_kinds(cfg["tasks"]),
        window(cfg),
        cfg["demo_counts"],
        cfg["seed"],
        stride=cfg["stride"] or None,
        cross_channel_demos=cfg["cross_channel_demos"],
    )


def store_from_channels(channels, name: str) -> SplitStore:
    """Stack generated channels into a dataset and run the ingest transform."""
    values = np.stack([c.values for c in channels], axis=1)
    raw = RawDataset(
        name=name,
        timestamps=tuple(range(values.shape[0])),
        channels=tuple(c.channel for c in channels),
        values=values,
    )
    return build_store(raw)


def run_seed(cfg: dict) -> tuple[EvalReport, TrainRecord]:
    """One run of the configuration in memory: the report holds one row per probe, in ``PROBES`` order."""
    store = store_from_channels(generate(synth_spec(cfg)), cfg["dataset_name"])
    _, train_parts, valid_parts = zip(*build_datasets(store, cfg))
    config = model_config(cfg)
    params, record = train(init_params(config, seed=cfg["seed"]), train_parts, valid_parts, config, train_config(cfg))
    stride = cfg["eval_stride"] or None
    report = run_unseen_eval(eval_protocol(cfg), config, params, store, cfg["seed"], stride, probes=PROBES)
    return report, record
