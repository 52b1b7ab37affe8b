"""End-to-end unseen-task experiment on synthetic data.

One run: generate a synthetic corpus, pre-train a backbone on context data for
a subset of tasks, then probe the held-out task four ways on the same frozen
weights: with correct demonstrations, with none, with wrong-task
demonstrations, and through the reprogramming baseline. The probes run in
``evalharness.score_probes``, the same loop the CLI's ``eval`` uses.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .context import ContextDataset, build_train_valid
from .errors import ConfigError
from .evalharness import PROBES, EvalProtocol, mse, score_probes
from .model import ModelConfig, init_params
from .series import RawDataset, SplitStore, build_store
from .synthetic import SynthSpec, generate
from .tasks import TaskKind, WindowSpec
from .trainer import TrainConfig, TrainRecord, train


@dataclass(frozen=True)
class UnseenTaskExperiment:
    synth: SynthSpec = SynthSpec()
    window: WindowSpec = WindowSpec(24, 12)
    pretrain_tasks: tuple[TaskKind, ...] = (TaskKind.FORECAST, TaskKind.IMPUTE)
    eval_task: TaskKind = TaskKind.BACKTRACE
    train_demo_counts: tuple[int, ...] = (0, 2, 4)
    eval_demo_count: int = 4
    train_stride: int | None = None
    valid_stride: int | None = None
    eval_stride: int | None = None
    model: ModelConfig = ModelConfig()
    train: TrainConfig = TrainConfig()

    def __post_init__(self) -> None:
        if self.eval_task in self.pretrain_tasks:
            raise ConfigError("evaluation task must stay unseen during pre-training")


@dataclass
class SeedOutcome:
    seed: int
    mse_context: float  # unseen task with eval_demo_count demonstrations
    mse_no_context: float  # same queries, zero demonstrations
    mse_wrong_task: float  # demonstrations of a pre-training task instead
    mse_baseline: float  # reprogramming adapter on bare queries
    record: TrainRecord


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


def merge_datasets(datasets: list[ContextDataset]) -> ContextDataset:
    """Pool samples built with different demo counts into one training set."""
    if not datasets:
        raise ConfigError("nothing to merge")
    window = datasets[0].window
    for d in datasets[1:]:
        if d.window != window:
            raise ConfigError("cannot merge datasets with different window specs")
    return ContextDataset(
        samples=[s for d in datasets for s in d.samples],
        window=window,
        demo_count=max(d.demo_count for d in datasets),
        tasks=datasets[0].tasks,
        seed=datasets[0].seed,
        stride=datasets[0].stride,
        skipped_windows=sum(d.skipped_windows for d in datasets),
        extra={"merged_demo_counts": [d.demo_count for d in datasets]},
    )


def build_training_data(
    store: SplitStore, cfg: UnseenTaskExperiment, seed: int
) -> tuple[ContextDataset, ContextDataset]:
    parts = list(build_train_valid(
        store, cfg.pretrain_tasks, cfg.window, cfg.train_demo_counts, seed,
        stride=cfg.train_stride, valid_stride=cfg.valid_stride,
    ))
    return merge_datasets([t for _, t, _ in parts]), merge_datasets([v for _, _, v in parts])


def pretrain(cfg: UnseenTaskExperiment, store: SplitStore, seed: int):
    train_ds, valid_ds = build_training_data(store, cfg, seed)
    params = init_params(cfg.model, seed=seed)
    params, record = train(params, train_ds, valid_ds, cfg.model, replace(cfg.train, seed=seed))
    return params, record


def evaluate_paths(
    cfg: UnseenTaskExperiment, store: SplitStore, params, seed: int
) -> dict[str, float]:
    """Pooled MSE of the four probe paths over every channel's test windows."""
    protocol = EvalProtocol(cfg.eval_task, cfg.pretrain_tasks, cfg.window, cfg.eval_demo_count)
    preds, truth = score_probes(protocol, PROBES, store, params, cfg.model, seed, cfg.eval_stride)
    return {("context" if probe == "ictp" else probe): mse(p, truth) for probe, p in preds.items()}


def run_seed(cfg: UnseenTaskExperiment, seed: int) -> SeedOutcome:
    store = store_from_channels(generate(replace(cfg.synth, seed=seed)), cfg.synth.name)
    params, record = pretrain(cfg, store, seed)
    scores = evaluate_paths(cfg, store, params, seed)
    return SeedOutcome(
        seed=seed,
        mse_context=scores["context"],
        mse_no_context=scores["no_context"],
        mse_wrong_task=scores["wrong_task"],
        mse_baseline=scores["baseline"],
        record=record,
    )
