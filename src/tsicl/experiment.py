"""End-to-end unseen-task experiment on synthetic data.

One run: generate a synthetic corpus, pre-train a backbone on context data for
a subset of tasks, then probe the held-out task four ways on the same frozen
weights: with correct demonstrations, with none, with wrong-task
demonstrations, and through the reprogramming baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .context import ContextDataset, build_context_dataset
from .errors import ConfigError, DataError
from .evalharness import (
    baseline_path,
    context_path,
    enumerate_queries,
    mse,
    params_checksum,
    select_eval_demos,
)
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
    checksum_unchanged: bool
    record: TrainRecord

    @property
    def relative_improvement(self) -> float:
        return (self.mse_baseline - self.mse_context) / self.mse_baseline


@dataclass
class ExperimentResult:
    outcomes: list[SeedOutcome] = field(default_factory=list)

    @property
    def mean_relative_improvement(self) -> float:
        return float(np.mean([o.relative_improvement for o in self.outcomes]))

    @property
    def context_win_count(self) -> int:
        return sum(1 for o in self.outcomes if o.mse_context < o.mse_no_context)

    @property
    def mean_mse_context(self) -> float:
        return float(np.mean([o.mse_context for o in self.outcomes]))

    @property
    def mean_mse_wrong_task(self) -> float:
        return float(np.mean([o.mse_wrong_task for o in self.outcomes]))


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
    train_series = [store.series(ch, "train") for ch in store.channels]
    valid_series = [store.series(ch, "valid") for ch in store.channels]
    train_parts, valid_parts = [], []
    for k, m in enumerate(cfg.train_demo_counts):
        train_parts.append(
            build_context_dataset(
                train_series, cfg.pretrain_tasks, cfg.window, m,
                stride=cfg.train_stride, seed=seed * 1000 + 2 * k,
            )
        )
        valid_parts.append(
            build_context_dataset(
                valid_series, cfg.pretrain_tasks, cfg.window, m,
                stride=cfg.valid_stride or cfg.train_stride, seed=seed * 1000 + 2 * k + 1,
                demo_pool=train_series,
            )
        )
    return merge_datasets(train_parts), merge_datasets(valid_parts)


def pretrain(cfg: UnseenTaskExperiment, store: SplitStore, seed: int):
    train_ds, valid_ds = build_training_data(store, cfg, seed)
    params = init_params(cfg.model, seed=seed)
    params, record = train(params, train_ds, valid_ds, cfg.model, replace(cfg.train, seed=seed))
    return params, record


def evaluate_paths(
    cfg: UnseenTaskExperiment, store: SplitStore, params, seed: int
) -> dict[str, float]:
    """Pooled MSE of the four probe paths over every channel's test windows."""
    stride = cfg.eval_stride or cfg.window.horizon
    wrong_task = cfg.pretrain_tasks[0]
    sums = {"context": [], "no_context": [], "wrong_task": [], "baseline": []}
    truth_ref = []
    for ch_idx, ch in enumerate(store.channels):
        train_s = store.series(ch, "train")
        test_s = store.series(ch, "test")
        query_rng = np.random.default_rng(np.random.SeedSequence((seed, 2, ch_idx)))
        queries = enumerate_queries(test_s, cfg.eval_task, cfg.window, stride, query_rng)
        demo_rng = np.random.default_rng(np.random.SeedSequence((seed, 3, ch_idx)))
        demos = select_eval_demos(train_s, cfg.eval_task, cfg.window, cfg.eval_demo_count, demo_rng)
        wrong_rng = np.random.default_rng(np.random.SeedSequence((seed, 4, ch_idx)))
        wrong_demos = select_eval_demos(train_s, wrong_task, cfg.window, cfg.eval_demo_count, wrong_rng)

        p, t = context_path(queries, demos, params, cfg.model, cfg.window.horizon)
        sums["context"].append(p)
        truth_ref.append(t)
        p, _ = context_path(queries, [], params, cfg.model, cfg.window.horizon)
        sums["no_context"].append(p)
        p, _ = context_path(queries, wrong_demos, params, cfg.model, cfg.window.horizon)
        sums["wrong_task"].append(p)
        p, t_b = baseline_path(queries, params, cfg.model)
        if not np.array_equal(t_b, t):
            raise DataError(f"channel {ch}: baseline truths differ from the context path's truths")
        sums["baseline"].append(p)
    truth = np.concatenate(truth_ref)
    return {name: mse(np.concatenate(chunks), truth) for name, chunks in sums.items()}


def run_seed(cfg: UnseenTaskExperiment, seed: int) -> SeedOutcome:
    store = store_from_channels(generate(replace(cfg.synth, seed=seed)), cfg.synth.name)
    params, record = pretrain(cfg, store, seed)
    before = params_checksum(params)
    scores = evaluate_paths(cfg, store, params, seed)
    unchanged = params_checksum(params) == before
    return SeedOutcome(
        seed=seed,
        mse_context=scores["context"],
        mse_no_context=scores["no_context"],
        mse_wrong_task=scores["wrong_task"],
        mse_baseline=scores["baseline"],
        checksum_unchanged=unchanged,
        record=record,
    )


def run_experiment(cfg: UnseenTaskExperiment, seeds: list[int]) -> ExperimentResult:
    result = ExperimentResult()
    for seed in seeds:
        result.outcomes.append(run_seed(cfg, seed))
    return result
