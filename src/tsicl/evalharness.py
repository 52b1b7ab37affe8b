"""Unseen-task evaluation: frozen weights, context path vs reprogramming baseline.

The protocol mirrors the pre-training split: a model trained on some task set
is evaluated on a task it never saw. The context path prepends demonstrations
of the unseen task (train-split data only); the baseline path rewrites each
query with the matching non-fine-tuning adapter. ``score_probes`` is the only
eval loop, called by the CLI (``run_unseen_eval``) and by the ablations
(``experiment.evaluate_paths``); ``batched_predict`` is the only readout, also
behind the trainer's validation loss. ``score_probes`` checksums the
parameters around the loop to enforce that evaluation never updates them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .adapters import AdaptedQuery, adapter_for, apply_adapter
from .context import build_stream
from .errors import ConfigError, DataError
from .model import (
    DECODER_CAUSAL,
    ModelConfig,
    answer_region,
    forward_patch_predictions,
    horizon_patch_count,
    readout_rows,
)
from .series import SplitStore
from .tasks import TaskExample, TaskKind, WindowSpec, generate_example, valid_start_range


def _errors(pred: np.ndarray, truth: np.ndarray, metric: str) -> np.ndarray:
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise DataError(f"{metric} length mismatch: {pred.shape} vs {truth.shape}")
    if pred.size == 0:
        raise DataError(f"{metric} of empty arrays")
    return pred - truth


def mse(pred: np.ndarray, truth: np.ndarray) -> float:
    return float(np.mean(_errors(pred, truth, "mse") ** 2))


def mae(pred: np.ndarray, truth: np.ndarray) -> float:
    return float(np.mean(np.abs(_errors(pred, truth, "mae"))))


PROBES = ("ictp", "no_context", "wrong_task", "baseline")


def params_checksum(params: dict[str, ad.Parameter]) -> str:
    """SHA-256 over parameter names and raw float64 bytes (order-independent)."""
    digest = hashlib.sha256()
    for name in sorted(params):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(params[name].data).tobytes())
    return digest.hexdigest()


@dataclass(frozen=True)
class EvalProtocol:
    eval_task: TaskKind
    pretrain_tasks: tuple[TaskKind, ...]
    window: WindowSpec
    demo_count: int = 4

    def __post_init__(self) -> None:
        if self.eval_task in self.pretrain_tasks:
            raise ConfigError(f"evaluation task {self.eval_task} was seen in pre-training")
        if self.demo_count < 0:
            raise ConfigError("demo_count must be >= 0")


@dataclass(frozen=True)
class EvalRow:
    backbone: str
    task: str
    dataset: str
    horizon: int
    method: str  # "baseline" or "ictp"
    mse: float
    mae: float
    seed: int


@dataclass
class EvalReport:
    rows: list[EvalRow] = field(default_factory=list)

    def write_csv(self, path: str | Path) -> None:
        lines = ["backbone,task,dataset,horizon,method,mse,mae,seed"]
        for r in self.rows:
            lines.append(
                f"{r.backbone},{r.task},{r.dataset},{r.horizon},{r.method},{r.mse!r},{r.mae!r},{r.seed}"
            )
        try:
            ratio = improvement_ratio(self)
            lines.append(f"# improvement_ratio,{ratio!r}")
        except DataError:
            pass
        Path(path).write_text("\n".join(lines) + "\n")

    @staticmethod
    def read_csv(path: str | Path) -> "EvalReport":
        report = EvalReport()
        lineno = 0
        # a bad field count or number, or undecodable bytes, are ValueErrors
        try:
            text = Path(path).read_text()
            lines = text.splitlines()
            lineno = len(lines)
            if not text.endswith("\n"):
                raise ValueError("no trailing newline: the file was cut short")
            for lineno, line in enumerate(lines[1:], start=2):
                if not line or line.startswith("#"):
                    continue
                bk, task, ds, hz, method, m_, a_, seed = line.split(",")
                report.rows.append(EvalRow(bk, task, ds, int(hz), method, float(m_), float(a_), int(seed)))
        except ValueError as exc:
            raise DataError(f"malformed report {path}, line {lineno}: {exc}") from None
        return report


def improvement_ratio(report: EvalReport) -> float:
    """Mean per-cell relative improvement (baseline - ictp) / baseline.

    A cell is one (backbone, task, dataset, horizon, seed, metric) tuple and
    must carry both methods. Negative improvements are averaged in as-is.
    """
    by_cell: dict[tuple, dict[str, EvalRow]] = {}
    for r in report.rows:
        by_cell.setdefault((r.backbone, r.task, r.dataset, r.horizon, r.seed), {})[r.method] = r
    ratios = []
    for key, methods in by_cell.items():
        if "baseline" not in methods or "ictp" not in methods:
            raise DataError(f"cell {key} is missing a method; cannot pair")
        for metric in ("mse", "mae"):
            b = getattr(methods["baseline"], metric)
            i = getattr(methods["ictp"], metric)
            if b == 0:
                raise DataError(f"baseline {metric} is 0 in cell {key}; ratio undefined")
            ratios.append((b - i) / b)
    if not ratios:
        raise DataError("empty report")
    return float(np.mean(ratios))


def demo_span_width(task: TaskKind, w: WindowSpec) -> int:
    return w.lookback if task is TaskKind.IMPUTE else w.lookback + w.horizon


def select_eval_demos(
    train_s, task: TaskKind, w: WindowSpec, m: int, rng: np.random.Generator
) -> list[TaskExample]:
    """The m most recent pairwise-disjoint train windows, oldest first.

    Deterministic by construction; rng is only consumed by imputation masks.
    """
    if m == 0:
        return []
    lo, hi = valid_start_range(task, len(train_s), w)
    width = demo_span_width(task, w)
    starts = [hi - i * width for i in range(m)]
    if not starts or starts[-1] < lo:
        available = max(0, (hi - lo) // width + 1) if hi >= lo else 0
        raise DataError(f"train split admits only {available} disjoint demo windows, need {m}")
    return [generate_example(task, train_s, t, w, rng) for t in reversed(starts)]


def batched_predict(
    streams: list[np.ndarray],
    horizons: list[int],
    params: dict[str, ad.Parameter],
    config: ModelConfig,
    batch_size: int = 64,
) -> list[np.ndarray]:
    """Evaluation-mode predictions for streams that already end in answer regions.

    Streams are grouped by (length, horizon) so each batch is rectangular;
    outputs come back in input order.
    """
    groups: dict[tuple[int, int], list[int]] = {}
    for i, (s, h) in enumerate(zip(streams, horizons)):
        groups.setdefault((len(s), h), []).append(i)
    out: list[np.ndarray | None] = [None] * len(streams)
    for (_, h), idxs in sorted(groups.items()):
        hp = horizon_patch_count(h, config)
        for lo in range(0, len(idxs), batch_size):
            chunk = idxs[lo : lo + batch_size]
            batch = np.stack([streams[i] for i in chunk])
            preds = forward_patch_predictions(batch, params, config)
            r0, r1 = readout_rows(config, preds.shape[1], hp)
            values = preds.data[:, r0:r1, :].reshape(len(chunk), h)
            for row, i in enumerate(chunk):
                out[i] = values[row]
    return out


def _fit_adapted(adapted: AdaptedQuery, config: ModelConfig) -> tuple[np.ndarray, int]:
    """Make an adapted query's geometry patch-divisible for the model.

    The answer region is rounded up to whole patches; surplus history is
    trimmed from the oldest end. Extra predicted steps are simply unread.
    """
    p = config.patch_size
    if adapted.includes_region:
        if len(adapted.tokens) % p != 0:
            raise DataError(f"adapted stream length {len(adapted.tokens)} not patch-divisible")
        return adapted.tokens, adapted.predict_steps
    model_h = -(-adapted.predict_steps // p) * p
    trim = (len(adapted.tokens) + model_h) % p
    history = adapted.tokens[trim:]
    if len(history) < p:
        raise DataError("adapted query has no usable context after patch alignment")
    return np.concatenate([history, answer_region(model_h)]), model_h


def context_path(
    queries: list[TaskExample],
    demos: list[TaskExample],
    params: dict[str, ad.Parameter],
    config: ModelConfig,
    horizon: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Predictions and truths, stacked (N, h), for the demonstration path."""
    prefix, region = build_stream(demos), answer_region(horizon)
    streams = [np.concatenate([prefix, q.input, region]) for q in queries]
    preds = batched_predict(streams, [horizon] * len(streams), params, config)
    return np.stack(preds), np.stack([q.target for q in queries])


def baseline_path(
    queries: list[TaskExample],
    params: dict[str, ad.Parameter],
    config: ModelConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Predictions and truths for the matching reprogramming adapter."""
    kind = adapter_for(config.variant == DECODER_CAUSAL, queries[0].task)
    adapted = [apply_adapter(kind, q) for q in queries]
    fitted = [_fit_adapted(a, config) for a in adapted]
    raw = batched_predict([f[0] for f in fitted], [f[1] for f in fitted], params, config)
    preds, truths = zip(*(a.score_prediction(r) for a, r in zip(adapted, raw)))
    return np.stack(preds), np.stack(truths)


def enumerate_queries(
    test_s, task: TaskKind, w: WindowSpec, stride: int, rng: np.random.Generator
) -> list[TaskExample]:
    lo, hi = valid_start_range(task, len(test_s), w)
    if hi < lo:
        raise DataError(f"test split of length {len(test_s)} admits no {task} window")
    return [generate_example(task, test_s, t, w, rng) for t in range(lo, hi + 1, stride)]


def _rng(seed: int, stream: int, ch_idx: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, stream, ch_idx)))


def _probe_demos(probe: str, protocol: EvalProtocol, train_s, seed: int, ch_idx: int) -> list[TaskExample]:
    if probe == "no_context":
        return []
    task, stream = {"ictp": (protocol.eval_task, 3), "wrong_task": (protocol.pretrain_tasks[0], 4)}[probe]
    return select_eval_demos(train_s, task, protocol.window, protocol.demo_count, _rng(seed, stream, ch_idx))


def score_probes(
    protocol: EvalProtocol,
    probes: tuple[str, ...],
    store: SplitStore,
    params: dict[str, ad.Parameter],
    config: ModelConfig,
    seed: int = 0,
    stride: int | None = None,
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Pooled predictions per probe and the one set of truths they are scored against.

    Per channel, the test-split queries (rng stream 2) are scored by each
    probe: ``ictp`` with the eval task's demos (stream 3), ``no_context``
    with none, ``wrong_task`` with demos of the first pre-training task
    (stream 4), and ``baseline`` through the reprogramming adapter. Demos come
    from the train split only. Raises if the parameters change on the way.
    """
    stride = stride or protocol.window.horizon
    before = params_checksum(params)
    preds: dict[str, list[np.ndarray]] = {probe: [] for probe in probes}
    truths = []
    for ch_idx, ch in enumerate(store.channels):
        test_s = store.series(ch, "test")
        queries = enumerate_queries(test_s, protocol.eval_task, protocol.window, stride, _rng(seed, 2, ch_idx))
        truth = None
        for probe in probes:
            if probe == "baseline":
                p, t = baseline_path(queries, params, config)
            else:
                demos = _probe_demos(probe, protocol, store.series(ch, "train"), seed, ch_idx)
                p, t = context_path(queries, demos, params, config, protocol.window.horizon)
            if truth is None:
                truth = t
            elif not np.array_equal(t, truth):
                raise DataError(f"channel {ch}: {probe} truths differ from the {probes[0]} truths")
            preds[probe].append(p)
        truths.append(truth)
    if params_checksum(params) != before:
        raise RuntimeError(f"frozen-model contract violated for backbone {config.variant}")
    return {probe: np.concatenate(chunks) for probe, chunks in preds.items()}, np.concatenate(truths)


def run_unseen_eval(
    protocol: EvalProtocol,
    config: ModelConfig,
    params: dict[str, ad.Parameter],
    store: SplitStore,
    seed: int = 0,
    stride: int | None = None,
) -> EvalReport:
    """Baseline and ICTP rows for one backbone on one store."""
    preds, truth = score_probes(protocol, ("ictp", "baseline"), store, params, config, seed, stride)
    rows = [
        EvalRow(
            backbone=config.variant,
            task=str(protocol.eval_task),
            dataset=store.dataset,
            horizon=protocol.window.horizon,
            method=method,
            mse=mse(preds[method], truth),
            mae=mae(preds[method], truth),
            seed=seed,
        )
        for method in ("baseline", "ictp")
    ]
    return EvalReport(rows)
