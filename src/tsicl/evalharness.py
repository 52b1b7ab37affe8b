"""Unseen-task evaluation: frozen weights, context path vs reprogramming baseline.

The protocol mirrors the pre-training split: a model trained on some task set
is evaluated on a task it never saw. The context path prepends demonstrations
of the unseen task (train-split data only); the baseline path rewrites each
query with the adapter ``adapters.adapter_for`` picks. Demo and query windows
come from the task table in ``tasks``: its valid starts and span widths.
Queries and demos are rows of the store's flat table plus masks
(``tasks.example_rows`` of a split's rows), which ``tasks.target_offsets``
turns into the offsets of their targets, as a context dataset holds them. From rows and
offsets ``context.example_streams``, the one stream builder, gathers the query
streams, which end in placeholders, and the demo prefix, whose answers are
shown. ``_fit_adapted`` appends the answer
region (rounded up to whole patches) after each adapted history, which is not
an example. Both paths return predictions only: the queries' truth comes from
their gather, and ``score_probes`` scores every probe against it.
``score_probes`` is the only eval loop, behind ``run_unseen_eval``, which
writes one ``EvalRow`` per probe: the CLI's ``eval`` scores ``baseline`` and
``ictp``, ``experiment.run_seed`` all four ``PROBES``. ``batched_predict``, the
only readout, takes one rectangular batch of streams. ``context_path`` owns the
demo prefix: the decoder encodes it once per channel and probe and reuses its
keys and values for every query (``model.encode_prefix``), while the encoder,
whose prefix rows attend to the query, runs prefix ++ query whole.
``baseline_path`` predicts equal-length adapted histories together.
``score_probes`` checksums the parameters before the loop and in every
worker after it, to enforce that evaluation never updates them.

``score_probes`` scores channels on every core the process may use: it hands
the contiguous ``workers.shares`` of its channels to ``workers.fork_join``,
which computes the first share in the calling process and each other share in
a forked child, and joins the results in channel order. Every process runs
OpenBLAS on one thread, so the scores are the same bits on any core count; see
``workers`` for when the call runs serially. It also stays serial where the
channels hold fewer than ``BATCH`` queries per worker (64, one
``batched_predict`` batch): there a fork costs more than it saves.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from itertools import groupby
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .adapters import adapter_for
from .context import example_streams
from .errors import ConfigError, DataError
from .model import (
    DECODER_CAUSAL,
    KeysValues,
    ModelConfig,
    encode_prefix,
    forward_patch_predictions,
    horizon_patch_count,
    readout_rows,
)
from .series import SplitStore
from .tasks import (
    TaskKind,
    WindowSpec,
    answer_region,
    example_rows,
    span_width,
    target_offsets,
    valid_start_range,
)
from .workers import fork_join


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
BATCH = 64  # streams per forward pass in ``batched_predict``


def params_checksum(params: dict[str, ad.Parameter]) -> str:
    """SHA-256 over parameter names and raw data bytes, in their dtype (order-independent)."""
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
    method: str  # a probe: "ictp", "no_context", "wrong_task" or "baseline"
    mse: float
    mae: float
    seed: int


@dataclass
class EvalReport:
    rows: list[EvalRow] = field(default_factory=list)
    workers: int = 1  # processes that scored the rows; not written to the CSV

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
                mse, mae = float(m_), float(a_)
                if not (0 <= mse < math.inf and 0 <= mae < math.inf):  # NaN fails both comparisons
                    raise ValueError(f"mse {m_} and mae {a_} must be finite and not negative")
                report.rows.append(EvalRow(bk, task, ds, int(hz), method, mse, mae, int(seed)))
        except ValueError as exc:
            raise DataError(f"malformed report {path}, line {lineno}: {exc}") from None
        return report


def improvement_ratio(report: EvalReport) -> float:
    """Mean per-cell relative improvement (baseline - ictp) / baseline.

    A cell is one (backbone, task, dataset, horizon, seed, metric) tuple and
    must carry both methods, each once. Negative improvements are averaged in
    as-is.
    """
    by_cell: dict[tuple, dict[str, EvalRow]] = {}
    for r in report.rows:
        key = (r.backbone, r.task, r.dataset, r.horizon, r.seed)
        cell = by_cell.setdefault(key, {})
        if r.method in cell:
            raise DataError(f"repeated row: method {r.method} of cell {key}")
        cell[r.method] = r
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


def eval_demo_starts(length: int, task: TaskKind, w: WindowSpec, m: int) -> list[int]:
    """The starts of the m most recent pairwise-disjoint windows of a train split of this length, oldest first.

    Starts step back from the task table's last valid start by its span width.
    """
    lo, hi = valid_start_range(task, length, w)
    width = span_width(task, w)
    starts = [hi - i * width for i in range(m)]
    if starts and starts[-1] < lo:
        available = max(0, (hi - lo) // width + 1) if hi >= lo else 0
        raise DataError(f"train split admits only {available} disjoint demo windows, need {m}")
    return starts[::-1]


def batched_predict(
    streams: np.ndarray,
    horizon: int,
    params: dict[str, ad.Parameter],
    config: ModelConfig,
    prefix: list[KeysValues] | None = None,
) -> np.ndarray:
    """Evaluation-mode predictions (N, h) for streams (N, n, 3) that end in an answer region of ``horizon``.

    The model runs ``BATCH`` streams at a time, and its last block only from
    the first readout row. ``prefix``, a decoder's ``encode_prefix`` cache,
    stands for the patches that precede every stream.
    """
    past = 0 if prefix is None else prefix[0][0].shape[1]
    r0, r1 = readout_rows(config, past + streams.shape[1] // config.patch_size, horizon_patch_count(horizon, config))
    return np.concatenate([
        forward_patch_predictions(streams[lo : lo + BATCH], params, config, r0 - past, prefix).data[:, : r1 - r0]
        .reshape(-1, horizon)
        for lo in range(0, len(streams), BATCH)
    ])


def _fit_adapted(histories: np.ndarray, steps: int, config: ModelConfig) -> tuple[np.ndarray, int]:
    """Adapted histories (N, n, 3) plus the answer region of ``steps`` values, patch-divisible for the model.

    The only place a baseline stream gets its answer region. The region is
    rounded up to whole patches; surplus history is trimmed from the oldest
    end. Extra predicted steps are simply unread.
    """
    p = config.patch_size
    model_h = -(-steps // p) * p
    trim = (histories.shape[1] + model_h) % p
    if histories.shape[1] - trim < p:
        raise DataError("adapted query has no usable context after patch alignment")
    region = np.broadcast_to(answer_region(model_h), (len(histories), model_h, 3))
    return np.concatenate([histories[:, trim:], region], axis=1), model_h


def context_path(
    queries: np.ndarray,
    prefix: np.ndarray,
    params: dict[str, ad.Parameter],
    config: ModelConfig,
    horizon: int,
) -> np.ndarray:
    """Predictions (N, h) for the demonstration path: every query stream (N, L+h, 3) behind the one demo prefix (n, 3).

    The decoder encodes a non-empty prefix once and reuses its keys and
    values for every query; the encoder runs prefix ++ query whole.
    """
    if len(prefix) and config.variant == DECODER_CAUSAL:
        return batched_predict(queries, horizon, params, config, prefix=encode_prefix(prefix, params, config))
    prefixes = np.broadcast_to(prefix, (len(queries), *prefix.shape))
    return batched_predict(np.concatenate([prefixes, queries], axis=1), horizon, params, config)


def baseline_path(
    task: TaskKind,
    inputs: np.ndarray,
    masks: np.ndarray,
    params: dict[str, ad.Parameter],
    config: ModelConfig,
    w: WindowSpec,
) -> np.ndarray:
    """Predictions (N, h) of the ``task`` queries with these inputs and masks, through the matching adapter,
    one batch per adapted history length and step count."""
    histories, read = adapter_for(config.variant == DECODER_CAUSAL, task)(inputs, masks, w)
    keys = [(len(x), steps) for x, steps in zip(histories, (read.max(axis=1) + 1).tolist())]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    preds = []
    for (_, steps), group in groupby(order, keys.__getitem__):
        group = list(group)
        fitted, model_h = _fit_adapted(np.stack([histories[i] for i in group]), steps, config)
        preds.append(np.take_along_axis(batched_predict(fitted, model_h, params, config), read[group], axis=1))
    return np.concatenate(preds)[np.argsort(order)]


def _query_starts(test_length: int, task: TaskKind, w: WindowSpec, stride: int) -> range:
    """Every stride-th window start of a test split that the task table admits, from the first."""
    lo, hi = valid_start_range(task, test_length, w)
    return range(lo, hi + 1, stride)


def _rng(seed: int, stream: int, ch_idx: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, stream, ch_idx)))


def _probe_prefix(probe: str, protocol: EvalProtocol, store: SplitStore, seed: int, ch_idx: int) -> np.ndarray:
    """The demo prefix (n, 3) of a context probe: each demo's input and shown answer, none for ``no_context``."""
    if probe == "no_context":
        return np.zeros((0, 3))
    w = protocol.window
    task, stream = {"ictp": (protocol.eval_task, 3), "wrong_task": (protocol.pretrain_tasks[0], 4)}[probe]
    train = store.rows(ch_idx, "train")
    starts = eval_demo_starts(len(train), task, w, protocol.demo_count)
    rows, masks = example_rows(task, train, starts, w, _rng(seed, stream, ch_idx))
    return example_streams(store.values, w, rows, target_offsets(task, w, masks), shown=True)[0].reshape(-1, 3)


def query_count(test_length: int, task: TaskKind, w: WindowSpec, stride: int) -> int:
    """How many queries ``score_probes`` makes on a test split of this length, without making them."""
    return len(_query_starts(test_length, task, w, stride))


def score_probes(
    protocol: EvalProtocol,
    probes: tuple[str, ...],
    store: SplitStore,
    params: dict[str, ad.Parameter],
    config: ModelConfig,
    seed: int = 0,
    stride: int | None = None,
) -> tuple[dict[str, np.ndarray], np.ndarray, int]:
    """Pooled predictions per probe, the queries' targets they are scored against, and the workers used.

    Per channel, the test-split queries (rng stream 2) are scored by each
    probe: ``ictp`` with the eval task's demos (stream 3), ``no_context``
    with none, ``wrong_task`` with demos of the first pre-training task
    (stream 4), and ``baseline`` through the reprogramming adapter. Demos come
    from the train split only. Raises if the parameters change on the way.

    Contiguous shares of channels go to ``workers.fork_join``, one per
    process; each worker checksums the parameters after its share. A
    channel's work depends only on its index, through its rng streams, so the
    results are the same on any core count. It uses at most one process per
    ``BATCH`` queries: with fewer, a fork costs more than it saves.
    """
    stride = stride or protocol.window.horizon
    if stride < 1:
        raise ConfigError(f"eval_stride must be >= 1, got {stride}")
    before = params_checksum(params)
    task, w, channels = protocol.eval_task, protocol.window, range(len(store.channels))
    query_total = sum(query_count(len(store.rows(c, "test")), task, w, stride) for c in channels)

    def score_channel(ch_idx: int) -> tuple[list[np.ndarray], np.ndarray]:
        test = store.rows(ch_idx, "test")
        starts = _query_starts(len(test), task, w, stride)
        if not starts:
            raise DataError(f"test split of length {len(test)} admits no {task} window")
        rows, masks = example_rows(task, test, starts, w, _rng(seed, 2, ch_idx))
        queries, truth = example_streams(store.values, w, rows, target_offsets(task, w, masks), shown=False)
        preds = []
        for probe in probes:
            if probe == "baseline":
                preds.append(baseline_path(task, queries[:, : w.lookback], masks, params, config, w))
            else:
                prefix = _probe_prefix(probe, protocol, store, seed, ch_idx)
                preds.append(context_path(queries, prefix, params, config, w.horizon))
        return preds, truth

    def score_share(share: range):
        return [score_channel(i) for i in share], params_checksum(params)

    shares = fork_join(score_share, len(channels), query_total // BATCH)
    if any(after != before for _, after in shares):
        raise RuntimeError(f"frozen-model contract violated for backbone {config.variant}")
    scored = [channel for results, _ in shares for channel in results]
    preds = {probe: np.concatenate([p[k] for p, _ in scored]) for k, probe in enumerate(probes)}
    return preds, np.concatenate([t for _, t in scored]), len(shares)


def run_unseen_eval(
    protocol: EvalProtocol,
    config: ModelConfig,
    params: dict[str, ad.Parameter],
    store: SplitStore,
    seed: int = 0,
    stride: int | None = None,
    probes: tuple[str, ...] = ("baseline", "ictp"),
) -> EvalReport:
    """One row per probe, in ``probes`` order, for one backbone on one store."""
    preds, truth, workers = score_probes(protocol, probes, store, params, config, seed, stride)
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
        for method in probes
    ]
    return EvalReport(rows, workers)
