"""Adam training loop over context datasets with early stopping.

Streams come from ``context.build_stream``, which owns the token layout: the
encoder and the validation loss run ``ContextSample.tokens``; the decoder
trains with the query's answer shown as a demo's is (teacher forcing). Loss is
MSE over the query's answer region only; demonstration answers inside the
context carry no loss unless ``supervise_demo_outputs`` is set. That option is
refused on ``encoder_masked``: a demo's answer sits unmasked in the encoder's
own input, so supervising it teaches the model to copy. Samples are bucketed
by demo count, which sets their token length, and both bucket-internal order
and batch order are reshuffled per epoch from the run seed, so training is
fully reproducible. The validation loss reads the model out through
``evalharness.batched_predict``, as evaluation does.

Every batch splits into two fixed halves, its first ceil(B/2) samples and the
rest. Each half's MSE divides by the whole batch's element count, and the
halves' losses and gradients are summed in that order before the one Adam
step. The second half, and the second half of the validation set, run in one
persistent ``workers.one_worker`` process, forked once per ``train`` call: it
shares the parameters and its half's gradient with the caller through shared
memory, so only indices and losses cross the pipe. Where ``fork_join`` would
run serially (one core, inside a worker, no settable OpenBLAS), the caller runs
both halves itself, with the same bits. Every process runs one BLAS thread, so
a run's bits depend on neither the core count nor ``OPENBLAS_NUM_THREADS``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .context import ContextDataset, build_stream
from .errors import ConfigError, NumericalError
from .evalharness import batched_predict, mse
from .model import (
    DECODER_CAUSAL,
    ENCODER_MASKED,
    ModelConfig,
    forward_patch_predictions,
    horizon_patch_count,
    readout_rows,
)
from .workers import Worker, one_worker, shared_arrays


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 100
    patience: int = 5
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    clip_norm: float = 1.0
    supervise_demo_outputs: bool = False

    def __post_init__(self) -> None:
        if min(self.batch_size, self.max_epochs, self.patience) < 1:
            raise ConfigError("batch_size, max_epochs and patience must be >= 1")
        if self.learning_rate < 0 or self.adam_eps <= 0 or self.clip_norm <= 0:
            raise ConfigError("learning_rate must be >= 0; adam_eps and clip_norm > 0")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ConfigError("betas must lie in [0, 1)")
        if self.patience > self.max_epochs:
            raise ConfigError("patience must not exceed max_epochs")


@dataclass
class TrainRecord:
    train_losses: list[float] = field(default_factory=list)
    valid_losses: list[float] = field(default_factory=list)
    best_epoch: int = -1
    wall_time_s: float = 0.0

    @property
    def best_valid_loss(self) -> float:
        return self.valid_losses[self.best_epoch]

    def write_csv(self, path: str | Path) -> None:
        lines = ["epoch,train_loss,valid_loss"]
        for e, (tr, va) in enumerate(zip(self.train_losses, self.valid_losses)):
            lines.append(f"{e},{tr!r},{va!r}")
        Path(path).write_text("\n".join(lines) + "\n")


class Adam:
    """Adam with global-norm gradient clipping; state keyed by parameter name.

    The moments take the parameters' dtype. The clip scale and the bias
    correction are Python floats, so a float32 step stays float32 (NEP 50).
    """

    def __init__(self, params: dict[str, ad.Parameter], config: TrainConfig):
        self.params = params
        self.config = config
        self.step_count = 0
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}

    def step(self) -> None:
        c = self.config
        grads = {}
        sq_sum = 0.0
        for name, p in self.params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            grads[name] = g
            sq_sum += float(np.sum(g * g))
        norm = math.sqrt(sq_sum)
        if norm > c.clip_norm:
            scale = c.clip_norm / norm
            grads = {name: g * scale for name, g in grads.items()}
        self.step_count += 1
        t = self.step_count
        correction = math.sqrt(1.0 - c.beta2**t) / (1.0 - c.beta1**t)
        for name, p in self.params.items():
            g = grads[name]
            # moments update in place, so a step allocates no state of its own
            m, v = self.m[name], self.v[name]
            m *= c.beta1
            m += (1 - c.beta1) * g
            v *= c.beta2
            v += (1 - c.beta2) * g * g
            p.data -= c.learning_rate * correction * m / (np.sqrt(v) + c.adam_eps)


def _batch_streams(dataset: ContextDataset, idxs: list[int], variant: str) -> np.ndarray:
    """Training streams: the decoder is teacher-forced, the encoder runs the samples' tokens."""
    samples = [dataset.samples[i] for i in idxs]
    forced = variant == DECODER_CAUSAL
    return np.stack([build_stream((*s.demos, s.query)) if forced else s.tokens for s in samples])


def _loss_regions(
    dataset: ContextDataset, idxs: list[int], config: ModelConfig, supervise_demos: bool
) -> list[tuple[int, int, np.ndarray]]:
    """(row_start, row_stop, truth grid) per supervised answer: the query's, then each demo's if supervised."""
    L, h = dataset.window.lookback, dataset.window.horizon
    p = config.patch_size
    hp = horizon_patch_count(h, config)
    examples = [(*dataset.samples[i].demos, dataset.samples[i].query) for i in idxs]
    m = len(examples[0]) - 1
    regions = []
    for k in (m, *range(m)) if supervise_demos else (m,):
        # example k's answer ends the stream's first k + 1 examples; the query's first keeps the sum order
        r0, r1 = readout_rows(config, (k + 1) * (L + h) // p, hp)
        truth = np.stack([e[k].target for e in examples]).reshape(len(idxs), hp, p)
        regions.append((r0, r1, truth))
    return regions


def _batch_loss_graph(
    dataset: ContextDataset,
    idxs: list[int],
    params: dict[str, ad.Parameter],
    config: ModelConfig,
    supervise_demos: bool,
    batch_size: int | None = None,
) -> ad.Tensor:
    """MSE over the supervised regions; the model runs its last block from the first of them.

    ``idxs`` may be part of a batch of ``batch_size`` samples, whose element count the loss divides by.
    """
    streams = _batch_streams(dataset, idxs, config.variant)
    regions = _loss_regions(dataset, idxs, config, supervise_demos)
    first = min(r0 for r0, _, _ in regions)
    preds = forward_patch_predictions(streams, params, config, first_row=first)
    slices = [ad.row_slice(preds, r0 - first, r1 - first) for r0, r1, _ in regions]
    pred_cat = slices[0] if len(slices) == 1 else ad.concat(slices, axis=1)
    truth = np.concatenate([t for _, _, t in regions], axis=1)
    samples = len(idxs) if batch_size is None else batch_size
    return ad.mse_loss(pred_cat, truth, pred_cat.data.size // len(idxs) * samples)


def _gradient(
    dataset: ContextDataset,
    idxs: list[int],
    params: dict[str, ad.Parameter],
    config: ModelConfig,
    supervise_demos: bool,
    batch_size: int,
) -> tuple[float, dict[str, np.ndarray]]:
    """The loss and gradient of ``idxs``, part of a batch of ``batch_size`` samples."""
    for p in params.values():
        p.zero_grad()
    with ad.Tape() as tape:
        loss = _batch_loss_graph(dataset, idxs, params, config, supervise_demos, batch_size)
        tape.backward(loss)
    return float(loss.data), {name: p.grad for name, p in params.items()}


def _predictions(
    dataset: ContextDataset, idxs: list[int], params: dict[str, ad.Parameter], config: ModelConfig
) -> list[np.ndarray]:
    streams = [dataset.samples[i].tokens for i in idxs]
    return batched_predict(streams, [dataset.window.horizon] * len(streams), params, config)


def _in_halves(here, answer, part: str, idxs: list[int], worker: Worker | None):
    """``here`` of the first ceil(n/2) of ``idxs``, then ``answer((part, rest, n))`` of the rest: in
    ``worker``, whose handler is ``answer``, or here without one. The second result is None when the
    rest is empty."""
    mid = (len(idxs) + 1) // 2
    request = (part, idxs[mid:], len(idxs))
    if worker and request[1]:
        worker.submit(request)
    mine = here(idxs[:mid])
    if not request[1]:
        return mine, None
    return mine, worker.result() if worker else answer(request)


def evaluate_loss(
    dataset: ContextDataset,
    params: dict[str, ad.Parameter],
    config: ModelConfig,
    worker: Worker | None = None,
) -> float:
    """Deployment-mode MSE over the answer region through ``batched_predict``, no tape; the second
    half of the samples runs in ``worker``, the trainer's, if given."""
    mine, theirs = _in_halves(
        lambda half: _predictions(dataset, half, params, config),
        lambda request: _predictions(dataset, request[1], params, config),
        "valid", list(range(len(dataset.samples))), worker,
    )
    preds = mine + (theirs or [])
    return mse(np.stack(preds), np.stack([s.query.target for s in dataset.samples]))


def train(
    params: dict[str, ad.Parameter],
    dataset: ContextDataset,
    valid: ContextDataset,
    model_config: ModelConfig,
    train_config: TrainConfig,
) -> tuple[dict[str, ad.Parameter], TrainRecord]:
    """Optimize in place; restore and return the best-validation parameters."""
    if not dataset.samples or not valid.samples:
        raise ConfigError("train/valid datasets must be non-empty")
    supervise = train_config.supervise_demo_outputs
    if supervise and model_config.variant == ENCODER_MASKED:
        raise ConfigError(
            "supervise_demo_outputs is refused on encoder_masked: demo answers are unmasked "
            "in its input, so the encoder would learn to copy them"
        )
    for data in (dataset, valid):
        horizon_patch_count(data.window.horizon, model_config)  # a whole-patch horizon makes L = 2h whole too

    start = time.perf_counter()
    record = TrainRecord()
    optimizer = Adam(params, train_config)
    buckets: dict[int, list[int]] = {}
    for i, s in enumerate(dataset.samples):
        buckets.setdefault(len(s.demos), []).append(i)
    best_valid = np.inf
    best_state: dict[str, np.ndarray] = {}
    stale = 0

    # the worker reads the parameters and writes its half's gradient in place, shared with this process
    values = shared_arrays({name: p.data for name, p in params.items()})
    their_grads = shared_arrays({name: np.zeros_like(p.data) for name, p in params.items()})
    for name, p in params.items():
        p.data = values[name]

    def answer(request):
        """The second half's part: its loss, with its gradient left in ``their_grads``, or its predictions."""
        part, idxs, n = request
        if part == "valid":
            return _predictions(valid, idxs, params, model_config)
        loss, grads = _gradient(dataset, idxs, params, model_config, supervise, n)
        for name, g in grads.items():
            np.copyto(their_grads[name], g)
        return loss

    with one_worker(answer) as worker:
        for epoch in range(train_config.max_epochs):
            rng = np.random.default_rng(np.random.SeedSequence((train_config.seed, 1, epoch)))
            batches: list[list[int]] = []
            for _, idxs in sorted(buckets.items()):
                order = [idxs[j] for j in rng.permutation(len(idxs))]
                for lo in range(0, len(order), train_config.batch_size):
                    batches.append(order[lo : lo + train_config.batch_size])
            batches = [batches[j] for j in rng.permutation(len(batches))]

            loss_sum, n_seen = 0.0, 0
            for batch in batches:
                n = len(batch)
                (value, grads), their_loss = _in_halves(
                    lambda half: _gradient(dataset, half, params, model_config, supervise, n),
                    answer, "train", batch, worker,
                )
                if their_loss is not None:  # the halves' sum, always in this order
                    value += their_loss
                    grads = {name: g + their_grads[name] for name, g in grads.items()}
                if not np.isfinite(value):
                    raise NumericalError(f"training loss diverged at epoch {epoch}")
                for name, p in params.items():
                    p.grad = grads[name]
                optimizer.step()
                loss_sum += value * n
                n_seen += n

            valid_loss = evaluate_loss(valid, params, model_config, worker)
            record.train_losses.append(loss_sum / n_seen)
            record.valid_losses.append(valid_loss)

            if valid_loss < best_valid:
                best_valid = valid_loss
                record.best_epoch = epoch
                best_state = {name: p.data.copy() for name, p in params.items()}
                stale = 0
            else:
                stale += 1
                if stale >= train_config.patience:
                    break

    if record.best_epoch < 0:
        raise NumericalError(
            f"no finite validation loss in {len(record.valid_losses)} epochs: {record.valid_losses}"
        )
    for name, p in params.items():
        p.data = best_state[name]
    record.wall_time_s = time.perf_counter() - start
    return params, record
