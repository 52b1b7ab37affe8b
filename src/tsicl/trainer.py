"""Adam training loop over context datasets with early stopping.

Training and validation each take a list of ``context.ContextDataset``s, one
per demo count, which sets their token length. ``_batches`` walks the
datasets by ascending demo count and cuts each into batches of sample
indices, ``(k, idxs)`` for dataset k. Batch streams are gathered, not built
sample by sample: ``context.sample_streams`` reads a batch's streams and
targets out of its dataset's rows and offsets in one fancy-indexing pass, in
the caller and in the worker alike. Training and the validation loss run the
same stream, with placeholders in the query's answer region, for both
variants. Loss is MSE over the query's answer region only; demonstration
answers inside the context carry no loss unless ``supervise_demo_outputs`` is
set. That option is refused on ``encoder_masked``: a demo's answer sits
unmasked in the encoder's own input, so supervising it teaches the model to
copy. Training reshuffles each dataset's order and the batch order per epoch
from the run seed, so it is fully reproducible. Validation is a training
step without the tape: ``evaluate_loss`` runs ``_batch_loss_graph`` of the
query answers over the unshuffled batches, with no tape active, and weights
each batch's MSE by its sample count.

Every batch splits into two fixed halves, ``workers.shares(B, 2)``: its first
ceil(B/2) samples and the rest. Each half's MSE divides by the whole batch's
element count, and the halves' losses and gradients are summed in that order
before the one Adam step. ``train`` runs both halves of every batch, training's
and validation's, through one ``workers.pool``, made once per ``train`` call,
whose one handler ``half`` serves both sides: the first half here, the second
in the pool's worker if it has one (see ``workers`` for when it runs here).
A half's request names its side, its dataset k, its sample indices, its
batch's size and which half it is. When ``train`` starts, every parameter's
``data`` becomes a view of one flat array: row 0 of a (3, N)
``workers.shared_zeros`` array, whose rows 1 and 2 take the halves' flat
gradients, so only indices and losses cross the pipe. Adam, the sum of the
halves and the best state are each one array operation, and the returned
parameters are views of the best state. Every process runs one BLAS thread,
so a run's bits depend on neither the core count nor ``OPENBLAS_NUM_THREADS``.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .context import ContextDataset, sample_streams
from .errors import ConfigError, NumericalError
from .model import (
    ENCODER_MASKED,
    ModelConfig,
    forward_patch_predictions,
    horizon_patch_count,
    readout_rows,
)
from .tasks import WindowSpec
from .workers import pool, shared_zeros, shares

# Adam's moment decays and denominator floor (Kingma & Ba, 2015, Algorithm 1)
BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 100
    patience: int = 5
    seed: int = 0
    clip_norm: float = 1.0
    supervise_demo_outputs: bool = False

    def __post_init__(self) -> None:
        if min(self.batch_size, self.max_epochs, self.patience) < 1:
            raise ConfigError("batch_size, max_epochs and patience must be >= 1")
        if self.learning_rate < 0 or self.clip_norm <= 0:
            raise ConfigError("learning_rate must be >= 0; clip_norm > 0")
        if self.patience > self.max_epochs:
            raise ConfigError("patience must not exceed max_epochs")


@dataclass
class TrainRecord:
    train_losses: list[float] = field(default_factory=list)
    valid_losses: list[float] = field(default_factory=list)
    best_epoch: int = -1

    @property
    def best_valid_loss(self) -> float:
        return self.valid_losses[self.best_epoch]

    def write_csv(self, path: str | Path) -> None:
        lines = ["epoch,train_loss,valid_loss"]
        for e, (tr, va) in enumerate(zip(self.train_losses, self.valid_losses)):
            lines.append(f"{e},{tr!r},{va!r}")
        Path(path).write_text("\n".join(lines) + "\n")


class Adam:
    """Adam with global-norm gradient clipping over one flat parameter array, updated in place.

    The moments ``m`` and ``v`` are flat like ``data`` and take its dtype. The
    clip scale and the bias correction are Python floats, so a float32 step
    stays float32 (NEP 50).
    """

    def __init__(self, data: np.ndarray, config: TrainConfig):
        self.data = data
        self.config = config
        self.step_count = 0
        self.m = np.zeros_like(data)
        self.v = np.zeros_like(data)

    def step(self, grad: np.ndarray) -> None:
        """One update from ``grad``, flat like ``data``, which is clipped in place."""
        c = self.config
        norm = math.sqrt(float(np.dot(grad, grad)))
        if norm > c.clip_norm:
            grad *= c.clip_norm / norm
        self.step_count += 1
        t = self.step_count
        correction = math.sqrt(1.0 - BETA2**t) / (1.0 - BETA1**t)
        self.m *= BETA1
        self.m += (1 - BETA1) * grad
        self.v *= BETA2
        self.v += (1 - BETA2) * grad * grad
        self.data -= c.learning_rate * correction * self.m / (np.sqrt(self.v) + ADAM_EPS)


def _bind(params: dict[str, ad.Parameter], flat: np.ndarray) -> None:
    """Make every parameter's ``data`` a view of its span of ``flat``, in ``params``' order."""
    offset = 0
    for p in params.values():
        p.data = flat[offset : offset + p.data.size].reshape(p.data.shape)
        offset += p.data.size


def _loss_regions(
    targets: np.ndarray, w: WindowSpec, config: ModelConfig, supervise_demos: bool
) -> list[tuple[int, int, np.ndarray]]:
    """(row_start, row_stop, truth grid) per supervised answer: the query's, then each demo's if supervised."""
    L, h = w.lookback, w.horizon
    p = config.patch_size
    hp = horizon_patch_count(h, config)
    B, n, _ = targets.shape
    regions = []
    for k in (n - 1, *range(n - 1)) if supervise_demos else (n - 1,):
        # example k's answer ends the stream's first k + 1 examples; the query's first keeps the sum order
        r0, r1 = readout_rows(config, (k + 1) * (L + h) // p, hp)
        regions.append((r0, r1, targets[:, k].reshape(B, hp, p)))
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
    streams, targets = sample_streams(dataset, idxs)
    regions = _loss_regions(targets, dataset.window, config, supervise_demos)
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
    out: np.ndarray,
) -> float:
    """The loss of ``idxs``, part of a batch of ``batch_size`` samples; its gradient goes to ``out``,
    flat in ``params``' order."""
    for p in params.values():
        p.zero_grad()
    with ad.Tape() as tape:
        loss = _batch_loss_graph(dataset, idxs, params, config, supervise_demos, batch_size)
        tape.backward(loss)
    np.concatenate([p.grad.ravel() for p in params.values()], out=out)
    return float(loss.data)


def _query_loss(
    dataset: ContextDataset, idxs: list[int], params: dict[str, ad.Parameter], config: ModelConfig, batch_size: int
) -> float:
    """``_batch_loss_graph`` of the query answers alone; with no tape active, nothing is recorded."""
    return float(_batch_loss_graph(dataset, idxs, params, config, False, batch_size).data)


def _batches(
    datasets: Sequence[ContextDataset], batch_size: int, rng: np.random.Generator | None = None
) -> list[tuple[int, list[int]]]:
    """``(k, idxs)``: indices of samples of ``datasets[k]`` in batches of at most ``batch_size``, one dataset at a
    time, by ascending demo count. With ``rng``, each dataset's indices are permuted before they are cut, and
    then the batches are."""
    batches = []
    for k in sorted(range(len(datasets)), key=lambda k: datasets[k].rows.shape[1]):
        n = len(datasets[k])
        order = list(range(n)) if rng is None else rng.permutation(n).tolist()
        batches += [(k, order[lo : lo + batch_size]) for lo in range(0, n, batch_size)]
    return batches if rng is None else [batches[j] for j in rng.permutation(len(batches))]


def _halves(part: str, k: int, batch: list[int]) -> list[tuple[str, int, list[int], int, int]]:
    """``(part, k, idxs, len(batch), j)`` for the ``j``-th of ``batch``'s two ``shares``, samples of dataset ``k``;
    an empty one is dropped."""
    return [(part, k, batch[s.start : s.stop], len(batch), j) for j, s in enumerate(shares(len(batch), 2)) if s]


def evaluate_loss(
    datasets: Sequence[ContextDataset],
    params: dict[str, ad.Parameter],
    config: ModelConfig,
    run: Callable[[list], list[float]] | None = None,
    batch_size: int = TrainConfig.batch_size,
) -> float:
    """Deployment-mode MSE over the query answers: the training loss without a tape, over the unshuffled
    batches of ``batch_size``, each weighted by its sample count. ``run`` answers each batch's ``_halves``
    with their losses, the trainer's pool's if given, whose handler scores ``datasets``; by default, here."""

    def serial(halves):
        return [_query_loss(datasets[k], idxs, params, config, n) for _, k, idxs, n, _ in halves]

    total = 0.0
    for k, batch in _batches(datasets, batch_size):
        total += sum((run or serial)(_halves("valid", k, batch))) * len(batch)  # the halves' sum, always in this order
    return total / sum(map(len, datasets))


def train(
    params: dict[str, ad.Parameter],
    datasets: Sequence[ContextDataset],
    valid: Sequence[ContextDataset],
    model_config: ModelConfig,
    train_config: TrainConfig,
) -> tuple[dict[str, ad.Parameter], TrainRecord]:
    """Optimize in place on ``datasets``, one per demo count; restore and return the parameters with the best
    loss on ``valid``."""
    if not sum(map(len, datasets)) or not sum(map(len, valid)):
        raise ConfigError("train/valid datasets must be non-empty")
    supervise = train_config.supervise_demo_outputs
    if supervise and model_config.variant == ENCODER_MASKED:
        raise ConfigError(
            "supervise_demo_outputs is refused on encoder_masked: demo answers are unmasked "
            "in its input, so the encoder would learn to copy them"
        )
    for data in (*datasets, *valid):
        horizon_patch_count(data.window.horizon, model_config)  # a whole-patch horizon makes L = 2h whole too

    record = TrainRecord()
    best_valid, best, stale = np.inf, None, 0

    # row 0 holds the parameters and row 1 + k the k-th half's gradient, shared with the pool's worker
    size = sum(p.data.size for p in params.values())
    data, *grads = shared_zeros((3, size), np.result_type(*{p.data.dtype for p in params.values()}))
    np.concatenate([p.data.ravel() for p in params.values()], out=data)
    _bind(params, data)
    optimizer = Adam(data, train_config)

    def half(request):
        """One half's loss: a training one, with its gradient left in ``grads[j]``, or a validation one."""
        part, k, idxs, n, j = request
        if part == "valid":
            return _query_loss(valid[k], idxs, params, model_config, n)
        return _gradient(datasets[k], idxs, params, model_config, supervise, n, grads[j])

    with pool(half, 2) as (run, _):
        for epoch in range(train_config.max_epochs):
            rng = np.random.default_rng(np.random.SeedSequence((train_config.seed, 1, epoch)))
            loss_sum, n_seen = 0.0, 0
            for k, batch in _batches(datasets, train_config.batch_size, rng):
                losses = run(_halves("train", k, batch))
                value = sum(losses)  # the halves' sum, always in this order
                if len(losses) == 2:
                    grads[0] += grads[1]
                if not np.isfinite(value):
                    raise NumericalError(f"training loss diverged at epoch {epoch}")
                optimizer.step(grads[0])
                loss_sum += value * len(batch)
                n_seen += len(batch)

            valid_loss = evaluate_loss(valid, params, model_config, run, train_config.batch_size)
            record.train_losses.append(loss_sum / n_seen)
            record.valid_losses.append(valid_loss)

            if valid_loss < best_valid:
                best_valid = valid_loss
                record.best_epoch = epoch
                best = data.copy()
                stale = 0
            else:
                stale += 1
                if stale >= train_config.patience:
                    break

    if record.best_epoch < 0:
        raise NumericalError(
            f"no finite validation loss in {len(record.valid_losses)} epochs: {record.valid_losses}"
        )
    _bind(params, best)
    return params, record
