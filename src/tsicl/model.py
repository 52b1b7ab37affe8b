"""Toy patch-transformer backbones over context-sample token streams.

Two variants cover the two pre-training families the pipeline compares:

* ``decoder_causal`` — causal self-attention over patches; a linear head maps
  each patch representation to the next patch's values. Training feeds ground
  truth in the answer region (teacher forcing); evaluation feeds placeholder
  tokens and reads the same positions in one pass.
* ``encoder_masked`` — bidirectional attention; the head reconstructs each
  patch's own values, and the answer region is always appended as masked
  placeholder tokens.

Only a few patch rows are ever read: the query's answer region, in the loss
and in evaluation, and the demos' answer regions when those are supervised.
So the last block computes its queries, its feed-forward and the head only at
the rows from the first one read (``first_row``); its keys and values, and
every earlier block, still cover the whole stream.

Input tokens are (value, mask_flag, segment_flag) triples; ``patch_size``
consecutive steps are flattened into one 3*patch_size feature vector before a
linear projection into the model width.

``init_params`` stores float32 parameters, and the model runs in its
parameters' dtype: ``forward_patch_predictions`` casts its inputs to it, so
float64 parameters (as the gradient checks build) give a float64 run. Token
streams, targets and the metrics that score predictions stay float64.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, GeometryError
from .tasks import MASK_FLAG, SEGMENT_FLAG, VALUE

DECODER_CAUSAL = "decoder_causal"
ENCODER_MASKED = "encoder_masked"
VARIANTS = (DECODER_CAUSAL, ENCODER_MASKED)


@dataclass(frozen=True)
class ModelConfig:
    variant: str = DECODER_CAUSAL
    patch_size: int = 4
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 4
    ff_mult: int = 4
    max_tokens: int = 2048

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        for name in ("patch_size", "d_model", "n_layers", "n_heads", "ff_mult", "max_tokens"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(raw: dict) -> "ModelConfig":
        return ModelConfig(**raw)


def patchify(tokens: np.ndarray, patch_size: int) -> np.ndarray:
    """Flatten consecutive, non-overlapping patches: (n, 3) -> (n/p, 3p).

    Patch i covers steps [i*p, (i+1)*p); feature order is step-major, so the
    three flags of one step stay adjacent.
    """
    tokens = np.asarray(tokens, dtype=np.float64)
    n = tokens.shape[-2]
    if n % patch_size != 0:
        raise GeometryError(f"token count {n} not divisible by patch size {patch_size}")
    lead = tokens.shape[:-2]
    return tokens.reshape(*lead, n // patch_size, 3 * patch_size)


def init_params(config: ModelConfig, seed: int = 0) -> dict[str, ad.Parameter]:
    """Xavier-normal weights, zero biases, unit layer-norm gains, stored as float32.

    Values are drawn in float64, then rounded to float32.
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xA11C)))
    params: dict[str, ad.Parameter] = {}

    def put(name: str, values: np.ndarray) -> None:
        params[name] = ad.Parameter(values.astype(np.float32), name)

    def weight(name: str, fan_in: int, fan_out: int) -> None:
        std = np.sqrt(2.0 / (fan_in + fan_out))
        put(name, rng.normal(0.0, std, size=(fan_in, fan_out)))

    def bias(name: str, n: int) -> None:
        put(name, np.zeros(n))

    d, p = config.d_model, config.patch_size
    weight("in.w", 3 * p, d)
    bias("in.b", d)
    for layer in range(config.n_layers):
        pre = f"l{layer}."
        for nm in ("wq", "wk", "wv", "wo"):
            weight(pre + "attn." + nm, d, d)
        for nm in ("bq", "bv", "bo"):
            bias(pre + "attn." + nm, d)
        put(pre + "ln1.g", np.ones(d))
        bias(pre + "ln1.b", d)
        put(pre + "ln2.g", np.ones(d))
        bias(pre + "ln2.b", d)
        weight(pre + "ff.w1", d, config.ff_mult * d)
        bias(pre + "ff.b1", config.ff_mult * d)
        weight(pre + "ff.w2", config.ff_mult * d, d)
        bias(pre + "ff.b2", d)
    put("lnf.g", np.ones(d))
    bias("lnf.b", d)
    weight("head.w", d, p)
    bias("head.b", p)
    return params


_PE_CACHE: dict[tuple[int, int], np.ndarray] = {}


def positional_encoding(n_positions: int, d_model: int) -> np.ndarray:
    """Standard sine/cosine table over patch positions."""
    key = (n_positions, d_model)
    if key not in _PE_CACHE:
        pos = np.arange(n_positions)[:, None]
        dim = np.arange(0, d_model, 2)[None, :]
        angle = pos / np.power(10000.0, dim / d_model)
        pe = np.zeros((n_positions, d_model))
        pe[:, 0::2] = np.sin(angle)
        pe[:, 1::2] = np.cos(angle[:, : d_model // 2])
        _PE_CACHE[key] = pe
    return _PE_CACHE[key]


def _attention(x: ad.Tensor, params, prefix: str, config: ModelConfig, first_row: int) -> ad.Tensor:
    """Multi-head self-attention with every head folded into the batch axis.

    Queries, and so the output rows, cover rows [first_row, S) of ``x``; keys
    and values cover every row. The key projection has no bias: it would add
    q_i . b_k to every score of row i, a shift that softmax ignores.
    """
    heads = config.n_heads
    xq = ad.row_slice(x, first_row, x.shape[1]) if first_row else x
    q = ad.add(ad.matmul(xq, params[prefix + "wq"]), params[prefix + "bq"])
    k = ad.matmul(x, params[prefix + "wk"])
    v = ad.add(ad.matmul(x, params[prefix + "wv"]), params[prefix + "bv"])
    causal = config.variant == DECODER_CAUSAL
    mixed = ad.attention(*(ad.split_heads(t, heads) for t in (q, k, v)), causal=causal)
    ctx = ad.merge_heads(mixed, heads)
    return ad.add(ad.matmul(ctx, params[prefix + "wo"]), params[prefix + "bo"])


def forward_patch_predictions(
    batch_tokens: np.ndarray, params: dict[str, ad.Parameter], config: ModelConfig, first_row: int = 0
) -> ad.Tensor:
    """Predictions (B, S - first_row, p) at patch rows [first_row, S) of streams (B, n, 3).

    Every block but the last runs on all S rows, because its outputs are the
    last block's keys and values. The last block computes its queries, and
    everything after them, only at rows >= ``first_row``. Row i of the result
    equals row first_row + i of the full forward. The streams and the
    positional table enter in the parameters' dtype.
    """
    if batch_tokens.ndim != 3 or batch_tokens.shape[-1] != 3:
        raise GeometryError(f"expected batch tokens of shape (B, n, 3), got {batch_tokens.shape}")
    n = batch_tokens.shape[1]
    if n > config.max_tokens:
        raise GeometryError(f"token length {n} exceeds max_tokens {config.max_tokens}")
    dtype = params["in.w"].data.dtype
    patches = patchify(batch_tokens, config.patch_size).astype(dtype, copy=False)
    s = patches.shape[1]
    if not 0 <= first_row < s:
        raise GeometryError(f"first_row {first_row} outside the {s} patch rows")
    x = ad.add(ad.matmul(ad.constant(patches), params["in.w"]), params["in.b"])
    x = ad.add(x, ad.constant(positional_encoding(s, config.d_model).astype(dtype, copy=False)))
    for layer in range(config.n_layers):
        pre = f"l{layer}."
        start = first_row if layer == config.n_layers - 1 else 0
        h = ad.layer_norm(x, params[pre + "ln1.g"], params[pre + "ln1.b"])
        if start:
            x = ad.row_slice(x, start, s)
        x = ad.add(x, _attention(h, params, pre + "attn.", config, start))
        f = ad.layer_norm(x, params[pre + "ln2.g"], params[pre + "ln2.b"])
        f = ad.add(ad.matmul(f, params[pre + "ff.w1"]), params[pre + "ff.b1"])
        f = ad.gelu(f)
        f = ad.add(ad.matmul(f, params[pre + "ff.w2"]), params[pre + "ff.b2"])
        x = ad.add(x, f)
    x = ad.layer_norm(x, params["lnf.g"], params["lnf.b"])
    return ad.add(ad.matmul(x, params["head.w"]), params["head.b"])


def answer_region(horizon: int, values: np.ndarray | None = None) -> np.ndarray:
    """Answer-region tokens: placeholders (0,1,1) or teacher-forced (v,0,1)."""
    region = np.zeros((horizon, 3))
    region[:, SEGMENT_FLAG] = 1.0
    if values is None:
        region[:, MASK_FLAG] = 1.0
    else:
        region[:, VALUE] = np.asarray(values, dtype=np.float64)
    return region


def readout_rows(config: ModelConfig, total_patches: int, horizon_patches: int) -> tuple[int, int]:
    """Patch-row range whose head outputs cover the appended answer region.

    The decoder head at patch j predicts patch j+1, so the answer patches are
    read one row earlier; the encoder head reconstructs patch j itself.
    """
    if config.variant == DECODER_CAUSAL:
        return total_patches - horizon_patches - 1, total_patches - 1
    return total_patches - horizon_patches, total_patches


def horizon_patch_count(horizon: int, config: ModelConfig) -> int:
    if horizon % config.patch_size != 0:
        raise GeometryError(f"horizon {horizon} not divisible by patch size {config.patch_size}")
    return horizon // config.patch_size
