"""Toy patch-transformer backbones over context-sample token streams.

The model runs the streams ``context.example_streams`` lays out and fixes only
which head row reads an answer patch (``readout_rows``). A training or
validation batch is samples of one ``context.ContextDataset``, whose samples
share a demo count and so a stream length: ``context.sample_streams`` gathers
them as one rectangular (B, n, 3) array.
Two variants cover the two pre-training families the pipeline compares:

* ``decoder_causal`` — causal self-attention over patches; a linear head maps
  each patch representation to the next patch's values. Training and
  evaluation both feed placeholder tokens in the query's answer region and
  read its positions in one pass.
* ``encoder_masked`` — bidirectional attention; the head reconstructs each
  patch's own values, and the query's answer region is always masked
  placeholder tokens.

Only a few patch rows are ever read: the query's answer region, in the loss
and in evaluation, and the demos' answer regions when those are supervised.
So the last block computes its queries, its feed-forward and the head only at
the rows from the first one read (``first_row``); its keys and values, and
every earlier block, still cover the whole stream.

Evaluation puts one demo prefix in front of many queries. Under causal
attention no prefix row sees what follows it, so each layer's keys and values
for the prefix rows are the same for every query. ``encode_prefix`` runs the
prefix once, as a batch of one, and keeps the keys and values each block's
attention read; its last block runs on one row. ``forward_patch_predictions``
then runs only each query's own rows, at positions after the prefix,
attending to the cached keys and values ahead of their own. The encoder
cannot reuse a prefix: its prefix rows attend to the query. Training and
validation, which runs the training loss without a tape, do not: every
sample has its own demos, and the loss needs gradients through them.

Input tokens are (value, mask_flag, segment_flag) triples; ``patch_size``
consecutive steps are flattened into one 3*patch_size feature vector before a
linear projection into the model width.

``init_params`` stores float32 parameters, and the model runs in its
parameters' dtype: ``forward_patch_predictions`` casts its inputs to it, so
float64 parameters (as the gradient checks build) give a float64 run. Token
streams, targets and the metrics that score predictions stay float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, GeometryError

DECODER_CAUSAL = "decoder_causal"
ENCODER_MASKED = "encoder_masked"
VARIANTS = (DECODER_CAUSAL, ENCODER_MASKED)
MAX_TOKENS = 2048  # the longest stream, cached prefix included, that a forward pass accepts


@dataclass(frozen=True)
class ModelConfig:
    variant: str = DECODER_CAUSAL
    patch_size: int = 4
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 4
    ff_mult: int = 4

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        for name in ("patch_size", "d_model", "n_layers", "n_heads", "ff_mult"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")


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


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter's name and shape, in the order ``init_params`` creates them."""
    d, p, f = config.d_model, config.patch_size, config.ff_mult * config.d_model
    shapes = {"in.w": (3 * p, d), "in.b": (d,)}
    for layer in range(config.n_layers):
        pre = f"l{layer}."
        for nm in ("attn.wq", "attn.wk", "attn.wv", "attn.wo"):
            shapes[pre + nm] = (d, d)
        for nm in ("attn.bq", "attn.bv", "attn.bo", "ln1.g", "ln1.b", "ln2.g", "ln2.b"):
            shapes[pre + nm] = (d,)
        shapes |= {pre + "ff.w1": (d, f), pre + "ff.b1": (f,), pre + "ff.w2": (f, d), pre + "ff.b2": (d,)}
    return shapes | {"lnf.g": (d,), "lnf.b": (d,), "head.w": (d, p), "head.b": (p,)}


def init_params(config: ModelConfig, seed: int = 0) -> dict[str, ad.Parameter]:
    """Xavier-normal weights, zero biases, unit layer-norm gains, stored as float32.

    Weights are the 2-D entries of ``param_shapes``, drawn in its order in
    float64, then rounded to float32.
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xA11C)))
    params: dict[str, ad.Parameter] = {}
    for name, shape in param_shapes(config).items():
        if len(shape) == 2:
            values = rng.normal(0.0, np.sqrt(2.0 / sum(shape)), size=shape)
        else:
            values = np.ones(shape) if name.endswith(".g") else np.zeros(shape)
        params[name] = ad.Parameter(values.astype(np.float32), name)
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


# one layer's keys and values, each (B, P, d); a cached prefix's has B = 1
KeysValues = tuple[np.ndarray, np.ndarray]


def _attention(
    h: ad.Tensor, params, pre: str, config: ModelConfig, first_row: int, past: KeysValues | None
) -> tuple[ad.Tensor, KeysValues]:
    """Multi-head self-attention, every head folded into the batch axis, and the keys and values it read.

    Queries, and so the output rows, cover rows [first_row, S) of ``h``; keys
    and values cover every row, behind the P rows of ``past`` if given: a
    (1, P, d) pair shared by every stream of the batch, holding no gradient.
    The last query row sits at key position P + S - 1. The key projection has
    no bias: it would add q_i . b_k to every score of row i, a shift that
    softmax ignores.
    """
    heads = config.n_heads
    hq = ad.row_slice(h, first_row, h.shape[1]) if first_row else h
    q = ad.matmul(hq, params[pre + "wq"], params[pre + "bq"])
    k = ad.matmul(h, params[pre + "wk"])
    v = ad.matmul(h, params[pre + "wv"], params[pre + "bv"])
    if past is not None:
        lead = (h.shape[0],) + past[0].shape[1:]
        k, v = (ad.concat([ad.constant(np.broadcast_to(c, lead)), t], axis=1) for c, t in zip(past, (k, v)))
    causal = config.variant == DECODER_CAUSAL
    mixed = ad.attention(*(ad.split_heads(t, heads) for t in (q, k, v)), causal=causal)
    ctx = ad.merge_heads(mixed, heads)
    return ad.matmul(ctx, params[pre + "wo"], params[pre + "bo"]), (k.data, v.data)


def _block(
    x: ad.Tensor, params, layer: int, config: ModelConfig, first_row: int, past: KeysValues | None
) -> tuple[ad.Tensor, KeysValues]:
    """Rows [first_row, S) of block ``layer``'s output for input ``x``, and the keys and values it read."""
    pre = f"l{layer}."
    h = ad.layer_norm(x, params[pre + "ln1.g"], params[pre + "ln1.b"])
    if first_row:
        x = ad.row_slice(x, first_row, x.shape[1])
    attended, keys_values = _attention(h, params, pre + "attn.", config, first_row, past)
    x = ad.add(x, attended)
    f = ad.layer_norm(x, params[pre + "ln2.g"], params[pre + "ln2.b"])
    f = ad.matmul(f, params[pre + "ff.w1"], params[pre + "ff.b1"])
    f = ad.gelu(f)
    f = ad.matmul(f, params[pre + "ff.w2"], params[pre + "ff.b2"])
    return ad.add(x, f), keys_values


def _embed(batch_tokens: np.ndarray, params, config: ModelConfig, past_patches: int) -> ad.Tensor:
    """Projected patches plus their positions, which start after ``past_patches`` cached ones."""
    dtype = params["in.w"].data.dtype
    patches = patchify(batch_tokens, config.patch_size).astype(dtype, copy=False)
    s = patches.shape[1]
    pe = positional_encoding(past_patches + s, config.d_model)[past_patches:]
    x = ad.matmul(ad.constant(patches), params["in.w"], params["in.b"])
    return ad.add(x, ad.constant(pe.astype(dtype, copy=False)))


def _check_tokens(n: int, config: ModelConfig, cached: bool) -> None:
    if cached and config.variant != DECODER_CAUSAL:
        raise GeometryError(
            f"{config.variant} cannot reuse a cached prefix: its prefix rows attend to what follows them"
        )
    if n > MAX_TOKENS:
        raise GeometryError(f"token length {n} exceeds MAX_TOKENS {MAX_TOKENS}")


def encode_prefix(tokens: np.ndarray, params: dict[str, ad.Parameter], config: ModelConfig) -> list[KeysValues]:
    """Each layer's keys and values, a (1, P, d) pair, for a decoder stream prefix of P patches.

    Under causal attention no prefix row sees what follows it, so these are
    the same for every stream that starts with ``tokens`` (n, 3). The last
    block's output is unread, so it runs on the last row alone.
    """
    _check_tokens(len(tokens), config, cached=True)
    x = _embed(np.asarray(tokens)[None], params, config, 0)
    cache = []
    for layer in range(config.n_layers):
        first_row = x.shape[1] - 1 if layer == config.n_layers - 1 else 0
        x, keys_values = _block(x, params, layer, config, first_row, None)
        cache.append(keys_values)
    return cache


def forward_patch_predictions(
    batch_tokens: np.ndarray,
    params: dict[str, ad.Parameter],
    config: ModelConfig,
    first_row: int = 0,
    prefix: list[KeysValues] | None = None,
) -> ad.Tensor:
    """Predictions (B, S - first_row, p) at patch rows [first_row, S) of streams (B, n, 3).

    Every block but the last runs on all S rows, because its outputs are the
    last block's keys and values. The last block computes its queries, and
    everything after them, only at rows >= ``first_row``. Row i of the result
    equals row first_row + i of the full forward. The streams and the
    positional table enter in the parameters' dtype.

    ``prefix``, from ``encode_prefix`` (decoder only), stands for P patches
    that precede every stream: the streams then sit at positions P.. and
    attend to the cached keys and values first, and row i of the result
    equals row P + first_row + i of the full forward over prefix ++ stream.
    """
    if batch_tokens.ndim != 3 or batch_tokens.shape[-1] != 3:
        raise GeometryError(f"expected batch tokens of shape (B, n, 3), got {batch_tokens.shape}")
    past_patches = 0 if prefix is None else prefix[0][0].shape[1]
    _check_tokens(past_patches * config.patch_size + batch_tokens.shape[1], config, cached=prefix is not None)
    x = _embed(batch_tokens, params, config, past_patches)
    s = x.shape[1]
    if not 0 <= first_row < s:
        raise GeometryError(f"first_row {first_row} outside the {s} patch rows")
    for layer in range(config.n_layers):
        start = first_row if layer == config.n_layers - 1 else 0
        past = None if prefix is None else prefix[layer]
        x, _ = _block(x, params, layer, config, start, past)
    x = ad.layer_norm(x, params["lnf.g"], params["lnf.b"])
    return ad.matmul(x, params["head.w"], params["head.b"])


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
