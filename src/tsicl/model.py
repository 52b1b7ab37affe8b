"""Toy patch-transformer backbones over context-sample token streams.

Two variants cover the two pre-training families the pipeline compares:

* ``decoder_causal`` — causal self-attention over patches; a linear head maps
  each patch representation to the next patch's values. Training feeds ground
  truth in the answer region (teacher forcing); evaluation feeds placeholder
  tokens and reads the same positions in one pass.
* ``encoder_masked`` — bidirectional attention; the head reconstructs each
  patch's own values, and the answer region is always appended as masked
  placeholder tokens.

Input tokens are (value, mask_flag, segment_flag) triples; ``patch_size``
consecutive steps are flattened into one 3*patch_size feature vector before a
linear projection into the model width.
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
    """Xavier-normal weights, zero biases, unit layer-norm gains."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xA11C)))
    params: dict[str, ad.Parameter] = {}

    def weight(name: str, fan_in: int, fan_out: int) -> None:
        std = np.sqrt(2.0 / (fan_in + fan_out))
        params[name] = ad.Parameter(rng.normal(0.0, std, size=(fan_in, fan_out)), name)

    def bias(name: str, n: int) -> None:
        params[name] = ad.Parameter(np.zeros(n), name)

    d, p = config.d_model, config.patch_size
    weight("in.w", 3 * p, d)
    bias("in.b", d)
    for layer in range(config.n_layers):
        pre = f"l{layer}."
        for nm in ("wq", "wk", "wv", "wo"):
            weight(pre + "attn." + nm, d, d)
        for nm in ("bq", "bk", "bv", "bo"):
            bias(pre + "attn." + nm, d)
        params[pre + "ln1.g"] = ad.Parameter(np.ones(d), pre + "ln1.g")
        bias(pre + "ln1.b", d)
        params[pre + "ln2.g"] = ad.Parameter(np.ones(d), pre + "ln2.g")
        bias(pre + "ln2.b", d)
        weight(pre + "ff.w1", d, config.ff_mult * d)
        bias(pre + "ff.b1", config.ff_mult * d)
        weight(pre + "ff.w2", config.ff_mult * d, d)
        bias(pre + "ff.b2", d)
    params["lnf.g"] = ad.Parameter(np.ones(d), "lnf.g")
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


_CAUSAL_CACHE: dict[int, np.ndarray] = {}


def _causal_mask(n: int) -> np.ndarray:
    if n not in _CAUSAL_CACHE:
        _CAUSAL_CACHE[n] = np.tril(np.ones((n, n), dtype=bool))
    return _CAUSAL_CACHE[n]


def _attention(x: ad.Tensor, params, prefix: str, config: ModelConfig, allowed) -> ad.Tensor:
    """Multi-head self-attention with every head folded into the batch axis."""
    heads = config.n_heads
    dh = config.d_model // heads

    def project(name: str) -> ad.Tensor:
        y = ad.add(ad.matmul(x, params[prefix + "w" + name]), params[prefix + "b" + name])
        return ad.split_heads(y, heads)

    # scaling q (B*H, S, dh) is cheaper than scaling the (B*H, S, S) scores
    q = ad.scale(project("q"), 1.0 / np.sqrt(dh))
    k, v = project("k"), project("v")
    attn = ad.softmax(ad.matmul(q, ad.transpose(k)), allowed=allowed)
    ctx = ad.merge_heads(ad.matmul(attn, v), heads)
    return ad.add(ad.matmul(ctx, params[prefix + "wo"]), params[prefix + "bo"])


def forward_patch_predictions(
    batch_tokens: np.ndarray, params: dict[str, ad.Parameter], config: ModelConfig
) -> ad.Tensor:
    """Per-patch predictions (B, S, p) for a batch of token streams (B, n, 3)."""
    if batch_tokens.ndim != 3 or batch_tokens.shape[-1] != 3:
        raise GeometryError(f"expected batch tokens of shape (B, n, 3), got {batch_tokens.shape}")
    n = batch_tokens.shape[1]
    if n > config.max_tokens:
        raise GeometryError(f"token length {n} exceeds max_tokens {config.max_tokens}")
    patches = patchify(batch_tokens, config.patch_size)
    s = patches.shape[1]
    x = ad.add(ad.matmul(ad.constant(patches), params["in.w"]), params["in.b"])
    x = ad.add(x, ad.constant(positional_encoding(s, config.d_model)))
    allowed = _causal_mask(s) if config.variant == DECODER_CAUSAL else None
    for layer in range(config.n_layers):
        pre = f"l{layer}."
        h = ad.layer_norm(x, params[pre + "ln1.g"], params[pre + "ln1.b"])
        x = ad.add(x, _attention(h, params, pre + "attn.", config, allowed))
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
