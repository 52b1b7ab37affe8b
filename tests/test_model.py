import numpy as np
import pytest

from tsicl import autodiff as ad
from tsicl import model
from tsicl.model import DECODER_CAUSAL, VARIANTS, ModelConfig, forward_patch_predictions, init_params


def per_head_attention(x, params, prefix, config):
    """Reference attention: one slice, score matmul and softmax per head, then concat."""
    d, heads = config.d_model, config.n_heads
    dh = d // heads
    s = x.shape[1]
    allowed = np.tril(np.ones((s, s), dtype=bool)) if config.variant == DECODER_CAUSAL else None
    q = ad.add(ad.matmul(x, params[prefix + "wq"]), params[prefix + "bq"])
    k = ad.add(ad.matmul(x, params[prefix + "wk"]), params[prefix + "bk"])
    v = ad.add(ad.matmul(x, params[prefix + "wv"]), params[prefix + "bv"])
    mixed = []
    for i in range(heads):
        lo, hi = i * dh, (i + 1) * dh
        qh = ad.axis_slice(q, lo, hi, axis=-1)
        kh = ad.axis_slice(k, lo, hi, axis=-1)
        vh = ad.axis_slice(v, lo, hi, axis=-1)
        scores = ad.scale(ad.matmul(qh, ad.transpose(kh)), 1.0 / np.sqrt(dh))
        mixed.append(ad.matmul(ad.softmax(scores, allowed=allowed), vh))
    ctx = ad.concat(mixed, axis=-1)
    return ad.add(ad.matmul(ctx, params[prefix + "wo"]), params[prefix + "bo"])


def tiny(variant: str) -> ModelConfig:
    return ModelConfig(variant=variant, patch_size=2, d_model=12, n_layers=2, n_heads=3, ff_mult=2)


def random_tokens(rng, batch: int, patches: int, patch_size: int) -> np.ndarray:
    tokens = np.zeros((batch, patches * patch_size, 3))
    tokens[..., 0] = rng.normal(size=tokens.shape[:2])
    tokens[..., 1:] = rng.integers(0, 2, size=tokens.shape[:2] + (2,))
    return tokens


def outputs_and_grads(tokens, params, config, target):
    for p in params.values():
        p.zero_grad()
    with ad.Tape() as tape:
        preds = forward_patch_predictions(tokens, params, config)
        tape.backward(ad.mse_loss(preds, target, np.ones(target.shape)))
    return preds.data, {name: p.grad for name, p in params.items()}


def assert_folded_heads_match_reference(variant, patches, monkeypatch):
    config = tiny(variant)
    rng = np.random.default_rng(11)
    params = init_params(config, seed=3)
    for p in params.values():  # non-trivial biases and gains
        p.data = p.data + 0.1 * rng.normal(size=p.data.shape)
    tokens = random_tokens(rng, batch=3, patches=patches, patch_size=config.patch_size)
    target = rng.normal(size=(3, patches, config.patch_size))

    got, got_grads = outputs_and_grads(tokens, params, config, target)
    monkeypatch.setattr(model, "_attention", per_head_attention)
    want, want_grads = outputs_and_grads(tokens, params, config, target)

    assert np.max(np.abs(got - want)) <= 1e-10
    for name, g in want_grads.items():
        assert got_grads[name].shape == g.shape, name
        assert np.max(np.abs(got_grads[name] - g)) <= 1e-10 * max(1.0, np.max(np.abs(g))), name


@pytest.mark.parametrize("variant", VARIANTS)
def test_folded_heads_match_per_head_reference(variant, monkeypatch):
    assert_folded_heads_match_reference(variant, 7, monkeypatch)


@pytest.mark.parametrize("variant", VARIANTS)
def test_folded_heads_match_per_head_reference_past_one_tile(variant, monkeypatch):
    assert_folded_heads_match_reference(variant, ad._ATTENTION_TILE + 7, monkeypatch)


def assert_decoder_is_causal(patches):
    config = tiny(DECODER_CAUSAL)
    rng = np.random.default_rng(5)
    params = init_params(config, seed=1)
    p = config.patch_size
    tokens = random_tokens(rng, batch=2, patches=patches, patch_size=p)
    base = forward_patch_predictions(tokens, params, config).data
    for j in range(patches):
        perturbed = tokens.copy()
        perturbed[:, j * p : (j + 1) * p, 0] += rng.normal(size=(2, p))
        out = forward_patch_predictions(perturbed, params, config).data
        assert np.abs(out[:, :j] - base[:, :j]).max(initial=0.0) <= 1e-12, f"patch {j} leaked backwards"
        assert np.max(np.abs(out[:, j] - base[:, j])) > 1e-6, f"patch {j} did not reach its own row"


def test_decoder_is_causal():
    assert_decoder_is_causal(8)


def test_decoder_is_causal_past_one_tile():
    assert_decoder_is_causal(ad._ATTENTION_TILE + 7)


@pytest.mark.parametrize("variant", VARIANTS)
def test_constants_hold_no_gradient(variant, monkeypatch):
    config = tiny(variant)
    rng = np.random.default_rng(2)
    params = init_params(config, seed=4)
    tokens = random_tokens(rng, batch=2, patches=6, patch_size=config.patch_size)
    target = rng.normal(size=(2, 6, config.patch_size))

    def run(make):
        """Gradients, and the two inputs (patches, positional table) built by ``make``."""
        inputs = []

        def recording(data):
            inputs.append(make(data))
            return inputs[-1]

        monkeypatch.setattr(ad, "constant", recording)
        _, grads = outputs_and_grads(tokens, params, config, target)
        return inputs, grads

    constants, got = run(ad.constant)
    # reference: the same inputs as plain tensors, which accumulate a gradient like any other
    tensors, want = run(ad.Tensor)
    assert len(constants) == 2 and all(t.grad is None for t in constants)
    assert len(tensors) == 2 and all(t.grad is not None for t in tensors)
    for name, g in want.items():
        assert np.array_equal(got[name], g), name


@pytest.mark.parametrize("variant", VARIANTS)
def test_whole_model_matches_finite_differences(variant):
    config = ModelConfig(variant=variant, patch_size=2, d_model=4, n_layers=2, n_heads=2, ff_mult=2)
    rng = np.random.default_rng(7)
    params = init_params(config, seed=2)
    for p in params.values():  # non-trivial biases and gains
        p.data = p.data + 0.1 * rng.normal(size=p.data.shape)
    tokens = random_tokens(rng, batch=2, patches=5, patch_size=config.patch_size)
    target = rng.normal(size=(2, 5, config.patch_size))

    def loss() -> float:
        preds = forward_patch_predictions(tokens, params, config)
        return float(ad.mse_loss(preds, target, np.ones(target.shape)).data)

    _, exact = outputs_and_grads(tokens, params, config, target)
    eps = 1e-6
    for name, p in params.items():
        flat = p.data.reshape(-1)
        approx = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = loss()
            flat[i] = orig - eps
            down = loss()
            flat[i] = orig
            approx[i] = (up - down) / (2 * eps)
        err = np.abs(exact[name].reshape(-1) - approx) / np.maximum(np.abs(approx), 1e-3)
        assert err.max() <= 1e-5, f"{name}: rel err {err.max():.2e}"
