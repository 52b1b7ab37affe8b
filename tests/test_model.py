import ctypes
import resource
import sys

import numpy as np
import pytest

import reference as ref
from tsicl import autodiff as ad
from tsicl import model, trainer
from tsicl.errors import GeometryError
from tsicl.evalharness import params_checksum
from tsicl.model import (
    DECODER_CAUSAL,
    ENCODER_MASKED,
    VARIANTS,
    ModelConfig,
    forward_patch_predictions,
    init_params,
    param_shapes,
)
from tsicl.trainer import Adam, TrainConfig


def tiny(variant: str) -> ModelConfig:
    return ModelConfig(variant=variant, patch_size=2, d_model=12, n_layers=2, n_heads=3, ff_mult=2)


def random_tokens(rng, batch: int, patches: int, patch_size: int) -> np.ndarray:
    tokens = np.zeros((batch, patches * patch_size, 3))
    tokens[..., 0] = rng.normal(size=tokens.shape[:2])
    tokens[..., 1:] = rng.integers(0, 2, size=tokens.shape[:2] + (2,))
    return tokens


def outputs_and_grads(tokens, params, config, target, first_row=0, prefix_tokens=None):
    """Outputs and parameter gradients; a prefix is encoded first and enters as a cached prefix."""
    prefix = None if prefix_tokens is None else model.encode_prefix(prefix_tokens, params, config)
    for p in params.values():
        p.zero_grad()
    with ad.Tape() as tape:
        preds = forward_patch_predictions(tokens, params, config, first_row, prefix)
        tape.backward(ad.mse_loss(preds, target))
    return preds.data, {name: p.grad for name, p in params.items()}


def assert_folded_heads_match_reference(variant, patches, monkeypatch, first_row=0, prefix_patches=None):
    """The model's outputs and gradients with the fused attention equal those with ``reference.attention``.

    The reference is a chain of finite-difference-checked ops over the same
    folded heads, with the causal mask over the P cached rows, if any, and then
    the rows of the stream.
    """
    config = tiny(variant)
    rng = np.random.default_rng(11)
    params = init_params(config, seed=3)
    for p in params.values():  # non-trivial biases and gains
        p.data = p.data + 0.1 * rng.normal(size=p.data.shape)
    tokens = random_tokens(rng, batch=3, patches=patches, patch_size=config.patch_size)
    target = rng.normal(size=(3, patches - first_row, config.patch_size))
    prefix = None
    if prefix_patches is not None:
        prefix = random_tokens(rng, batch=1, patches=prefix_patches, patch_size=config.patch_size)[0]

    got, got_grads = outputs_and_grads(tokens, params, config, target, first_row, prefix)
    monkeypatch.setattr(ad, "attention", ref.attention)
    want, want_grads = outputs_and_grads(tokens, params, config, target, first_row, prefix)

    assert np.max(np.abs(got - want)) <= 1e-10
    for name, g in want_grads.items():
        assert got_grads[name].shape == g.shape, name
        assert np.max(np.abs(got_grads[name] - g)) <= 1e-10 * max(1.0, np.max(np.abs(g))), name


def test_init_params_draws_the_param_shapes_in_their_order():
    config = ModelConfig(d_model=8, n_layers=2, n_heads=2, ff_mult=2)
    params = init_params(config, seed=3)
    assert [(name, p.data.shape) for name, p in params.items()] == list(param_shapes(config).items())
    # every trained checkpoint starts from these draws: a new order or std would move them all
    assert params_checksum(params) == "fe88771ca211da0f43ca52288a7900dced23991433158a3fe414ad6ba9abef67"


@pytest.mark.parametrize("variant", VARIANTS)
def test_folded_heads_match_per_head_reference(variant, monkeypatch):
    assert_folded_heads_match_reference(variant, 7, monkeypatch)


@pytest.mark.parametrize("variant", VARIANTS)
def test_folded_heads_match_per_head_reference_past_one_tile(variant, monkeypatch):
    assert_folded_heads_match_reference(variant, ad._ATTENTION_TILE + 7, monkeypatch)


@pytest.mark.parametrize("patches", [7, ad._ATTENTION_TILE + 7])
@pytest.mark.parametrize("variant", VARIANTS)
def test_folded_heads_match_per_head_reference_on_the_last_rows(variant, patches, monkeypatch):
    assert_folded_heads_match_reference(variant, patches, monkeypatch, first_row=patches - 4)


@pytest.mark.parametrize("first_row", [0, 3])
@pytest.mark.parametrize("prefix_patches", [5, ad._ATTENTION_TILE + 3])
def test_folded_heads_match_per_head_reference_after_a_cached_prefix(prefix_patches, first_row, monkeypatch):
    """The cached prefix is encoded by, and feeds, the attention under test in each run."""
    assert_folded_heads_match_reference(DECODER_CAUSAL, 7, monkeypatch, first_row, prefix_patches)


@pytest.mark.parametrize("patches", [7, ad._ATTENTION_TILE + 7])
@pytest.mark.parametrize("variant", VARIANTS)
def test_tail_forward_equals_the_full_forward_tail(variant, patches):
    config = tiny(variant)
    rng = np.random.default_rng(13)
    params = init_params(config, seed=5)
    for p in params.values():  # float64, with non-trivial biases and gains
        p.data = p.data + 0.1 * rng.normal(size=p.data.shape)
    tokens = random_tokens(rng, batch=3, patches=patches, patch_size=config.patch_size)
    for first_row in (1, patches - 4, patches - 1):
        target = rng.normal(size=(3, patches - first_row, config.patch_size))
        got, got_grads = outputs_and_grads(tokens, params, config, target, first_row)
        for p in params.values():
            p.zero_grad()
        with ad.Tape() as tape:
            full = forward_patch_predictions(tokens, params, config)
            tail = ad.row_slice(full, first_row, patches)
            tape.backward(ad.mse_loss(tail, target))
        assert got.shape == tail.shape
        assert np.max(np.abs(got - tail.data)) <= 1e-12, first_row
        for name, p in params.items():
            assert got_grads[name] is not None and p.grad is not None, (first_row, name)
            assert np.max(np.abs(got_grads[name] - p.grad)) <= 1e-12 * max(1.0, np.max(np.abs(p.grad))), (
                first_row, name)


@pytest.mark.parametrize("first_row", [-1, 7])
def test_first_row_outside_the_stream_is_refused(first_row):
    config = tiny(DECODER_CAUSAL)
    tokens = random_tokens(np.random.default_rng(0), batch=1, patches=7, patch_size=config.patch_size)
    with pytest.raises(GeometryError, match="first_row"):
        forward_patch_predictions(tokens, init_params(config), config, first_row=first_row)


def perturbed_params(config, seed, dtype=np.float64):
    rng = np.random.default_rng(seed)
    params = init_params(config, seed=seed)
    for p in params.values():  # non-trivial biases and gains
        p.data = (p.data + 0.1 * rng.normal(size=p.data.shape)).astype(dtype)
    return params


@pytest.mark.parametrize(
    "dtype, bound",
    # measured: <= 1.1e-15 in float64 and <= 2.1e-7 in float32, relative to the largest output
    [(np.float64, 1e-12), (np.float32, 1e-5)],
)
@pytest.mark.parametrize(
    "prefix_patches", [1, ad._ATTENTION_TILE - 1, ad._ATTENTION_TILE + 3, 2 * ad._ATTENTION_TILE + 5]
)
def test_cached_prefix_forward_equals_the_full_forward_rows(prefix_patches, dtype, bound):
    """Rows [P + first_row, S) of the full forward over prefix ++ stream, for every stream of the batch."""
    config = tiny(DECODER_CAUSAL)
    params = perturbed_params(config, 6, dtype)
    rng = np.random.default_rng(prefix_patches)
    p, patches = config.patch_size, 9
    prefix = random_tokens(rng, batch=1, patches=prefix_patches, patch_size=p)[0]
    tokens = random_tokens(rng, batch=3, patches=patches, patch_size=p)
    full = forward_patch_predictions(
        np.concatenate([np.broadcast_to(prefix, (3,) + prefix.shape), tokens], axis=1), params, config
    ).data
    cache = model.encode_prefix(prefix, params, config)
    assert [(k.shape, v.shape) for k, v in cache] == [((1, prefix_patches, config.d_model),) * 2] * config.n_layers
    for first_row in (0, 4, patches - 1):
        got = forward_patch_predictions(tokens, params, config, first_row, cache).data
        want = full[:, prefix_patches + first_row :]
        assert got.dtype == want.dtype == dtype and got.shape == want.shape
        assert np.max(np.abs(got - want)) <= bound * max(1.0, np.max(np.abs(want))), first_row


def test_cached_prefix_counts_against_max_tokens(monkeypatch):
    """The guard sees prefix + stream tokens, and names that full length."""
    monkeypatch.setattr(model, "MAX_TOKENS", 40)
    config = tiny(DECODER_CAUSAL)
    params = init_params(config)
    rng = np.random.default_rng(0)
    cache = model.encode_prefix(random_tokens(rng, batch=1, patches=15, patch_size=2)[0], params, config)
    forward_patch_predictions(random_tokens(rng, batch=2, patches=5, patch_size=2), params, config, 0, cache)
    with pytest.raises(GeometryError, match="token length 42 exceeds MAX_TOKENS 40"):
        forward_patch_predictions(random_tokens(rng, batch=2, patches=6, patch_size=2), params, config, 0, cache)
    with pytest.raises(GeometryError, match="token length 42 exceeds MAX_TOKENS 40"):
        model.encode_prefix(random_tokens(rng, batch=1, patches=21, patch_size=2)[0], params, config)


def test_encoder_refuses_a_cached_prefix():
    """Encoder prefix rows attend to the stream after them, so their keys and values are not shared."""
    decoder, encoder = tiny(DECODER_CAUSAL), tiny(ENCODER_MASKED)
    params = init_params(decoder)
    rng = np.random.default_rng(0)
    prefix = random_tokens(rng, batch=1, patches=4, patch_size=2)[0]
    with pytest.raises(GeometryError, match="encoder_masked cannot reuse a cached prefix"):
        model.encode_prefix(prefix, params, encoder)
    cache = model.encode_prefix(prefix, params, decoder)
    with pytest.raises(GeometryError, match="encoder_masked cannot reuse a cached prefix"):
        forward_patch_predictions(random_tokens(rng, batch=2, patches=5, patch_size=2), params, encoder, 0, cache)


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
        return float(ad.mse_loss(preds, target).data)

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


def assert_float32_tracks_float64(variant, patches):
    config = tiny(variant)
    rng = np.random.default_rng(11)
    params32 = init_params(config, seed=3)
    for p in params32.values():  # non-trivial biases and gains, still float32
        p.data = (p.data + 0.1 * rng.normal(size=p.data.shape)).astype(np.float32)
    params64 = {name: ad.Parameter(p.data.astype(np.float64), name) for name, p in params32.items()}
    tokens = random_tokens(rng, batch=3, patches=patches, patch_size=config.patch_size)
    target = rng.normal(size=(3, patches, config.patch_size))

    got, got_grads = outputs_and_grads(tokens, params32, config, target)
    want, want_grads = outputs_and_grads(tokens, params64, config, target)

    assert got.dtype == np.float32 and want.dtype == np.float64
    # measured: <= 5.7e-7 for outputs and <= 5.0e-7 for gradients. The gradient bound is
    # relative to the largest gradient of any parameter, not per parameter.
    assert np.max(np.abs(got - want)) <= 1e-5 * np.max(np.abs(want))
    largest = max(np.max(np.abs(g)) for g in want_grads.values())
    for name, g in want_grads.items():
        assert got_grads[name].dtype == np.float32, name
        assert np.max(np.abs(got_grads[name] - g)) <= 1e-5 * largest, name


@pytest.mark.parametrize("variant", VARIANTS)
def test_float32_run_tracks_the_float64_run(variant):
    assert_float32_tracks_float64(variant, 7)


@pytest.mark.parametrize("variant", VARIANTS)
def test_float32_run_tracks_the_float64_run_past_one_tile(variant):
    assert_float32_tracks_float64(variant, ad._ATTENTION_TILE + 7)


def test_training_steps_reuse_the_heap():
    """After one warm-up step, a training step's activations land on pages already mapped."""
    assert ad._keep_freed_memory() == sys.platform.startswith("linux")
    config = ModelConfig(d_model=32, n_layers=2, n_heads=4)
    rng = np.random.default_rng(5)
    params = init_params(config, seed=1)
    data = np.concatenate([p.data.ravel() for p in params.values()])
    trainer._bind(params, data)
    grad = np.empty_like(data)
    optimizer = Adam(data, TrainConfig())
    tokens = random_tokens(rng, batch=32, patches=180 // config.patch_size, patch_size=config.patch_size)
    target = rng.normal(size=(32, 180 // config.patch_size, config.patch_size))

    def step():
        _, grads = outputs_and_grads(tokens, params, config, target)
        np.concatenate([g.ravel() for g in grads.values()], out=grad)
        optimizer.step(grad)

    step()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(3):
        step()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    # with the heap trimmed after every step, these three steps take ~23,000 faults
    assert faults < 200


def _no_libc(name):
    raise OSError(f"cannot load {name}")


@pytest.mark.parametrize("cdll", [_no_libc, lambda name: object()], ids=["no_libc", "no_mallopt"])
def test_keep_freed_memory_is_a_no_op_without_mallopt(cdll, monkeypatch):
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert ad._keep_freed_memory() is False
