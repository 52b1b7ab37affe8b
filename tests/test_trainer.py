import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

import reference
from tsicl import autodiff as ad
from tsicl import trainer
from tsicl.context import ContextDataset, build_train_valid, sample_streams
from tsicl.errors import ConfigError
from tsicl.evalharness import batched_predict, context_path
from tsicl.model import (
    DECODER_CAUSAL,
    ENCODER_MASKED,
    VARIANTS,
    ModelConfig,
    forward_patch_predictions,
    init_params,
    readout_rows,
)
from tsicl.experiment import store_from_channels
from tsicl.series import ChannelSeries, SeriesTable
from tsicl.synthetic import SynthSpec, generate
from tsicl.tasks import (
    GEOMETRY,
    TASK_ORDER,
    VALUE,
    TaskKind,
    WindowSpec,
    answer_region,
    reach,
    target_offsets,
)
from tsicl.trainer import Adam, TrainConfig

CONFIG = TrainConfig(learning_rate=0.01, clip_norm=1.0)


def reference_step(values, grad, m, v, t, config):
    """Adam as Kingma & Ba (2015), Algorithm 1, written element by element over flat lists.

    The bias corrections are folded into the step size (the paper's section 2
    form), so ``ADAM_EPS`` is added to the uncorrected sqrt(v). The global norm
    of the gradient is clipped to ``clip_norm``.
    """
    norm = math.sqrt(sum(x * x for x in grad))
    clip = config.clip_norm / norm if norm > config.clip_norm else 1.0
    beta1, beta2 = trainer.BETA1, trainer.BETA2
    step = config.learning_rate * math.sqrt(1 - beta2**t) / (1 - beta1**t)
    for i, gi in enumerate(grad):
        gi *= clip
        m[i] = beta1 * m[i] + (1 - beta1) * gi
        v[i] = beta2 * v[i] + (1 - beta2) * gi * gi
        values[i] -= step * m[i] / (math.sqrt(v[i]) + trainer.ADAM_EPS)


def flat(a):
    return [float(x) for x in np.ravel(a)]


def test_adam_matches_the_reference_over_two_steps():
    rng = np.random.default_rng(0)
    data = rng.normal(size=9)  # a (2, 3) weight, then a bias of 3
    optimizer = Adam(data, CONFIG)
    values, m, v = flat(data), [0.0] * 9, [0.0] * 9

    # step 1: a small gradient, global norm < clip_norm; step 2: norm > clip_norm and no gradient for the bias
    steps = [0.05 * rng.normal(size=9), np.concatenate([3.0 * rng.normal(size=6), np.zeros(3)])]
    assert np.linalg.norm(steps[0]) < CONFIG.clip_norm < np.linalg.norm(steps[1])

    for t, grad in enumerate(steps, start=1):
        before = data.copy()
        optimizer.step(grad.copy())
        reference_step(values, flat(grad), m, v, t, CONFIG)

        assert optimizer.step_count == t
        np.testing.assert_allclose(data, values, rtol=1e-13, atol=0)
        np.testing.assert_allclose(optimizer.m, m, rtol=1e-13, atol=0)
        np.testing.assert_allclose(optimizer.v, v, rtol=1e-13, atol=0)
        if t == 1:
            # bias correction at t = 1: the first step moves every weight by ~lr against its gradient
            assert np.allclose(before - data, CONFIG.learning_rate * np.sign(grad), rtol=1e-3, atol=0)
    # the bias had no gradient at t = 2 but still moved on its first moment
    assert not np.array_equal(before[6:], data[6:])


def forecast_dataset(w: WindowSpec, m: int):
    """Three forecast samples with m demos each, demos after every query and disjoint from each other."""
    series = ChannelSeries("d", "c", np.random.default_rng(0).normal(size=300))
    table = SeriesTable([series])
    starts = [[100 + 24 * (m * i + k) for k in range(m)] + [24 * i] for i in range(3)]
    queries = [reference.example(TaskKind.FORECAST, series, ts[-1], w) for ts in starts]
    demos = [[reference.example(TaskKind.FORECAST, series, t, w) for t in ts[:-1]] for ts in starts]
    rows = np.array([[table.row(series, t) for t in ts] for ts in starts], dtype=np.int32)
    offsets = target_offsets(TaskKind.FORECAST, w, np.zeros((3, m + 1, 0), int)).astype(np.int32)
    return ContextDataset(table, w, np.zeros(3, int), rows, offsets), queries, demos


def test_train_returns_the_best_epochs_parameters_not_the_last(monkeypatch):
    """Validation losses 3, 1, 2, 4 make epoch 1 the best: four epochs end where a two-epoch run does."""
    config = ModelConfig(patch_size=4, d_model=8, n_layers=1, n_heads=2, ff_mult=2)
    dataset, _, _ = forecast_dataset(WindowSpec(8), 2)

    def run(valid_losses):
        scripted = iter(valid_losses)
        monkeypatch.setattr(trainer, "evaluate_loss", lambda *args: next(scripted))
        epochs = len(valid_losses)
        run_config = TrainConfig(batch_size=2, max_epochs=epochs, patience=epochs)
        params, record = trainer.train(init_params(config, seed=0), [dataset], [dataset], config, run_config)
        assert len(record.valid_losses) == epochs
        return record.best_epoch, {name: p.data.tobytes() for name, p in params.items()}

    best, two_epochs = run([3.0, 1.0])
    assert best == 1
    assert run([3.0, 1.0, 2.0, 4.0]) == (1, two_epochs)
    # the last epoch's parameters are another state: returning them would fail the check above
    best, four_epochs = run([3.0, 1.0, 2.0, 0.5])
    assert best == 3 and four_epochs != two_epochs


@pytest.mark.parametrize("variant", VARIANTS)
def test_supervise_demo_outputs_adds_one_region_per_demo(variant):
    w, m, p = WindowSpec(8), 2, 4
    L, h, hp = w.lookback, w.horizon, w.horizon // p
    config = ModelConfig(variant=variant, patch_size=p, d_model=8, n_layers=1, n_heads=2, ff_mult=2)
    dataset, queries, demos = forecast_dataset(w, m)
    idxs = [0, 1, 2]
    total_patches = (m * (L + h) + L + h) // p

    regions = trainer._loss_regions(sample_streams(dataset, idxs)[1], w, config, supervise_demos=True)
    assert len(regions) == 1 + m
    assert regions[0][:2] == readout_rows(config, total_patches, hp)
    assert all(np.array_equal(regions[0][2][i].ravel(), queries[i][1]) for i in idxs)
    shift = 1 if variant == DECODER_CAUSAL else 0
    for k, (r0, r1, truth) in enumerate(regions[1:]):
        start = k * (L + h) + L
        assert (r0, r1) == (start // p - shift, start // p + hp - shift)
        assert truth.shape == (len(idxs), hp, p)
        for i in idxs:
            assert np.array_equal(truth[i].ravel(), demos[i][k][1])
            assert np.array_equal(truth[i].ravel(), reference.build_stream(demos[i], queries[i])[start : start + h, VALUE])

    one_step = TrainConfig(batch_size=8, max_epochs=1, patience=1)
    if variant != DECODER_CAUSAL:
        # the encoder sees each demo answer in its input: supervising it would teach a copy
        with pytest.raises(ConfigError, match="refused on encoder_masked"):
            trainer.train(init_params(config, seed=0), [dataset], [dataset], config,
                          replace(one_step, supervise_demo_outputs=True))
        return
    losses = []
    for supervise in (False, True):
        run = replace(one_step, supervise_demo_outputs=supervise)
        _, record = trainer.train(init_params(config, seed=0), [dataset], [dataset], config, run)
        losses.append(record.train_losses[0])
    assert np.isfinite(losses[1]) and losses[1] != losses[0]


def test_every_stream_is_the_samples_reference_stream(monkeypatch):
    """Training and validation, for both variants, run each sample's reference stream: demos shown, query placeholders."""
    w = WindowSpec(8)
    h = w.horizon
    dataset, queries, demos = forecast_dataset(w, m=2)
    idxs = [0, 1, 2]
    tokens = np.stack([reference.build_stream(demos[i], queries[i]) for i in idxs])
    for i in idxs:
        assert np.array_equal(tokens[i, -h:], answer_region(h))

    fed = []
    real_forward = trainer.forward_patch_predictions

    def recording_forward(streams, *args, **kwargs):
        fed.append(streams)
        return real_forward(streams, *args, **kwargs)

    monkeypatch.setattr(trainer, "forward_patch_predictions", recording_forward)
    for variant in VARIANTS:
        config = ModelConfig(variant=variant, patch_size=4, d_model=8, n_layers=1, n_heads=2, ff_mult=2)
        trainer._batch_loss_graph(dataset, idxs, init_params(config), config, supervise_demos=False)
        assert fed.pop().tobytes() == tokens.tobytes()
        trainer.evaluate_loss([dataset], init_params(config), config)
        assert [len(streams) for streams in fed] == [2, 1]  # the batch's two halves
        assert np.concatenate(fed).tobytes() == tokens.tobytes()
        fed.clear()


@pytest.mark.parametrize("variant", VARIANTS)
def test_training_reads_the_loss_that_validation_reads(variant):
    """On one bucket, the training loss graph without a tape is the validation loss, in float64 to 1e-10.

    A decoder that trained with the query's true answer in its input would
    read answer patches 2..hp off shown values here and placeholders there.
    """
    config = ModelConfig(variant=variant, patch_size=4, d_model=8, n_layers=2, n_heads=2, ff_mult=2)
    dataset, _, _ = forecast_dataset(WindowSpec(8), 2)
    assert dataset.window.horizon // config.patch_size > 1
    rng = np.random.default_rng(5)
    params = init_params(config, seed=3)
    for p in params.values():  # float64, with non-trivial biases and gains
        p.data = p.data + 0.1 * rng.normal(size=p.data.shape)
    idxs = list(range(len(dataset)))
    trained = float(trainer._batch_loss_graph(dataset, idxs, params, config, supervise_demos=False).data)
    validated = trainer.evaluate_loss([dataset], params, config)
    assert abs(trained - validated) <= 1e-10 * validated


def test_a_trained_decoder_reads_its_later_answer_patches_about_as_well_as_the_first():
    """Ten epochs at seed 0: the validation MSE of answer patches 2..hp is at most 1.5x that of patch 1.

    Later patches sit farther from the input, so some growth is expected
    (1.27x here). A decoder trained with the query's true answer shown in its
    input meets placeholders first at validation, and reads 1.92x here.
    """
    store = store_from_channels(generate(SynthSpec(count=2, length=480, seed=0)), "synth")
    w = WindowSpec(12)
    parts = list(build_train_valid(store, [TaskKind.FORECAST, TaskKind.IMPUTE], w, [0, 2], seed=0, stride=2))
    train_ds, valid = ([part[k] for part in parts] for k in (1, 2))
    config = ModelConfig(patch_size=4, d_model=16, n_layers=1, n_heads=2, ff_mult=2)
    run = TrainConfig(batch_size=16, max_epochs=10, patience=10, seed=0)
    params, _ = trainer.train(init_params(config, seed=0), train_ds, valid, config, run)

    errors = []
    for part in valid:  # one stream length per demo count
        streams, targets = sample_streams(part, range(len(part)))
        errors.append(batched_predict(streams, w.horizon, params, config) - targets[:, -1])
    errors = np.concatenate(errors)
    per_patch = (errors**2).reshape(len(errors), -1, config.patch_size).mean(axis=(0, 2))
    assert len(per_patch) == 3
    assert per_patch[1:].mean() <= 1.5 * per_patch[0]


def test_training_runs_the_pinned_batches_in_order(monkeypatch):
    """Every batch two epochs of ``train`` run, training's and validation's, in order: each sample's task index,
    table rows and masks, pinned by a SHA-256 of those integers. Recorded where ``train`` cuts a batch into its
    halves, in this process, so a half that a worker runs counts too; demo counts are given unsorted."""
    store = store_from_channels(generate(SynthSpec(count=1, length=240, seed=0)), "synth")
    _, train_parts, valid_parts = zip(*build_train_valid(store, TASK_ORDER, WindowSpec(4), [2, 0, 1], seed=0))
    digest, real = hashlib.sha256(), trainer._halves

    def recording(part, k, batch):
        dataset = (train_parts if part == "train" else valid_parts)[k]
        digest.update(np.array([part == "train", len(batch)], dtype=np.int64).tobytes())
        for i in batch:
            task = dataset.tasks[i]
            masks = dataset.offsets[i] if GEOMETRY[TASK_ORDER[task]].impute else dataset.offsets[i, :, :0]
            digest.update(np.concatenate([[task], dataset.rows[i], masks.ravel()]).astype(np.int64).tobytes())
        return real(part, k, batch)

    monkeypatch.setattr(trainer, "_halves", recording)
    config = ModelConfig(patch_size=4, d_model=8, n_layers=1, n_heads=2, ff_mult=2)
    _, record = trainer.train(init_params(config, seed=0), train_parts, valid_parts, config,
                              TrainConfig(batch_size=3, max_epochs=2, patience=2))
    assert len(record.train_losses) == 2
    assert digest.hexdigest() == "1f8e028702356362a6846ca3ed0f2863e3e7b767f10dacabe1afbf3d4ef29c58"


def materialised(store, task: TaskKind, span, mask: list[int], w: WindowSpec):
    """The example at ``span`` with ``mask``, read straight off its split by ``reference.example``."""
    split = next(s for s in store.splits[span.channel].values()
                 if s.origin_offset <= span.start < s.origin_offset + len(s))
    return reference.example(task, split, span.start - split.origin_offset + reach(task, w)[0], w, mask)


@pytest.mark.parametrize(
    "variant, supervise", [(DECODER_CAUSAL, False), (ENCODER_MASKED, False), (DECODER_CAUSAL, True)]
)
def test_a_gathered_batch_is_the_streams_of_its_materialised_examples(variant, supervise):
    """Every batch stream and truth grid, bit for bit, against ``reference.build_stream`` of examples read off the store."""
    store = store_from_channels(generate(SynthSpec(count=2, length=240, seed=0)), "synth")
    w = WindowSpec(4)
    parts = [train for _, train, _ in build_train_valid(store, TASK_ORDER, w, [0, 2], seed=3, stride=2)]
    assert all(set(part.tasks.tolist()) == set(range(len(TASK_ORDER))) for part in parts)
    config = ModelConfig(variant=variant, patch_size=4, d_model=8, n_layers=1, n_heads=2, ff_mult=2)
    for part in parts:
        streams, targets = sample_streams(part, range(len(part)))
        regions = trainer._loss_regions(targets, w, config, supervise)
        for j, spans in enumerate(reference.sample_spans(part, i) for i in range(len(part))):
            task = TASK_ORDER[part.tasks[j]]
            masks = part.offsets[j].tolist() if GEOMETRY[task].impute else [[]] * len(spans)
            *demos, query = (materialised(store, task, x, mask, w) for x, mask in zip(spans, masks))
            assert streams[j].tobytes() == reference.build_stream(demos, query).tobytes()
            truths = [query[1], *(d[1] for d in demos)] if supervise else [query[1]]
            assert len(regions) == len(truths)
            for (_, _, grid), truth in zip(regions, truths):
                assert grid[j].tobytes() == truth.tobytes()


@pytest.mark.parametrize(
    "variant, supervise", [(DECODER_CAUSAL, False), (ENCODER_MASKED, False), (DECODER_CAUSAL, True)]
)
def test_batch_loss_is_the_mse_of_the_full_forward_regions(variant, supervise):
    """The loss graph runs its last block from the first supervised row; the loss is unchanged."""
    config = ModelConfig(variant=variant, patch_size=4, d_model=8, n_layers=2, n_heads=2, ff_mult=2)
    dataset, _, _ = forecast_dataset(WindowSpec(8), 2)
    rng = np.random.default_rng(3)
    params = init_params(config, seed=1)
    for p in params.values():  # float64, with non-trivial biases and gains
        p.data = p.data + 0.1 * rng.normal(size=p.data.shape)
    idxs = [0, 1, 2]
    got = float(trainer._batch_loss_graph(dataset, idxs, params, config, supervise).data)

    streams, targets = sample_streams(dataset, idxs)
    full = forward_patch_predictions(streams, params, config).data
    regions = trainer._loss_regions(targets, dataset.window, config, supervise)
    assert len(regions) == (3 if supervise else 1)
    pred = np.concatenate([full[:, r0:r1] for r0, r1, _ in regions], axis=1)
    truth = np.concatenate([t for _, _, t in regions], axis=1)
    want = float(np.mean((pred - truth) ** 2))
    assert abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize("variant", VARIANTS)
def test_batched_predict_reads_the_full_forward_readout_rows(variant):
    config = ModelConfig(variant=variant, patch_size=4, d_model=8, n_layers=2, n_heads=2, ff_mult=2)
    dataset, _, _ = forecast_dataset(WindowSpec(8), 2)
    rng = np.random.default_rng(4)
    params = init_params(config, seed=2)
    for p in params.values():  # float64, with non-trivial biases and gains
        p.data = p.data + 0.1 * rng.normal(size=p.data.shape)
    h = dataset.window.horizon
    streams = sample_streams(dataset, range(len(dataset)))[0]
    got = batched_predict(streams, h, params, config)

    full = forward_patch_predictions(streams, params, config).data
    r0, r1 = readout_rows(config, full.shape[1], h // config.patch_size)
    want = full[:, r0:r1].reshape(len(streams), h)
    assert np.max(np.abs(got - want)) <= 1e-12


class StrictArray(np.ndarray):
    """Parameter data that fails any ufunc given an array or numpy scalar of another dtype.

    Python scalars pass: they never change a result's dtype. An in-place update
    such as ``p.data -= step`` casts a wider ``step`` back silently, so this is
    what catches a float64 temporary inside ``Adam.step``.
    """

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        operands = inputs + (out or ())
        others = {np.asarray(x).dtype.name for x in operands if type(x) not in (bool, int, float)}
        assert others == {self.dtype.name}, f"{ufunc.__name__}.{method} mixes {sorted(others)}"

        def plain(xs):
            return tuple(x.view(np.ndarray) if isinstance(x, StrictArray) else x for x in xs)

        if out is None:
            return getattr(ufunc, method)(*plain(inputs), **kwargs)
        getattr(ufunc, method)(*plain(inputs), out=plain(out), **kwargs)
        return out[0]  # ``m *= b`` rebinds m to this: keep it strict


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("variant", VARIANTS)
def test_a_training_step_stays_in_the_parameters_dtype(variant, dtype, monkeypatch):
    """Forward, backward, Adam and readout all run in the parameters' dtype: nothing upcasts silently."""
    w, p = WindowSpec(8), 4
    config = ModelConfig(variant=variant, patch_size=p, d_model=8, n_layers=2, n_heads=2, ff_mult=2)
    dataset, _, _ = forecast_dataset(w, m=2)
    params = init_params(config, seed=0)
    assert {q.data.dtype for q in params.values()} == {np.dtype(np.float32)}
    data = np.concatenate([q.data.ravel() for q in params.values()]).astype(dtype).view(StrictArray)
    trainer._bind(params, data)
    grad = np.empty_like(data)
    optimizer = Adam(data, TrainConfig(clip_norm=1e-3))  # the clip fires

    seen = []  # (op, "out" or "dout", dtype) for every recorded op and every call of its rule
    real_finish = ad._finish

    def recording_finish(out, backward_fn):
        op = backward_fn.__qualname__.split(".")[0]  # every op's rule is its local ``backward``
        seen.append((op, "out", out.data.dtype))

        def backward(dout):
            seen.append((op, "dout", dout.dtype))
            backward_fn(dout)

        return real_finish(out, backward)

    monkeypatch.setattr(ad, "_finish", recording_finish)
    trainer._gradient(dataset, [0, 1, 2], params, config, variant == DECODER_CAUSAL, 3, grad)
    kinds = [kind for _, kind, _ in seen]
    # every op recorded for the loss ran its rule once
    assert kinds.count("dout") == kinds.count("out") > 0
    optimizer.step(grad)
    streams = sample_streams(dataset, [0, 1, 2])[0]
    preds = [batched_predict(streams, w.horizon, params, config), context_path(streams, streams[0], params, config, w.horizon)]

    assert {"matmul", "attention", "gelu", "layer_norm", "mse_loss"} <= {op for op, _, _ in seen}
    assert [entry for entry in seen if entry[2] != dtype] == []
    for name, q in params.items():
        assert q.grad.dtype == q.data.dtype == dtype, name
    assert isinstance(optimizer.m, StrictArray) and grad.dtype == optimizer.m.dtype == optimizer.v.dtype == dtype
    assert {pred.dtype for pred in preds} == {np.dtype(dtype)}
