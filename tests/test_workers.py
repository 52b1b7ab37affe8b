"""Forked workers for eval scoring and training: same bits as serial, errors and frozen weights cross back, no child is left.

``workers.pool`` makes every worker: eval scores ``shares`` of channels through ``fork_join``, one run of a pool, and
training runs the second half of every batch and of the validation set in one pool's worker. Training's bits depend
on neither the core count nor the BLAS thread count. After every test here, no child is left unreaped.
"""

import os
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import overrides
from tsicl import autodiff as ad
from tsicl import evalharness, experiment, trainer, workers
from tsicl.cli import main
from tsicl.context import ContextDataset, build_train_valid
from tsicl.errors import DataError, NumericalError
from tsicl.evalharness import PROBES, EvalProtocol, score_probes
from tsicl.model import DECODER_CAUSAL, ENCODER_MASKED, ModelConfig, init_params
from tsicl.synthetic import SynthSpec, generate
from tsicl.tasks import TaskKind, WindowSpec
from tsicl.trainer import TrainConfig

SRC = Path(__file__).resolve().parents[1] / "src"
WINDOW = WindowSpec(4)
TINY_MODEL = ModelConfig(patch_size=4, d_model=8, n_layers=1, n_heads=2, ff_mult=2)
PROTOCOL = EvalProtocol(TaskKind.BACKTRACE, (TaskKind.FORECAST, TaskKind.IMPUTE), WINDOW, demo_count=2)

needs_openblas = pytest.mark.skipif(workers.blas_threads_functions() is None, reason="no OpenBLAS loaded")


def wide_store():
    """Two channels with 85 backtrace queries each at stride 1: two workers' worth."""
    store = experiment.store_from_channels(generate(SynthSpec(count=2, length=480, seed=0)), "synth")
    queries = sum(evalharness.query_count(len(store.series(ch, "test")), TaskKind.BACKTRACE, WINDOW, 1)
                  for ch in store.channels)
    assert queries == 170 >= 2 * evalharness.BATCH
    return store


def cores(monkeypatch, n: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_openblas
def test_forked_scores_equal_serial_scores(monkeypatch):
    store, params = wide_store(), init_params(TINY_MODEL, seed=1)
    runs = {}
    for n in (1, 2):
        cores(monkeypatch, n)
        preds, truth, used = score_probes(PROTOCOL, PROBES, store, params, TINY_MODEL, seed=3, stride=1)
        assert used == n
        runs[n] = {**{probe: p.tobytes() for probe, p in preds.items()}, "truth": truth.tobytes()}
    assert runs[1] == runs[2]


def test_a_small_store_is_scored_serially(monkeypatch):
    cores(monkeypatch, 2)
    store = experiment.store_from_channels(generate(SynthSpec(count=2, length=240, seed=0)), "synth")
    *_, used = score_probes(PROTOCOL, PROBES, store, init_params(TINY_MODEL), TINY_MODEL, stride=1)
    assert used == 1  # 74 queries: fewer than one batch per worker


@needs_openblas
def test_a_worker_does_not_fork_again(monkeypatch):
    cores(monkeypatch, 2)
    assert workers.fork_join(lambda share: len(workers.fork_join(lambda inner: None, 2, 2)), 2, 2) == [2, 1]


@needs_openblas
def test_an_error_in_the_callers_share_kills_the_workers(monkeypatch):
    cores(monkeypatch, 2)

    def task(share):
        if share.start == 0:
            raise ValueError("the caller's share failed")
        time.sleep(60)

    start = time.monotonic()
    with pytest.raises(ValueError, match="the caller's share failed"):
        workers.fork_join(task, 2, 2)
    assert time.monotonic() - start < 30


@needs_openblas
def test_a_worker_that_dies_without_an_answer_is_an_error(monkeypatch):
    cores(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="died without a result: wait status 768"):  # exit code 3
        workers.fork_join(lambda share: os._exit(3) if share.start else None, 2, 2)


@pytest.mark.parametrize("count", [1, 2, 3, 4])
def test_shares_are_contiguous_in_order_and_longest_first(count):
    for n in range(41):
        parts = workers.shares(n, count)
        lengths = [len(part) for part in parts]
        assert len(parts) == count and all(part.step == 1 for part in parts)
        assert [i for part in parts for i in part] == list(range(n))
        assert lengths == sorted(lengths, reverse=True) and lengths[0] - lengths[-1] <= 1


@needs_openblas
@pytest.mark.parametrize("n_cores, most", [(1, 3), (2, 3), (2, 1)])
def test_a_pool_with_fewer_processes_than_requests_answers_them_in_order(monkeypatch, n_cores, most):
    cores(monkeypatch, n_cores)
    forks, test_pid = counting_forks(monkeypatch), os.getpid()
    forked = min(n_cores, most) - 1
    with workers.pool(lambda x: (x * x, _in_a_child(test_pid)), most) as (run, count):
        assert count == forked + 1
        for _ in range(3):
            assert run([1, 2, 3]) == [(1, False), (4, forked > 0), (9, False)]
            assert run([5]) == [(25, False)]
    assert len(forks) == forked  # once for the block, not once per run


def _in_a_child(test_pid: int) -> bool:
    return os.getpid() != test_pid


def fail_the_baseline_in_children(monkeypatch) -> None:
    """``baseline_path`` raises a ``DataError`` in a forked worker only; the caller's share scores as usual."""
    real, test_pid = evalharness.baseline_path, os.getpid()

    def failing(*args):
        if _in_a_child(test_pid):
            raise DataError("the baseline failed in a worker")
        return real(*args)

    monkeypatch.setattr(evalharness, "baseline_path", failing)


@needs_openblas
def test_a_data_error_in_a_worker_reaches_the_caller(monkeypatch):
    cores(monkeypatch, 2)
    fail_the_baseline_in_children(monkeypatch)
    with pytest.raises(DataError, match="the baseline failed in a worker"):
        score_probes(PROTOCOL, ("ictp", "baseline"), wide_store(), init_params(TINY_MODEL), TINY_MODEL, stride=1)


@needs_openblas
def test_a_data_error_in_a_worker_exits_3(pipeline_dir, tmp_path, monkeypatch, capsys):
    for f in pipeline_dir.iterdir():
        (tmp_path / f.name).write_bytes(f.read_bytes())
    wide = ["--set", "synth_length=480"]
    assert main(["synth", *overrides(tmp_path), *wide]) == 0 and main(["ingest", *overrides(tmp_path), *wide]) == 0
    cores(monkeypatch, 2)
    fail_the_baseline_in_children(monkeypatch)
    assert main(["eval", *overrides(tmp_path), "--set", "eval_stride=1"]) == 3
    assert "the baseline failed in a worker" in capsys.readouterr().err


@needs_openblas
def test_a_weight_moved_in_a_worker_is_refused(monkeypatch):
    cores(monkeypatch, 2)
    real, test_pid = evalharness.batched_predict, os.getpid()

    def nudging(streams, horizon, params, config, **kwargs):
        if _in_a_child(test_pid):
            params["head.b"].data = params["head.b"].data + 1e-12
        return real(streams, horizon, params, config, **kwargs)

    monkeypatch.setattr(evalharness, "batched_predict", nudging)
    with pytest.raises(RuntimeError, match="frozen-model contract"):
        score_probes(PROTOCOL, ("ictp",), wide_store(), init_params(TINY_MODEL), TINY_MODEL, stride=1)


@needs_openblas
def test_the_blas_thread_count_is_restored(monkeypatch):
    get, set_ = workers.blas_threads_functions()
    before = get()
    seen = []
    try:
        set_(2)
        start = get()  # 2, or 1 where OpenBLAS was built for one thread
        cores(monkeypatch, 2)
        workers.fork_join(lambda share: seen.append(get()), 2, 2)
        assert seen == [1] and get() == start
    finally:
        set_(before)


WORKER_SCRIPT = """
import os, sys, time
from tsicl import workers
os.sched_getaffinity = lambda pid: {0, 1}
def task(share):
    open(os.path.join(sys.argv[1], str(os.getpid())), "w").close()
    time.sleep(120)
workers.fork_join(task, 2, 2)
"""


def _alive(pid: int) -> bool:
    """A process that has not yet exited (a zombie has)."""
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return False
    return state not in ("Z", "X")


def src_path() -> str:
    return os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))


def assert_killing_the_caller_kills_its_worker(script: str, tmp_path: Path) -> None:
    """``script`` leaves a file named after each process's pid, the caller's and one worker's, and then sleeps."""
    proc = subprocess.Popen([sys.executable, "-c", script, str(tmp_path)], env={**os.environ, "PYTHONPATH": src_path()})
    try:
        deadline = time.monotonic() + 30
        while len(list(tmp_path.iterdir())) < 2 and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.02)
        pids = sorted(int(p.name) for p in tmp_path.iterdir())
        assert proc.poll() is None and len(pids) == 2 and proc.pid in pids
        (worker,) = [pid for pid in pids if pid != proc.pid]
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10)
        deadline = time.monotonic() + 5
        while _alive(worker) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not _alive(worker)
    finally:
        proc.kill()
        proc.wait(timeout=10)
        for name in os.listdir(tmp_path):  # a worker the test failed to see die
            if int(name) != proc.pid and _alive(int(name)):
                os.kill(int(name), signal.SIGKILL)


@needs_openblas
def test_killing_the_caller_kills_its_workers(tmp_path):
    assert_killing_the_caller_kills_its_worker(WORKER_SCRIPT, tmp_path)


TRAIN_SCRIPT = """
import os, sys, time
from tsicl import trainer
from tsicl.context import build_context_dataset
from tsicl.model import ModelConfig, init_params
from tsicl.synthetic import SynthSpec, generate
from tsicl.tasks import TaskKind, WindowSpec
os.sched_getaffinity = lambda pid: {0, 1}
def half(*args):
    open(os.path.join(sys.argv[1], str(os.getpid())), "w").close()
    time.sleep(120)
trainer._batch_loss_graph = half
data = build_context_dataset(generate(SynthSpec(count=1, length=240)), [TaskKind.FORECAST], WindowSpec(4), 0, seed=0)
config = ModelConfig(patch_size=4, d_model=8, n_layers=1, n_heads=2, ff_mult=2)
trainer.train(init_params(config), [data], [data], config, trainer.TrainConfig(batch_size=4))
"""


@needs_openblas
def test_killing_the_caller_kills_its_training_worker(tmp_path):
    assert_killing_the_caller_kills_its_worker(TRAIN_SCRIPT, tmp_path)


BATCH = 17


def training_data(variant: str) -> tuple[ModelConfig, list[ContextDataset], list[ContextDataset]]:
    """69 training samples per demo count: batches of 17 split 9 + 8, and each dataset ends in a batch of 1."""
    tasks = [TaskKind.FORECAST, TaskKind.IMPUTE]
    store = experiment.store_from_channels(generate(SynthSpec(count=2, length=240, seed=0)), "synth")
    _, train_parts, valid_parts = zip(*build_train_valid(store, tasks, WINDOW, [0, 1], seed=0))
    assert [len(part) for part in train_parts] == [69, 69] and 69 % BATCH == 1 and BATCH % 2 == 1
    return replace(TINY_MODEL, variant=variant), list(train_parts), list(valid_parts)


def counting_forks(monkeypatch) -> list[int]:
    forks, real = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(os.getpid()) or real())
    return forks


def trained_bits(params, record) -> tuple:
    return {name: p.data.tobytes() for name, p in params.items()}, record.train_losses, record.valid_losses, record.best_epoch


@needs_openblas
@pytest.mark.parametrize(
    "variant, supervise", [(DECODER_CAUSAL, False), (ENCODER_MASKED, False), (DECODER_CAUSAL, True)],
    ids=["decoder", "encoder", "decoder_supervised"],
)
def test_forked_training_equals_serial_training(monkeypatch, variant, supervise):
    config, data, valid = training_data(variant)
    train_config = TrainConfig(batch_size=BATCH, max_epochs=2, patience=2, supervise_demo_outputs=supervise)
    forks = counting_forks(monkeypatch)
    runs = {}
    for n in (1, 2):
        cores(monkeypatch, n)
        runs[n] = trained_bits(*trainer.train(init_params(config, seed=1), data, valid, config, train_config))
        assert len(forks) == n - 1
    assert runs[1] == runs[2]


def test_a_batch_splits_into_the_shares_of_two():
    for n in range(1, 41):
        batch = list(range(100, 100 + n))
        halves = [("train", 1, batch[s.start : s.stop], n, j) for j, s in enumerate(workers.shares(n, 2))]
        assert trainer._halves("train", 1, batch) == (halves[:1] if n == 1 else halves)


def test_a_steps_summed_gradient_is_the_full_batch_gradient(monkeypatch):
    """The halves' gradients, summed, are the whole batch's: each half's MSE divides by the batch's element count."""
    config, data, valid = training_data(DECODER_CAUSAL)
    cores(monkeypatch, 1)  # both halves run here, where the patched ``_gradient`` can see them
    start = init_params(config, seed=1)
    halves, summed = [], []
    real_gradient = trainer._gradient

    def recording(dataset, idxs, *args):
        halves.append((dataset, list(idxs)))
        return real_gradient(dataset, idxs, *args)

    class Stop(Exception):
        pass

    def stop(optimizer, grad):
        summed.append(grad.copy())
        raise Stop

    monkeypatch.setattr(trainer, "_gradient", recording)
    monkeypatch.setattr(trainer.Adam, "step", stop)
    with pytest.raises(Stop):
        trainer.train({name: ad.Parameter(p.data.copy(), name) for name, p in start.items()}, data, valid, config,
                      TrainConfig(batch_size=BATCH))
    (dataset, first), (other, rest) = halves
    assert dataset is other and (len(first), len(rest)) == tuple(map(len, workers.shares(BATCH, 2))) == (9, 8)
    with ad.Tape() as tape:
        tape.backward(trainer._batch_loss_graph(dataset, first + rest, start, config, False))
    full = np.concatenate([p.grad.ravel() for p in start.values()])
    assert np.linalg.norm(summed[0] - full) <= 1e-6 * np.linalg.norm(full)


def patch_the_loss_in_children(monkeypatch, change) -> None:
    """``trainer._batch_loss_graph`` as ``change(loss)`` in a forked worker only; the caller's half runs as usual."""
    real, test_pid = trainer._batch_loss_graph, os.getpid()

    def patched(*args):
        loss = real(*args)
        return change(loss) if _in_a_child(test_pid) else loss

    monkeypatch.setattr(trainer, "_batch_loss_graph", patched)


@needs_openblas
def test_an_error_in_the_training_workers_half_reaches_the_caller(monkeypatch):
    def fail(loss):
        raise DataError("the loss failed in a worker")

    config, data, valid = training_data(DECODER_CAUSAL)
    cores(monkeypatch, 2)
    patch_the_loss_in_children(monkeypatch, fail)
    with pytest.raises(DataError, match="the loss failed in a worker"):
        trainer.train(init_params(config), data, valid, config, TrainConfig(batch_size=BATCH))


@needs_openblas
def test_a_nan_loss_in_the_training_workers_half_is_numerical_error(monkeypatch):
    def poison(loss):
        loss.data = loss.data * np.nan
        return loss

    config, data, valid = training_data(DECODER_CAUSAL)
    cores(monkeypatch, 2)
    patch_the_loss_in_children(monkeypatch, poison)
    with pytest.raises(NumericalError, match="training loss diverged at epoch 0"):
        trainer.train(init_params(config), data, valid, config, TrainConfig(batch_size=BATCH))


@needs_openblas
def test_a_train_inside_a_worker_runs_serially(monkeypatch):
    config, data, valid = training_data(ENCODER_MASKED)
    cores(monkeypatch, 2)
    forks = counting_forks(monkeypatch)
    train_config = TrainConfig(batch_size=BATCH, max_epochs=1, patience=1)

    def task(share):
        before = len(forks)
        bits = trained_bits(*trainer.train(init_params(config), data, valid, config, train_config))
        return len(forks) - before, bits

    (caller_forks, caller_bits), (worker_forks, worker_bits) = workers.fork_join(task, 2, 2)
    assert (caller_forks, worker_forks) == (1, 0) and caller_bits == worker_bits


# a configuration whose float32 training bits differ between 1 and 2 OpenBLAS threads where the thread count is inherited
BLAS_SENSITIVE = ["d_model=32", "n_heads=4", "ff_mult=4", "synth_count=4", "synth_length=512", "horizon=12",
                  "demo_counts=4", "demo_count=4"]


@needs_openblas
def test_training_bits_do_not_depend_on_the_blas_thread_count(tmp_path):
    args = [*overrides(tmp_path), *(arg for item in BLAS_SENSITIVE for arg in ("--set", item))]
    for stage in ("synth", "ingest", "build"):
        assert main([stage, *args]) == 0
    written = {}
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src_path(), "OPENBLAS_NUM_THREADS": threads}
        subprocess.run([sys.executable, "-m", "tsicl.cli", "train", *args], env=env, check=True, capture_output=True,
                       timeout=120)
        written[threads] = {name: (tmp_path / name).read_bytes() for name in ("checkpoint.json", "train_record.csv")}
    assert written["1"] == written["2"]
