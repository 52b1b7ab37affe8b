"""Scoring channels in forked workers: same bits as serial, errors and frozen weights cross back, no child is left."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import overrides
from tsicl import evalharness, experiment, workers
from tsicl.cli import main
from tsicl.errors import DataError
from tsicl.evalharness import PROBES, EvalProtocol, score_probes
from tsicl.model import ModelConfig, init_params
from tsicl.synthetic import SynthSpec, generate
from tsicl.tasks import TaskKind, WindowSpec

SRC = Path(__file__).resolve().parents[1] / "src"
WINDOW = WindowSpec(8, 4)
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


def assert_no_child_left() -> None:
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
        assert_no_child_left()
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
    assert_no_child_left()


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
    assert_no_child_left()


def _in_a_child(test_pid: int) -> bool:
    return os.getpid() != test_pid


def fail_the_baseline_in_children(monkeypatch) -> None:
    """``baseline_path`` raises a ``DataError`` in a forked worker only; the caller's share scores as usual."""
    real, test_pid = evalharness.baseline_path, os.getpid()

    def failing(queries, params, config):
        if _in_a_child(test_pid):
            raise DataError("the baseline failed in a worker")
        return real(queries, params, config)

    monkeypatch.setattr(evalharness, "baseline_path", failing)


@needs_openblas
def test_a_data_error_in_a_worker_reaches_the_caller(monkeypatch):
    cores(monkeypatch, 2)
    fail_the_baseline_in_children(monkeypatch)
    with pytest.raises(DataError, match="the baseline failed in a worker"):
        score_probes(PROTOCOL, ("ictp", "baseline"), wide_store(), init_params(TINY_MODEL), TINY_MODEL, stride=1)
    assert_no_child_left()


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
    assert_no_child_left()


@needs_openblas
def test_a_weight_moved_in_a_worker_is_refused(monkeypatch):
    cores(monkeypatch, 2)
    real, test_pid = evalharness.batched_predict, os.getpid()

    def nudging(streams, horizons, params, config, **kwargs):
        if _in_a_child(test_pid):
            params["head.b"].data = params["head.b"].data + 1e-12
        return real(streams, horizons, params, config, **kwargs)

    monkeypatch.setattr(evalharness, "batched_predict", nudging)
    with pytest.raises(RuntimeError, match="frozen-model contract"):
        score_probes(PROTOCOL, ("ictp",), wide_store(), init_params(TINY_MODEL), TINY_MODEL, stride=1)
    assert_no_child_left()


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


@needs_openblas
def test_killing_the_caller_kills_its_workers(tmp_path):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen([sys.executable, "-c", WORKER_SCRIPT, str(tmp_path)], env={**os.environ, "PYTHONPATH": path})
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
