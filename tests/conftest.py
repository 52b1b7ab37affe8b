"""A tiny CLI configuration and one shared run of it, for pipeline-level tests."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from tsicl.cli import main
from tsicl.series import SPLIT_NAMES, SplitStore

TINY_CLI = {
    "synth_count": "2",
    "synth_length": "240",
    "horizon": "4",
    "demo_counts": "0,1",
    "demo_count": "1",
    "d_model": "8",
    "n_layers": "1",
    "n_heads": "2",
    "ff_mult": "2",
    "max_epochs": "1",
    "patience": "1",
}


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def benchmark_module(name: str, monkeypatch):
    """``perfbench/<name>.py`` loaded from its file, read only."""
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # @dataclass looks its module up
    spec.loader.exec_module(module)
    return module


def settings(out_dir: Path) -> list[str]:
    """The tiny configuration as ``key=value`` items, writing to ``out_dir``."""
    return [f"{key}={value}" for key, value in {**TINY_CLI, "out_dir": str(out_dir)}.items()]


def overrides(out_dir: Path) -> list[str]:
    return [arg for item in settings(out_dir) for arg in ("--set", item)]


def store_of(*channels) -> SplitStore:
    """A store of dataset ``d`` whose channels are given as ``(name, train, valid, test)`` value lists,
    unnormalized, laid out as ``series.build_store`` lays them: channel after channel, each its train, valid
    then test values."""
    parts = [np.asarray(part, dtype=np.float64) for _, *splits in channels for part in splits]
    ends = np.cumsum([0, *map(len, parts)])
    bounds = ends[np.arange(len(channels))[:, None] * len(SPLIT_NAMES) + np.arange(len(SPLIT_NAMES) + 1)]
    return SplitStore("d", [name for name, *_ in channels], np.concatenate(parts), bounds)


@pytest.fixture(scope="session")
def pipeline_dir(tmp_path_factory):
    """A tiny run's artifacts: store, context files, checkpoint and eval report."""
    out = tmp_path_factory.mktemp("pipeline")
    for stage in ("synth", "ingest", "build", "train", "eval"):
        assert main([stage, *overrides(out)]) == 0
    return out
