"""A tiny CLI configuration and one shared run of it, for pipeline-level tests."""

import importlib.util
import sys
from pathlib import Path

import pytest

from tsicl.cli import main

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


@pytest.fixture(scope="session")
def pipeline_dir(tmp_path_factory):
    """A tiny run's artifacts: store, context files, checkpoint and eval report."""
    out = tmp_path_factory.mktemp("pipeline")
    for stage in ("synth", "ingest", "build", "train", "eval"):
        assert main([stage, *overrides(out)]) == 0
    return out
