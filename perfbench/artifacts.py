"""Reading and checking what the CLI stages leave in ``out_dir``.

This is the benchmark's correctness gate. It reads the CSV reports as a user
would and needs no library call, except for the parameter checksum, which
falls back to hashing the checkpoint file if the library names move.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from pathlib import Path


def _data_lines(path: Path) -> list[list[str]]:
    lines = path.read_text().splitlines()[1:]
    return [line.split(",") for line in lines if line and not line.startswith("#")]


def comparable_text(path: Path) -> str:
    """A report without its trailing ``# config`` line, which embeds out_dir."""
    return "\n".join(line for line in path.read_text().splitlines() if not line.startswith("# config,"))


def train_losses(out_dir: Path) -> list[tuple[float, float]]:
    return [(float(tr), float(va)) for _, tr, va in _data_lines(out_dir / "train_record.csv")]


def eval_rows(out_dir: Path) -> list[dict]:
    keys = ("backbone", "task", "dataset", "horizon", "method", "mse", "mae", "seed")
    return [dict(zip(keys, row)) for row in _data_lines(out_dir / "eval_report.csv")]


def quality(out_dir: Path) -> dict[str, float]:
    """Best valid loss, per-method MSE, and ICTP error / baseline error.

    ``ictp_error_ratio`` is ``1 - improvement_ratio``: the mean over cells and
    over (mse, mae) of ICTP error divided by baseline error. Unlike
    improvement_ratio it stays positive, so a relative bound applies to it.
    """
    rows = eval_rows(out_dir)
    cells: dict[tuple, dict[str, dict]] = {}
    for r in rows:
        key = (r["backbone"], r["task"], r["dataset"], r["horizon"], r["seed"])
        cells.setdefault(key, {})[r["method"]] = r
    ratios = [
        float(m["ictp"][metric]) / float(m["baseline"][metric])
        for m in cells.values()
        for metric in ("mse", "mae")
    ]
    return {
        "valid_loss": min(va for _, va in train_losses(out_dir)),
        "ictp_mse": statistics.fmean(float(r["mse"]) for r in rows if r["method"] == "ictp"),
        "baseline_mse": statistics.fmean(float(r["mse"]) for r in rows if r["method"] == "baseline"),
        "ictp_error_ratio": statistics.fmean(ratios),
    }


def check_outputs(out_dir: Path) -> list[str]:
    """Problems with one finished pipeline's reports; empty when it passes."""
    problems = []
    try:
        losses = train_losses(out_dir)
        if not losses or not all(math.isfinite(x) for pair in losses for x in pair):
            problems.append(f"non-finite or missing train losses: {losses}")
    except (OSError, ValueError) as exc:
        problems.append(f"unreadable train_record.csv: {exc}")
    try:
        methods = {r["method"] for r in eval_rows(out_dir)}
        if not {"ictp", "baseline"} <= methods:
            problems.append(f"eval_report.csv lacks a method: has {sorted(methods)}")
    except (OSError, ValueError) as exc:
        problems.append(f"unreadable eval_report.csv: {exc}")
    return problems


def check_same(a: Path, b: Path) -> list[str]:
    """Two pipelines with one seed must write identical reports."""
    problems = []
    for name in ("train_record.csv", "eval_report.csv"):
        try:
            if comparable_text(a / name) != comparable_text(b / name):
                problems.append(f"{name} differs between two runs of the same seed")
        except OSError as exc:
            problems.append(f"cannot compare {name}: {exc}")
    return problems


def checkpoint_checksum(path: Path) -> str:
    """``evalharness.params_checksum`` of a checkpoint, else the file's SHA-256."""
    try:
        from tsicl.autodiff import load_params
        from tsicl.evalharness import params_checksum
    except ImportError:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    params, _ = load_params(path)
    return params_checksum(params)


def train_sample_count(out_dir: Path) -> int:
    """Samples in the train context files, from each file's header line."""
    total = 0
    for path in sorted(out_dir.glob("ctx_train_m*.jsonl")):
        with path.open() as fh:
            total += int(json.loads(fh.readline())["samples"])
    return total


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())
