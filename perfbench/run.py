#!/usr/bin/env python3
"""Pipeline benchmark for the tsicl CLI.

    python3 perfbench/run.py --workload pretrain_short --seed 1 --seconds 40 --trace 0

``--trace 0`` runs the six CLI stages as a user does, one process each,
repeatedly for about ``--seconds`` and reports the end-to-end metrics.
``--trace 1`` runs the traced in-process pipeline (perfbench/traced.py) and
reports the per-layer metrics. Every run applies the correctness gate, prints
each metric with its unit, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. Details go to
``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# A run must end within 180 s; stop starting work in time to report.
DEADLINE_S = 165.0

import artifacts  # noqa: E402
import stats  # noqa: E402
from workloads import (  # noqa: E402
    QUALITY_SEED,
    SETUP_STAGES,
    STAGES,
    WORKLOADS,
    Workload,
    blas_env,
    blas_threads,
    cli_args,
    eval_query_count,
)

MEASURED = ("pipeline_s", "setup_s", "train_samples_per_s", "eval_queries_per_s", "peak_rss_mb", "artifact_mb")
QUALITY = ("valid_loss", "ictp_mse", "baseline_mse", "ictp_error_ratio")
E2E_UNITS = {
    "pipeline_s": "s",
    "setup_s": "s",
    "train_samples_per_s": "1/s",
    "eval_queries_per_s": "1/s",
    "peak_rss_mb": "MB",
    "artifact_mb": "MB",
    "valid_loss": "mse",
    "ictp_mse": "mse",
    "baseline_mse": "mse",
    "ictp_error_ratio": "ratio",
}


def stage_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return blas_env({**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")})


@dataclass
class StageRun:
    stage: str
    returncode: int
    wall_s: float
    rss_mb: float
    output: str


def run_process(cmd: list[str], log: Path, timeout: float) -> tuple[int, float, float]:
    """Run cmd to completion (killed at timeout); return (exit code, wall s, peak RSS MB)."""
    with log.open("w") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=stage_env(), stdout=fh, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(timeout, 0.1), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted (e.g. SIGTERM): stop the child before leaving
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def run_stage(stage: str, config: dict[str, str], log: Path, timeout: float) -> StageRun:
    cmd = [sys.executable, "-m", "tsicl.cli", *cli_args(stage, config)]
    try:
        code, wall, rss = run_process(cmd, log, timeout)
    except OSError as exc:
        return StageRun(stage, -1, 0.0, 0.0, f"could not start: {exc}")
    return StageRun(stage, code, wall, rss, log.read_text(errors="replace"))


@dataclass
class Pipeline:
    seed: int
    out_dir: Path
    stages: dict[str, StageRun] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    measures: dict[str, float] = field(default_factory=dict)
    quality: dict[str, float] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return len(self.stages) == len(STAGES) and all(s.returncode == 0 for s in self.stages.values())


def run_pipeline(w: Workload, seed: int, out_dir: Path, deadline: float) -> Pipeline:
    """The six stages in order, one process each; stops at the first failure."""
    out_dir.mkdir(parents=True)
    config = w.config(seed, str(out_dir))
    pipe = Pipeline(seed, out_dir)
    before = None
    for stage in STAGES:
        if stage == "eval":
            before = artifacts.checkpoint_checksum(out_dir / "checkpoint.json")
        run = run_stage(stage, config, out_dir.parent / f"{out_dir.name}.{stage}.log", deadline - time.perf_counter())
        pipe.stages[stage] = run
        if run.returncode != 0:
            pipe.problems.append(f"stage {stage} (seed {seed}) exited {run.returncode}: {run.output[-400:]}")
            return pipe
        if stage == "eval" and artifacts.checkpoint_checksum(out_dir / "checkpoint.json") != before:
            pipe.problems.append(f"checkpoint params_checksum changed across eval (seed {seed})")
    pipe.problems += artifacts.check_outputs(out_dir)
    if pipe.problems:
        return pipe
    walls = {s: r.wall_s for s, r in pipe.stages.items()}
    epochs = len(artifacts.train_losses(out_dir))
    pipe.measures = {
        "pipeline_s": sum(walls.values()),
        "setup_s": sum(walls[s] for s in SETUP_STAGES),
        "train_samples_per_s": artifacts.train_sample_count(out_dir) * epochs / walls["train"],
        "eval_queries_per_s": eval_query_count(w) / walls["eval"],
        "peak_rss_mb": max(r.rss_mb for r in pipe.stages.values()),
        "artifact_mb": artifacts.dir_bytes(out_dir) / 1e6,
    }
    pipe.quality = artifacts.quality(out_dir)
    return pipe


def run_e2e(w: Workload, seed: int, seconds: float, work: Path, t_start: float) -> dict:
    """Pipelines at [seed, seed, QUALITY_SEED], then more at seed while time remains.

    The two runs of ``seed`` feed the determinism check; the QUALITY_SEED run
    gives the quality numbers. Every complete pipeline is a timing sample.
    """
    deadline = t_start + DEADLINE_S
    pipes: list[Pipeline] = []
    schedule = [seed, seed, QUALITY_SEED]
    loop_start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - loop_start
        per_pipe = elapsed / len(pipes) if pipes else 0.0
        if len(pipes) >= len(schedule) and elapsed + per_pipe > seconds:
            break
        if pipes and time.perf_counter() + 1.5 * per_pipe > deadline:
            break
        s = schedule[len(pipes)] if len(pipes) < len(schedule) else seed
        pipe = run_pipeline(w, s, work / f"rep{len(pipes)}", deadline)
        pipes.append(pipe)
        if not pipe.complete:
            break

    problems = [p for pipe in pipes for p in pipe.problems]
    if len(pipes) < len(schedule):
        problems.append(f"only {len(pipes)} of the {len(schedule)} required pipelines ran")
    else:
        problems += artifacts.check_same(pipes[0].out_dir, pipes[1].out_dir)
    good = [p for p in pipes if p.measures]
    metrics: dict[str, float | None] = {}
    for name in MEASURED:
        metrics[name] = statistics.median(p.measures[name] for p in good) if good else None
    quality_pipe = pipes[2] if len(pipes) > 2 and pipes[2].quality else None
    for name in QUALITY:
        metrics[name] = quality_pipe.quality[name] if quality_pipe else None

    summaries = {f"stage {s}": stats.summarize([p.stages[s].wall_s for p in good]) for s in STAGES}
    summaries.update({name: stats.summarize([p.measures[name] for p in good]) for name in MEASURED})
    attempted = sum(len(p.stages) for p in pipes)
    failed = sum(1 for p in pipes for s in p.stages.values() if s.returncode != 0)
    return {
        "metrics": metrics,
        "units": E2E_UNITS,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "pipelines": [
            {"seed": p.seed, "complete": p.complete, "measures": p.measures, "quality": p.quality,
             "stages": {s: {"exit": r.returncode, "wall_s": r.wall_s, "rss_mb": r.rss_mb} for s, r in p.stages.items()}}
            for p in pipes
        ],
        "summaries": summaries,
    }


def run_traced(w: Workload, seed: int, work: Path, t_start: float) -> dict:
    """The traced run in its own process (fixed work; ``--seconds`` does not apply)."""
    out = work / "traced.json"
    cmd = [sys.executable, str(HERE / "traced.py"), "--workload", w.name, "--seed", str(seed),
           "--work", str(work), "--out", str(out)]
    code, _, _ = run_process(cmd, work / "traced.log", t_start + DEADLINE_S - time.perf_counter())
    if code == 0 and out.exists():
        return json.loads(out.read_text())
    tail = (work / "traced.log").read_text(errors="replace")[-2000:]
    return {"metrics": {}, "units": {}, "attempted": 1, "failed": 1, "problems": [f"traced run exited {code}: {tail}"]}


def run_metadata(w: Workload, seed: int, trace: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_vendor = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "workload": w.name,
        "seed": seed,
        "quality_seed": QUALITY_SEED,
        "trace": trace,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_vendor,
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def main(argv: list[str] | None = None) -> int:
    t_start = time.perf_counter()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tsicl" / "cli.py").is_file():
        print(f"error: no tsicl sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.update(blas_env({}))

    w = WORKLOADS[args.workload]
    work = WORK / f"{w.name}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.trace:
            result = run_traced(w, args.seed, work, t_start)
        else:
            result = run_e2e(w, args.seed, args.seconds, work, t_start)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["meta"] = {**run_metadata(w, args.seed, args.trace), "trace_overhead": result.get("trace_overhead")}

    metrics = result["metrics"]
    correct = not result["problems"] and result["failed"] == 0 and all(v is not None for v in metrics.values())
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{w.name}-s{args.seed}-t{args.trace}.json").write_text(json.dumps(result, indent=1))

    print(f"workload {w.name}  seed {args.seed}  trace {args.trace}  "
          f"failed {result['failed']}/{result['attempted']} stage invocations")
    summaries = result.get("summaries", {})
    for name, value in metrics.items():
        unit = result["units"].get(name, "")
        shown = "missing" if value is None else f"{value:.6g} {unit}"
        detail = f"  ({stats.describe(summaries[name], unit)})" if name in summaries else ""
        print(f"  {name:<30} {shown}{detail}")
    for name, summary in summaries.items():
        if name.startswith("stage "):
            print(f"  {name:<30} {stats.describe(summary, 's')}")
    for line in result.get("lines", []):
        print(f"  {line}")
    for problem in result["problems"]:
        print(f"  FAIL: {problem}")
    print("meta " + json.dumps(result["meta"], sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": max(result["attempted"], 1),
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": result["units"].get(name, "")} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
