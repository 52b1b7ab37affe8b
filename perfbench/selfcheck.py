#!/usr/bin/env python3
"""Checks of the harness itself: failure accounting, crash tolerance, missing spans.

    python3 perfbench/selfcheck.py

Takes a few seconds from a checkout; prints PASS/FAIL per check and exits 1
if any check fails.
"""

from __future__ import annotations

import os
import shutil
import sys
import time

import run as bench
from workloads import WORKLOADS, Workload, blas_env

sys.path.insert(0, str(bench.SRC))
os.environ.update(blas_env({}))

import stats  # noqa: E402
import traced  # noqa: E402
from spans import Target, Tracer, install  # noqa: E402


def failed_stage_is_counted(work) -> bool:
    """A train stage that exits nonzero is attempted and failed; the run still reports."""
    bad = Workload("bad_model", {**WORKLOADS["pretrain_short"].overrides, "d_model": "30"})  # 30 % 4 heads != 0
    result = bench.run_e2e(bad, 1, 1.0, work / "e2e", time.perf_counter())
    return result["attempted"] == 4 and result["failed"] == 1 and bool(result["problems"])


def crash_is_contained(work) -> bool:
    """A malformed store (a known crash path) fails `build` in a process and in process."""
    out = work / "crash"
    out.mkdir(parents=True)
    config = WORKLOADS["pretrain_short"].config(1, str(out))
    for stage in ("synth", "ingest"):
        if bench.run_stage(stage, config, work / f"{stage}.log", 60).returncode != 0:
            return False
    (out / "store.json").write_text("{}\n")
    in_process_code, _, _ = traced.run_stage("build", config, None)
    return bench.run_stage("build", config, work / "build.log", 60).returncode != 0 and in_process_code != 0


def missing_target_is_tolerated(work) -> bool:
    """Renamed or deleted functions are reported missing and their metrics read 0."""
    gone = [Target("tsicl.model", "predict_renamed", "model.predict"), Target("tsicl.no_such_module", "f", "x.f")]
    restore, missing = install(Tracer(), gone)
    restore()
    batched = [t for t in traced.TARGETS if t.span == "evalharness.batched_predict"]
    metrics, missing_metrics = traced.layer_metrics(Tracer(), missing + batched)
    return len(missing) == 2 and missing_metrics == ["evalharness.batched_predict_s"] \
        and metrics["evalharness.batched_predict_s"] == 0.0


def tail_percentile_needs_ten_samples(work) -> bool:
    """The reported tail percentile leaves at least ten samples above it."""
    return stats.summarize([float(i) for i in range(100)])["p"] == 90.0 and stats.summarize([1.0] * 39)["p"] is None


def main() -> int:
    work = bench.WORK / f"selfcheck-{os.getpid()}"
    failures = 0
    try:
        for check in (failed_stage_is_counted, crash_is_contained, missing_target_is_tolerated,
                      tail_percentile_needs_ten_samples):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            ok = check(work)
            failures += not ok
            print(f"{'PASS' if ok else 'FAIL'} {check.__name__}: {check.__doc__ or ''}".rstrip())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
