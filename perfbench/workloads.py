"""The benchmark's workloads as CLI config overrides.

Every workload fixes ``patience = max_epochs`` so the amount of work never
depends on the loss, and takes its synth seed from the command line. Why each
workload exists is recorded in BENCHMARK.json and perfbench/README.md.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

STAGES = ("synth", "ingest", "build", "train", "eval", "report")
# CLI defaults the benchmark's own arithmetic relies on (see tsicl.cli.SCHEMA).
DEFAULTS = {"synth_count": 32, "synth_length": 2048, "lookback": 24, "horizon": 12, "eval_stride": 0,
            "patch_size": 4, "d_model": 64, "n_heads": 4, "ff_mult": 4, "batch_size": 32}
SETUP_STAGES = ("synth", "ingest", "build")

# Quality numbers (losses, MSEs) are deterministic per seed but vary by 10-44%
# (IQR / median) across synth seeds at these sizes: that is data variance, not
# measurement noise. One pipeline per run therefore scores quality at this
# pinned seed, so a change in a quality number is a real numerical change.
QUALITY_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    overrides: dict[str, str]

    def config(self, seed: int, out_dir: str) -> dict[str, str]:
        return {**self.overrides, "seed": str(seed), "out_dir": out_dir}

    def value(self, key: str) -> int:
        return int(self.overrides.get(key, DEFAULTS[key]))

    def demo_counts(self) -> list[int]:
        return [int(x) for x in self.overrides.get("demo_counts", "0,2,4").split(",") if x.strip()]


_PINNED_MODEL = {"d_model": "32", "n_layers": "2", "n_heads": "4"}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "pretrain_short",  # the ROADMAP pinned config; training-dominated
            {
                **_PINNED_MODEL,
                "synth_count": "8",
                "synth_length": "512",
                "demo_counts": "0,2,4",
                "variant": "decoder_causal",
                "max_epochs": "3",
                "patience": "3",
            },
        ),
        Workload(
            "long_context",  # 225-patch streams: attention and context storage
            {
                **_PINNED_MODEL,
                "synth_count": "2",
                "synth_length": "2048",
                "demo_counts": "24",
                "demo_count": "24",
                "stride": "24",
                "batch_size": "8",
                "max_epochs": "2",
                "patience": "2",
            },
        ),
        Workload(
            "encoder_eval",  # 3,000 forward-only eval queries
            {
                **_PINNED_MODEL,
                "variant": "encoder_masked",
                "synth_count": "8",
                "synth_length": "2048",
                "stride": "48",
                "max_epochs": "1",
                "patience": "1",
                "eval_stride": "1",
            },
        ),
    )
}



def cli_args(stage: str, config: dict[str, str]) -> list[str]:
    argv = [stage]
    for key, value in config.items():
        argv += ["--set", f"{key}={value}"]
    return argv


def blas_threads() -> int:
    """BLAS thread cap for every measured process: the cores this process may use."""
    return len(os.sched_getaffinity(0))


def blas_env(base: dict[str, str]) -> dict[str, str]:
    n = str(blas_threads())
    return {**base, "OPENBLAS_NUM_THREADS": n, "OMP_NUM_THREADS": n, "MKL_NUM_THREADS": n}


def eval_query_count(w: Workload) -> int:
    """Backtrace queries `eval` scores: synth channels x windows on each test split.

    Mirrors the pipeline's geometry (60:20:20 floor split, backtrace starts in
    [h, n - L], one query every eval_stride steps) so the e2e run needs no
    library call and no artifact format.
    """
    T, L, h = w.value("synth_length"), w.value("lookback"), w.value("horizon")
    stride = w.value("eval_stride") or h
    n_test = T - int(0.8 * T)
    return w.value("synth_count") * len(range(h, n_test - L + 1, stride))
