#!/usr/bin/env python3
"""Traced run: the six CLI stages in-process, untraced and traced, plus op microbenchmarks.

Started by ``run.py --trace 1`` with the stage environment (PYTHONPATH, BLAS
thread cap). Spans come from wrapping public library functions from this
file; ``src/`` is not edited. An untraced pass over the same seed gives the
trace overhead and a determinism check against the traced pass.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import subprocess
import sys
import time
import traceback
from pathlib import Path

import artifacts
import microbench
import stats
from spans import Target, Tracer, arg, install, wrapper_cost_s
from workloads import STAGES, WORKLOADS, Workload, cli_args

HERE = Path(__file__).resolve().parent
RESULTS = HERE.parent / ".bench_work" / "results"
IMPORT_SAMPLES = 3


def _size(index: int, name: str, key: str):
    def hook(tracer, args, kwargs, result):
        tracer.counts[key] += Path(arg(args, kwargs, index, name)).stat().st_size
    return hook


def _forward_name(args, kwargs) -> str:
    import tsicl.autodiff as ad

    probe = getattr(ad, "_tape", None)
    return "model.forward" if probe is not None and probe() is not None else "model.forward_eval"


def _forward_counts(tracer, args, kwargs, result):
    tokens, config = arg(args, kwargs, 0, "batch_tokens"), arg(args, kwargs, 2, "config")
    tracer.counts["model.forward_calls"] += 1
    tracer.counts["model.patches"] += tokens.shape[0] * tokens.shape[1] // config.patch_size


def _build_counts(tracer, args, kwargs, result):
    tracer.counts["context.samples"] += len(result.samples)
    tracer.counts["context.skipped_windows"] += result.skipped_windows


def _query_counts(tracer, args, kwargs, result):
    tracer.counts["evalharness.queries"] += len(arg(args, kwargs, 0, "queries"))


AUTODIFF_OPS = ("matmul", "add", "scale", "transpose", "softmax", "layer_norm", "gelu", "axis_slice", "concat", "mse_loss")

TARGETS = [
    *(Target("tsicl.autodiff", op, f"autodiff.{op}") for op in AUTODIFF_OPS),
    Target("tsicl.autodiff", "Tape.backward", "autodiff.backward"),
    Target("tsicl.autodiff", "save_params", "autodiff.save_params",
           on_call=_size(1, "path", "autodiff.checkpoint_bytes"), provides=("autodiff.checkpoint_bytes",)),
    Target("tsicl.autodiff", "load_params", "autodiff.load_params"),
    Target("tsicl.model", "forward_patch_predictions", "model.forward", name_fn=_forward_name,
           on_call=_forward_counts, provides=("model.forward_eval", "model.forward_calls", "model.patches")),
    Target("tsicl.trainer", "train", "trainer.train"),
    Target("tsicl.trainer", "Adam.step", "trainer.adam_step"),
    Target("tsicl.trainer", "evaluate_loss", "trainer.evaluate_loss"),
    Target("tsicl.context", "build_context_dataset", "context.build", on_call=_build_counts,
           provides=("context.samples", "context.skipped_windows")),
    Target("tsicl.context", "write_jsonl", "context.write_jsonl",
           on_call=_size(1, "path", "context.jsonl_bytes"), provides=("context.jsonl_bytes",)),
    Target("tsicl.context", "read_jsonl", "context.read_jsonl"),
    Target("tsicl.tasks", "generate_example", "tasks.generate_example"),
    Target("tsicl.series", "load_csv", "series.load_csv"),
    Target("tsicl.series", "build_store", "series.build_store"),
    Target("tsicl.series", "save_store", "series.save_store",
           on_call=_size(1, "path", "series.store_bytes"), provides=("series.store_bytes",)),
    Target("tsicl.series", "load_store", "series.load_store"),
    Target("tsicl.synthetic", "generate", "synthetic.generate"),
    Target("tsicl.evalharness", "run_unseen_eval", "evalharness.run_unseen_eval"),
    Target("tsicl.evalharness", "context_path", "evalharness.context_path",
           on_call=_query_counts, provides=("evalharness.queries",)),
    Target("tsicl.evalharness", "baseline_path", "evalharness.baseline_path"),
    Target("tsicl.evalharness", "batched_predict", "evalharness.batched_predict"),
    Target("tsicl.evalharness", "build_stream", "evalharness.build_stream"),
    Target("tsicl.adapters", "apply_adapter", "adapters.apply"),
]

# Per-layer metric -> (unit, how it is read from the trace).
#   ("total", span): inclusive seconds   ("self", spans): seconds outside child spans
#   ("calls", span): span count          ("count", key): counter from a hook
LAYER_METRICS: dict[str, tuple[str, tuple]] = {
    "autodiff.backward_s": ("s", ("total", "autodiff.backward")),
    **{f"autodiff.{op}.fwd_s": ("s", ("total", f"autodiff.{op}")) for op in AUTODIFF_OPS},
    "autodiff.save_params_s": ("s", ("total", "autodiff.save_params")),
    "autodiff.load_params_s": ("s", ("total", "autodiff.load_params")),
    "autodiff.checkpoint_bytes": ("bytes", ("count", "autodiff.checkpoint_bytes")),
    "model.forward_s": ("s", ("total", "model.forward")),
    "model.forward_eval_s": ("s", ("total", "model.forward_eval")),
    "model.forward_calls": ("count", ("count", "model.forward_calls")),
    "model.patches": ("count", ("count", "model.patches")),
    "trainer.adam_step_s": ("s", ("total", "trainer.adam_step")),
    "trainer.evaluate_loss_s": ("s", ("total", "trainer.evaluate_loss")),
    "trainer.steps": ("count", ("calls", "trainer.adam_step")),
    "trainer.batch_wait_s": ("s", ("self", "trainer.train")),
    "context.build_s": ("s", ("total", "context.build")),
    "context.samples": ("count", ("count", "context.samples")),
    "context.skipped_windows": ("count", ("count", "context.skipped_windows")),
    "context.write_jsonl_s": ("s", ("total", "context.write_jsonl")),
    "context.read_jsonl_s": ("s", ("total", "context.read_jsonl")),
    "context.jsonl_bytes": ("bytes", ("count", "context.jsonl_bytes")),
    "tasks.generate_example_s": ("s", ("total", "tasks.generate_example")),
    "tasks.examples": ("count", ("calls", "tasks.generate_example")),
    "series.load_csv_s": ("s", ("total", "series.load_csv")),
    "series.build_store_s": ("s", ("total", "series.build_store")),
    "series.save_store_s": ("s", ("total", "series.save_store")),
    "series.load_store_s": ("s", ("total", "series.load_store")),
    "series.store_bytes": ("bytes", ("count", "series.store_bytes")),
    "synthetic.generate_s": ("s", ("total", "synthetic.generate")),
    "evalharness.context_path_s": ("s", ("total", "evalharness.context_path")),
    "evalharness.baseline_path_s": ("s", ("total", "evalharness.baseline_path")),
    "evalharness.batched_predict_s": ("s", ("total", "evalharness.batched_predict")),
    "evalharness.stream_build_s": ("s", ("self", "evalharness.context_path", "evalharness.build_stream")),
    "evalharness.queries": ("count", ("count", "evalharness.queries")),
    "adapters.apply_s": ("s", ("total", "adapters.apply")),
    **{f"cli.{stage}_s": ("s", ("total", f"cli.{stage}")) for stage in STAGES},
}
DERIVED_UNITS = {
    "context.kept_ratio": "ratio",
    "cli.import_s": "s",
    "trace.overhead_pct": "%",
    **{f"autodiff.{op}.{d}_us": "us" for op in microbench.OPS for d in ("fwd", "bwd")},
}
UNITS = {**{name: unit for name, (unit, _) in LAYER_METRICS.items()}, **DERIVED_UNITS}


def import_seconds() -> float:
    """Median time a fresh interpreter takes to import tsicl.cli (numpy included)."""
    code = "import time; t = time.perf_counter(); import tsicl.cli; print(time.perf_counter() - t)"
    samples = [
        float(subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True).stdout)
        for _ in range(IMPORT_SAMPLES)
    ]
    return sorted(samples)[len(samples) // 2]


def run_stage(stage: str, config: dict[str, str], tracer: Tracer | None) -> tuple[int | None, float, str]:
    """One stage through ``tsicl.cli.main``: (exit code or None if it raised, wall s, output)."""
    from tsicl import cli

    sink = io.StringIO()
    if tracer:
        tracer.stage = stage
    span = tracer.span(f"cli.{stage}") if tracer else contextlib.nullcontext()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), span:
            code = cli.main(cli_args(stage, config))
    except Exception:  # a crash is a failed stage, not a failed harness
        code = None
        sink.write(traceback.format_exc())
    return code, time.perf_counter() - t0, sink.getvalue()


def run_stages(w: Workload, seed: int, out_dir: Path, tracer: Tracer | None) -> tuple[dict, list[str]]:
    """The six stages in process; stops at the first failure."""
    out_dir.mkdir(parents=True)
    config = w.config(seed, str(out_dir))
    walls: dict[str, float] = {}
    problems: list[str] = []
    for stage in STAGES:
        if stage == "eval":
            before = artifacts.checkpoint_checksum(out_dir / "checkpoint.json")
        code, walls[stage], output = run_stage(stage, config, tracer)
        if code != 0:
            problems.append(f"in-process stage {stage} returned {code}: {output[-600:]}")
            break
        if stage == "eval" and artifacts.checkpoint_checksum(out_dir / "checkpoint.json") != before:
            problems.append("checkpoint params_checksum changed across eval")
    else:
        problems += artifacts.check_outputs(out_dir)
    return walls, problems


def layer_metrics(tracer: Tracer, missing: list[Target]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics from the trace, and the names of those whose target is missing."""
    totals = tracer.totals()
    metrics: dict[str, float] = {}
    for name, (_, (kind, *keys)) in LAYER_METRICS.items():
        if kind == "count":
            metrics[name] = float(tracer.counts.get(keys[0], 0.0))
        elif kind == "calls":
            metrics[name] = float(totals.get(keys[0], {}).get("calls", 0))
        elif kind == "total":
            metrics[name] = totals.get(keys[0], {}).get("total_s", 0.0)
        else:
            metrics[name] = sum(totals.get(k, {}).get("self_s", 0.0) for k in keys)
    windows = metrics["context.samples"] + metrics["context.skipped_windows"]
    metrics["context.kept_ratio"] = metrics["context.samples"] / windows if windows else 0.0
    unavailable = {name for t in missing for name in (t.span, *t.provides)}
    missing_metrics = [name for name, (_, (_, *keys)) in LAYER_METRICS.items() if unavailable & set(keys)]
    if "context.samples" in missing_metrics:
        missing_metrics.append("context.kept_ratio")
    return metrics, missing_metrics


def report_lines(tracer: Tracer, pipeline_s: float) -> list[str]:
    """Span table (calls, total, self, median, tail) and share of the traced pipeline."""
    lines = [f"traced pipeline {pipeline_s:.3f} s; per span: calls, inclusive s (share), self s, per-call times"]
    totals = tracer.totals()
    for name, t in sorted(totals.items(), key=lambda kv: -kv[1]["total_s"]):
        share = t["total_s"] / pipeline_s if pipeline_s else 0.0
        lines.append(
            f"  {name:<30} {t['calls']:>7} {t['total_s']:9.4f} ({share:6.1%}) self {t['self_s']:8.4f}  "
            + stats.describe(stats.summarize(t["durations"]), "s")
        )
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    w = WORKLOADS[args.workload]

    import_s = import_seconds()
    # Passes in one process keep speeding up for a while (allocator growth,
    # lazy imports, caches), so a first pass only warms up, and the traced and
    # untraced passes run in ABBA order, which cancels a linear trend. The
    # warm-up also imports every tsicl module, which install() needs to find
    # all references to a target. Per-layer metrics come from the first
    # traced pass.
    walls: dict[str, list[dict]] = {"warm": [], "traced": [], "plain": []}
    problems: list[str] = []
    tracer, missing = None, []
    for i, kind in enumerate(("warm", "traced", "plain", "plain", "traced")):
        pass_tracer = Tracer() if kind == "traced" else None
        restore, pass_missing = install(pass_tracer, TARGETS) if pass_tracer else (lambda: None, [])
        try:
            pass_walls, pass_problems = run_stages(w, args.seed, args.work / f"pass{i}", pass_tracer)
        finally:
            restore()
        walls[kind].append(pass_walls)
        problems += pass_problems
        if pass_tracer and tracer is None:
            tracer, missing = pass_tracer, pass_missing
        if i and not problems:
            problems += artifacts.check_same(args.work / "pass0", args.work / f"pass{i}")

    metrics, missing_metrics = layer_metrics(tracer, missing)
    traced_s = sum(walls["traced"][0].values())
    plain_total = sum(sum(p.values()) for p in walls["plain"])
    traced_total = sum(sum(p.values()) for p in walls["traced"])
    overhead_pct = 100.0 * (traced_total - plain_total) / plain_total if plain_total else 0.0
    # The wall-time difference is close to run-to-run noise; the
    # per-call cost times the span count bounds the instrumentation cost.
    estimate_pct = 100.0 * wrapper_cost_s() * len(tracer.spans) / traced_s if traced_s else 0.0
    metrics["cli.import_s"] = import_s
    metrics["trace.overhead_pct"] = overhead_pct
    micro, micro_notes = microbench.run(w, args.seed)
    for op in microbench.OPS:
        for d in ("fwd", "bwd"):
            name = f"autodiff.{op}.{d}_us"
            metrics[name] = micro.get(name, 0.0)
            if name not in micro:
                missing_metrics.append(name)

    spans_path = RESULTS / f"{w.name}-s{args.seed}-spans.jsonl.gz"
    tracer.write(spans_path)
    lines = report_lines(tracer, traced_s)
    lines.append(f"in-process pipeline, traced passes {traced_total:.3f} s vs untraced {plain_total:.3f} s "
                 f"(two each, ABBA): overhead {overhead_pct:.1f}%; {len(tracer.spans)} spans x per-call "
                 f"wrapper cost = {estimate_pct:.2f}% of the traced pass")
    lines += [f"missing target: {t.module}.{t.attr}" for t in missing]
    lines += [f"missing metric (reported as 0): {m}" for m in missing_metrics]
    lines += [f"note: {n}" for n in micro_notes + tracer.hook_errors]
    lines.append(f"spans written to {spans_path}")
    args.out.write_text(json.dumps({
        "metrics": {name: metrics[name] for name in UNITS},
        "units": UNITS,
        "attempted": sum(len(p) for passes in walls.values() for p in passes),
        "failed": sum(1 for p in problems if p.startswith("in-process stage")),
        "problems": problems,
        "missing": [f"{t.module}.{t.attr}" for t in missing] + missing_metrics,
        "trace_overhead": {"untraced_s": plain_total, "traced_s": traced_total, "overhead_pct": overhead_pct,
                           "spans": len(tracer.spans), "span_cost_pct": estimate_pct},
        "stage_walls": walls,
        "lines": lines,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
