"""Per-op autodiff microbenchmarks at the shapes a workload's largest batch uses.

Forward time runs the public op without a tape, as evaluation does. Backward
time runs the op once on a one-op tape and then times the backward rule that
the op recorded (``Tape.record`` is the op's public hook), with the inputs'
gradients cleared before each call so the first-accumulate path is included.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from workloads import Workload

OPS = ("gelu", "matmul", "softmax", "layer_norm", "add", "axis_slice", "concat", "mse_loss")
MIN_CALLS, MAX_CALLS, MIN_SECONDS = 7, 200, 0.08


def shapes(w: Workload) -> dict[str, int]:
    """Largest training batch: B streams of S patches, model width d."""
    L, h, p = w.value("lookback"), w.value("horizon"), w.value("patch_size")
    m = max(w.demo_counts())
    d, heads = w.value("d_model"), w.value("n_heads")
    return {
        "B": w.value("batch_size"),
        "S": (m * (L + h) + L + h) // p,
        "d": d,
        "ff": w.value("ff_mult") * d,
        "heads": heads,
        "dh": d // heads,
        "hp": h // p,
        "p": p,
    }


def _cases(ad, w: Workload, rng: np.random.Generator) -> dict[str, tuple]:
    """op -> (forward thunk, input tensors)."""
    g = shapes(w)
    B, S, d, ff, dh, hp, p = g["B"], g["S"], g["d"], g["ff"], g["dh"], g["hp"], g["p"]

    def t(*shape):
        return ad.Tensor(rng.standard_normal(shape))

    x, xf, w1 = t(B, S, d), t(B, S, ff), t(d, ff)
    gain, bias = t(d), t(d)
    scores = t(B, S, S)
    allowed = np.tril(np.ones((S, S), dtype=bool)) if w.overrides.get("variant", "decoder_causal") == "decoder_causal" else None
    heads = [t(B, S, dh) for _ in range(g["heads"])]
    pred, target, mask = t(B, hp, p), rng.standard_normal((B, hp, p)), np.ones((B, hp, p))
    return {
        "gelu": (lambda: ad.gelu(xf), [xf]),
        "matmul": (lambda: ad.matmul(x, w1), [x, w1]),
        "softmax": (lambda: ad.softmax(scores, allowed=allowed), [scores]),
        "layer_norm": (lambda: ad.layer_norm(x, gain, bias), [x, gain, bias]),
        "add": (lambda: ad.add(x, bias), [x, bias]),
        "axis_slice": (lambda: ad.axis_slice(x, 0, dh, axis=-1), [x]),
        "concat": (lambda: ad.concat(heads, axis=-1), heads),
        "mse_loss": (lambda: ad.mse_loss(pred, target, mask), [pred]),
    }


def _median_us(call) -> float:
    samples: list[float] = []
    start = time.perf_counter()
    while len(samples) < MAX_CALLS and (len(samples) < MIN_CALLS or time.perf_counter() - start < MIN_SECONDS):
        t0 = time.perf_counter()
        call()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples) * 1e6


def run(w: Workload, seed: int) -> tuple[dict[str, float], list[str]]:
    """{"autodiff.<op>.fwd_us" / ".bwd_us": median microseconds}, plus problems."""
    import tsicl.autodiff as ad

    class CaptureTape(ad.Tape):
        def record(self, out, backward_fn):
            super().record(out, backward_fn)
            self.last = backward_fn

    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xBE4C)))
    results: dict[str, float] = {}
    problems: list[str] = []
    try:
        cases = _cases(ad, w, rng)
    except (AttributeError, TypeError) as exc:
        return results, [f"microbench setup failed: {exc!r}"]
    for op in OPS:
        forward, inputs = cases[op]
        try:
            results[f"autodiff.{op}.fwd_us"] = _median_us(forward)
            tape = CaptureTape()
            with tape:
                out = forward()
            dout = rng.standard_normal(out.shape)

            def backward():
                for tensor in inputs:
                    tensor.grad = None
                tape.last(dout)

            results[f"autodiff.{op}.bwd_us"] = _median_us(backward)
        except Exception as exc:  # an op renamed or redefined loses its number, not the run
            problems.append(f"microbench {op}: {exc!r}")
    return results, problems
