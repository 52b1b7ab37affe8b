"""Plain reference implementations that the tests check the library's faster forms against.

``tsicl.autodiff.attention`` is one fused op. These are the plain pieces it
replaces (``scale``, ``transpose``, ``softmax`` and an operand-times-operand
``matmul``), each with its own backward rule, so the tests can check the fused
op against a chain whose every step is finite-difference checked. They record
on the active tape through ``autodiff._finish``, as the library's ops do.
``mask_positions`` is the documented mask draw as k scalar ``rng.integers``
calls, which ``tasks.sample_mask_positions`` makes in one call. ``example``
reads one task example value by value off a split's values, as the task
table describes it, and ``build_stream`` lays examples out one stream at a
time: ``context.example_streams`` gathers what they make. ``source_span``
finds one example's source span on its channel's timeline, ``overlaps``
compares two, and ``sample_spans`` lists a context sample's, which
``context.write_jsonl`` finds for a whole dataset at once.
"""

from __future__ import annotations

import numpy as np

from tsicl import autodiff as ad
from tsicl.errors import GeometryError
from tsicl.tasks import GEOMETRY, TASK_ORDER


def _sum_to_shape(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to the source shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def matmul(a: ad.Tensor, b: ad.Tensor) -> ad.Tensor:
    """``np.matmul`` of two operands of rank >= 2, batch axes broadcast."""
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise GeometryError(f"matmul needs rank >= 2 operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise GeometryError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    out = ad.Tensor(np.matmul(a.data, b.data))

    def backward(dout: np.ndarray) -> None:
        a.accumulate(_sum_to_shape(np.matmul(dout, np.swapaxes(b.data, -1, -2)), a.data.shape))
        b.accumulate(_sum_to_shape(np.matmul(np.swapaxes(a.data, -1, -2), dout), b.data.shape))

    return ad._finish(out, backward)


def scale(a: ad.Tensor, c: float) -> ad.Tensor:
    out = ad.Tensor(a.data * c)

    def backward(dout: np.ndarray) -> None:
        a.accumulate(dout * c)

    return ad._finish(out, backward)


def transpose(a: ad.Tensor) -> ad.Tensor:
    """Swap the last two axes."""
    if a.data.ndim < 2:
        raise GeometryError(f"transpose needs rank >= 2, got {a.shape}")
    out = ad.Tensor(np.swapaxes(a.data, -1, -2))

    def backward(dout: np.ndarray) -> None:
        a.accumulate(np.swapaxes(dout, -1, -2))

    return ad._finish(out, backward)


def softmax(a: ad.Tensor, allowed: np.ndarray | None = None) -> ad.Tensor:
    """Stable softmax over the last dim; ``allowed=False`` cells get weight 0."""
    if a.shape[-1] == 0:
        raise GeometryError("softmax over an empty dimension")
    x = a.data
    if allowed is not None:
        if not np.any(allowed, axis=-1).all():
            raise GeometryError("softmax row with every position masked")
        y = np.where(allowed, x, -np.inf)
        y -= np.max(y, axis=-1, keepdims=True)
    else:
        y = x - np.max(x, axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= np.sum(y, axis=-1, keepdims=True)
    out = ad.Tensor(y)

    def backward(dout: np.ndarray) -> None:
        g = dout - np.sum(dout * y, axis=-1, keepdims=True)
        g *= y
        a.accumulate(g)

    return ad._finish(out, backward)


def attention(q: ad.Tensor, k: ad.Tensor, v: ad.Tensor, causal: bool) -> ad.Tensor:
    """``softmax(q k^T / sqrt(dh)) v`` over folded heads (B*H, S, dh), as a chain of the ops above.

    Query row i sits at key position S_k - S_q + i, so a causal row sees the
    keys up to that position: the bottom-right-aligned mask of the fused op.
    """
    sq, sk = q.shape[1], k.shape[1]
    allowed = np.tril(np.ones((sk, sk), dtype=bool))[sk - sq:] if causal else None
    scores = matmul(scale(q, 1.0 / np.sqrt(q.shape[-1])), transpose(k))
    return matmul(softmax(scores, allowed=allowed), v)


def mask_positions(rng: np.random.Generator, n: int, k: int) -> list[int]:
    """The first k entries of a Fisher-Yates shuffle of range(n), ascending: swap i takes
    ``rng.integers(i, n)``, one scalar draw per swap."""
    idx = list(range(n))
    for i in range(k):
        j = int(rng.integers(i, n))
        idx[i], idx[j] = idx[j], idx[i]
    return sorted(idx[:k])


def example(task, values, t: int, w, mask=()) -> tuple[np.ndarray, np.ndarray]:
    """The input tokens (L, 3) and target (h,) of the ``task`` example whose window is ``values[t : t+L]``.

    Each token is (value, 0, 0), or (0, 1, 0) at a position of ``mask``; the
    target is the ``before`` values, the masked values, then the ``after``
    values, in ascending time.
    """
    L, h, g = w.lookback, w.horizon, GEOMETRY[task]
    tokens = np.zeros((L, 3))
    for i in range(L):
        if i in mask:
            tokens[i, 1] = 1.0
        else:
            tokens[i, 0] = values[t + i]
    target = [*values[t - g.before * h : t], *(values[t + i] for i in sorted(mask)),
              *values[t + L : t + L + g.after * h]]
    return tokens, np.array(target, dtype=np.float64)


def build_stream(demos, query=None) -> np.ndarray:
    """Each demo's input and its answer shown as (value, 0, 1), then the query's input and h placeholders (0, 1, 1).

    Examples are (tokens, target) pairs. Without a query this is the demo
    prefix alone.
    """
    parts = [part for tokens, target in demos
             for part in (tokens, np.column_stack([target, np.zeros(len(target)), np.ones(len(target))]))]
    if query is not None:
        parts += [query[0], np.tile([0.0, 1.0, 1.0], (len(query[1]), 1))]
    return np.concatenate(parts) if parts else np.zeros((0, 3))


def source_span(store, task, row: int, w) -> tuple[str, str, int, int]:
    """(dataset, channel, start, end) of the ``task`` example whose window starts at ``row`` of ``store``: the
    values it reads, from ``before`` horizons ahead of its window to ``after`` past it, as times on its channel's
    timeline, whose first row is time 0."""
    c = next(c for c in range(len(store.channels)) if store.bounds[c, 0] <= row < store.bounds[c, 3])
    g, t = GEOMETRY[task], row - int(store.bounds[c, 0])
    return store.dataset, store.channels[c], t - g.before * w.horizon, t + w.lookback + g.after * w.horizon


def overlaps(a: tuple, b: tuple) -> bool:
    """Whether two source spans share a value: the same channel of the same dataset, and intersecting times."""
    return a[:2] == b[:2] and a[2] < b[3] and b[2] < a[3]


def sample_spans(dataset, i: int) -> list:
    """The source spans of sample ``i`` of a ``context.ContextDataset``, its demos' then its query's."""
    task = TASK_ORDER[dataset.tasks[i]]
    return [source_span(dataset.store, task, row, dataset.window) for row in dataset.rows[i].tolist()]
