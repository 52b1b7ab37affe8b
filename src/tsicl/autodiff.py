"""Minimal reverse-mode autodiff over dense rank-<=3 float64 tensors.

Ops record themselves on the active ``Tape``; ``Tape.backward`` replays the
records in exact reverse execution order and accumulates gradients into every
reachable tensor. An op output's gradient is dropped as soon as its own rule
has run, so after the pass only parameters hold one. Constants (model inputs,
built with ``constant``) never hold one, and ops skip the work of computing it.
Without an active tape the same functions run forward-only, which is how
evaluation avoids bookkeeping cost.

The op set is deliberately small (standard transformer arithmetic) and every
backward rule is covered by a finite-difference check in the test suite.
Multi-head attention stays within rank 3 through ``split_heads``, which folds
(B, S, H*dh) into (B*H, S, dh), its inverse ``merge_heads``, and ``attention``,
one fused, row-tiled op over the folded heads that scores a causal row only
against the keys it can see.

Gradients are never updated in place. A backward rule may hand the same array,
or a view of it, to several inputs (``add``, ``transpose``, the slice ops), so
``Tensor.accumulate`` stores the first gradient as given and adds later ones
out of place.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import DataError, GeometryError, NumericalError

_ACTIVE_TAPE = None
_CHECK_FINITE = False


@contextmanager
def finite_checks(enabled: bool = True):
    """Debug mode: assert every op output is finite (costs one pass per op)."""
    global _CHECK_FINITE
    prev = _CHECK_FINITE
    _CHECK_FINITE = enabled
    try:
        yield
    finally:
        _CHECK_FINITE = prev


class Tensor:
    """A float64 ndarray plus an accumulated gradient of the same shape."""

    __slots__ = ("data", "grad")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        if self.data.ndim > 3:
            raise GeometryError(f"tensors are rank <= 3, got shape {self.data.shape}")
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def accumulate(self, g: np.ndarray) -> None:
        # g may be shared with other tensors' gradients: store it, never write into it
        self.grad = g if self.grad is None else self.grad + g

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape})"


class Constant(Tensor):
    """Input data: flows through ops but never accumulates a gradient."""

    __slots__ = ()

    def accumulate(self, g: np.ndarray) -> None:
        pass


class Parameter(Tensor):
    """A named trainable tensor; its gradient persists across tape teardown."""

    __slots__ = ("name",)

    def __init__(self, data, name: str):
        super().__init__(data)
        self.name = name

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Parameter({self.name}, shape={self.data.shape})"


class Tape:
    """Ordered record of executed ops; one backward pass, then cleared."""

    def __init__(self):
        self._nodes: list[tuple[Tensor, callable]] = []
        self._consumed = False

    def __enter__(self) -> "Tape":
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise RuntimeError("a tape is already active")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, *exc) -> None:
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None

    def record(self, out: Tensor, backward_fn) -> None:
        self._nodes.append((out, backward_fn))

    def backward(self, loss: Tensor) -> None:
        """Populate gradients of everything that fed ``loss``."""
        if self._consumed:
            raise RuntimeError("tape already consumed; rerun the forward pass")
        if loss.data.shape != ():
            raise GeometryError(f"backward needs a scalar loss, got shape {loss.data.shape}")
        if not self._nodes or self._nodes[-1][0] is not loss:
            raise RuntimeError("loss is not the last op recorded on this tape")
        loss.grad = np.ones(())
        for out, backward_fn in reversed(self._nodes):
            if out.grad is not None:
                backward_fn(out.grad)
                # every consumer of out was recorded later, so its gradient is final and now dead
                out.grad = None
        self._nodes.clear()
        self._consumed = True


def _tape() -> Tape | None:
    return _ACTIVE_TAPE


def _finish(out: Tensor, backward_fn, op: str) -> Tensor:
    if _CHECK_FINITE and not np.all(np.isfinite(out.data)):
        raise NumericalError(f"non-finite output from {op}")
    tape = _tape()
    if tape is not None:
        tape.record(out, backward_fn)
    return out


def _sum_to_shape(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to the source shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def constant(data) -> Constant:
    return Constant(data)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise GeometryError(f"matmul needs rank >= 2 operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise GeometryError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    if b.data.ndim == 2:
        # a (..., k) @ weight (k, n): one 2-D GEMM over the flattened leading axes
        k, n = b.shape
        lead = a.shape[:-1]
        out = Tensor((a.data.reshape(-1, k) @ b.data).reshape(*lead, n))

        def backward(dout: np.ndarray) -> None:
            flat = dout.reshape(-1, n)
            if not isinstance(a, Constant):  # input data needs no gradient GEMM
                a.accumulate((flat @ b.data.T).reshape(*lead, k))
            b.accumulate(a.data.reshape(-1, k).T @ flat)

        return _finish(out, backward, "matmul")

    out = Tensor(np.matmul(a.data, b.data))

    def backward(dout: np.ndarray) -> None:
        a.accumulate(_sum_to_shape(np.matmul(dout, np.swapaxes(b.data, -1, -2)), a.data.shape))
        b.accumulate(_sum_to_shape(np.matmul(np.swapaxes(a.data, -1, -2), dout), b.data.shape))

    return _finish(out, backward, "matmul")


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise add; the only broadcast allowed is a suffix-shaped bias."""
    suffix_ok = b.data.ndim <= a.data.ndim and b.shape == a.shape[a.data.ndim - b.data.ndim:]
    if not (a.shape == b.shape or suffix_ok):
        raise GeometryError(f"add shape mismatch: {a.shape} + {b.shape}")
    out = Tensor(a.data + b.data)

    def backward(dout: np.ndarray) -> None:
        for t in (a, b):
            if not isinstance(t, Constant):
                t.accumulate(_sum_to_shape(dout, t.data.shape))

    return _finish(out, backward, "add")


def scale(a: Tensor, c: float) -> Tensor:
    out = Tensor(a.data * c)

    def backward(dout: np.ndarray) -> None:
        a.accumulate(dout * c)

    return _finish(out, backward, "scale")


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes."""
    if a.data.ndim < 2:
        raise GeometryError(f"transpose needs rank >= 2, got {a.shape}")
    out = Tensor(np.swapaxes(a.data, -1, -2))

    def backward(dout: np.ndarray) -> None:
        a.accumulate(np.swapaxes(dout, -1, -2))

    return _finish(out, backward, "transpose")


def softmax(a: Tensor, allowed: np.ndarray | None = None) -> Tensor:
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
    # y is a fresh array: exponentiate and normalise it without further copies
    np.exp(y, out=y)
    y /= np.sum(y, axis=-1, keepdims=True)
    out = Tensor(y)

    def backward(dout: np.ndarray) -> None:
        g = dout - np.sum(dout * y, axis=-1, keepdims=True)
        g *= y
        a.accumulate(g)

    return _finish(out, backward, "softmax")


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last dim, then affine.

    ``eps`` is a floor on the variance: ``xhat = (x - mean) / sqrt(max(var, eps))``.
    Rows with variance >= ``eps`` leave with zero mean and unit variance. Rows
    below it (constant or near-constant rows) are centred and scaled by
    ``1/sqrt(eps)``, so they do not reach unit variance, and the scale of the
    output and of the gradient stays bounded by ``1/sqrt(eps)``.
    """
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise GeometryError(f"layer_norm affine shapes {gain.shape}/{bias.shape} != ({d},)")
    mu = np.mean(x.data, axis=-1, keepdims=True)
    var = np.var(x.data, axis=-1, keepdims=True)
    above = var >= eps
    inv = 1.0 / np.sqrt(np.maximum(var, eps))
    xhat = (x.data - mu) * inv
    out = Tensor(gain.data * xhat + bias.data)

    def backward(dout: np.ndarray) -> None:
        lead = tuple(range(dout.ndim - 1))
        gain.accumulate(np.sum(dout * xhat, axis=lead))
        bias.accumulate(np.sum(dout, axis=lead))
        dxhat = dout * gain.data
        # below the floor the scale is the constant 1/sqrt(eps): no variance term
        proj = np.where(above, np.mean(dxhat * xhat, axis=-1, keepdims=True), 0.0)
        dx = inv * (dxhat - np.mean(dxhat, axis=-1, keepdims=True) - xhat * proj)
        x.accumulate(dx)

    return _finish(out, backward, "layer_norm")


_GELU_C = float(np.sqrt(2.0 / np.pi))


def gelu(x: Tensor) -> Tensor:
    """Tanh-approximation GELU."""
    xd = x.data
    # x*x*x, not x**3: numpy's float power is ~40x slower than two multiplies
    th = np.tanh(_GELU_C * (xd + 0.044715 * (xd * xd * xd)))
    out = Tensor(0.5 * xd * (1.0 + th))

    def backward(dout: np.ndarray) -> None:
        du = _GELU_C * (1.0 + 3 * 0.044715 * (xd * xd))
        dx = 0.5 * (1.0 + th) + 0.5 * xd * (1.0 - th * th) * du
        x.accumulate(dout * dx)

    return _finish(out, backward, "gelu")


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise GeometryError("concat of an empty list")
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    sizes = [t.data.shape[axis] for t in tensors]

    def backward(dout: np.ndarray) -> None:
        offset = 0
        for t, n in zip(tensors, sizes):
            idx = [slice(None)] * dout.ndim
            idx[axis if axis >= 0 else dout.ndim + axis] = slice(offset, offset + n)
            t.accumulate(dout[tuple(idx)])
            offset += n

    return _finish(out, backward, "concat")


def axis_slice(a: Tensor, start: int, stop: int, axis: int) -> Tensor:
    """Contiguous slice [start, stop) along one axis."""
    ax = axis if axis >= 0 else a.data.ndim + axis
    n = a.data.shape[ax]
    if not (0 <= start <= stop <= n):
        raise GeometryError(f"slice [{start}, {stop}) out of range for axis {axis} of {a.shape}")
    idx = [slice(None)] * a.data.ndim
    idx[ax] = slice(start, stop)
    out = Tensor(a.data[tuple(idx)])

    def backward(dout: np.ndarray) -> None:
        g = np.zeros_like(a.data)
        g[tuple(idx)] = dout
        a.accumulate(g)

    return _finish(out, backward, "slice")


def split_heads(x: Tensor, heads: int) -> Tensor:
    """Fold heads into the batch: (B, S, H*dh) -> (B*H, S, dh).

    Row ``b*H + h`` of the result is head ``h`` of batch item ``b``, i.e.
    ``x[b, :, h*dh:(h+1)*dh]``.
    """
    if x.data.ndim != 3 or heads < 1 or x.shape[-1] % heads != 0:
        raise GeometryError(f"split_heads: last axis of {x.shape} not divisible by {heads} heads")
    b, s, d = x.shape
    dh = d // heads
    out = Tensor(x.data.reshape(b, s, heads, dh).transpose(0, 2, 1, 3).reshape(b * heads, s, dh))

    def backward(dout: np.ndarray) -> None:
        x.accumulate(dout.reshape(b, heads, s, dh).transpose(0, 2, 1, 3).reshape(b, s, d))

    return _finish(out, backward, "split_heads")


def merge_heads(x: Tensor, heads: int) -> Tensor:
    """Inverse of ``split_heads``: (B*H, S, dh) -> (B, S, H*dh)."""
    if x.data.ndim != 3 or heads < 1 or x.shape[0] % heads != 0:
        raise GeometryError(f"merge_heads: leading axis of {x.shape} not divisible by {heads} heads")
    bh, s, dh = x.shape
    b, d = bh // heads, heads * dh
    out = Tensor(x.data.reshape(b, heads, s, dh).transpose(0, 2, 1, 3).reshape(b, s, d))

    def backward(dout: np.ndarray) -> None:
        x.accumulate(dout.reshape(b, s, heads, dh).transpose(0, 2, 1, 3).reshape(bh, s, dh))

    return _finish(out, backward, "merge_heads")


_ATTENTION_TILE = 64


def attention(q: Tensor, k: Tensor, v: Tensor, causal: bool) -> Tensor:
    """Scaled dot-product attention ``softmax(q k^T / sqrt(dh)) v`` over (B*H, S, dh).

    Query rows run in tiles of ``_ATTENTION_TILE``. A causal tile of rows
    [r0, r1) scores only keys [0, r1) and masks the upper triangle of its
    diagonal block, so no row pays for keys it cannot see. Only the
    probability tiles are kept for the backward pass, which takes the softmax
    row term as rowsum(dO * O), (S, dh), instead of rowsum(dP * P), (S, S), as
    FlashAttention (Dao et al., 2022) does.
    """
    if q.data.ndim != 3 or k.shape != q.shape or v.data.ndim != 3 or v.shape[:2] != q.shape[:2]:
        raise GeometryError(f"attention needs (B*H, S, dh) operands, got {q.shape}, {k.shape}, {v.shape}")
    s, dh = q.shape[1], q.shape[2]
    c = 1.0 / np.sqrt(dh)
    qs, kd, vd = q.data * c, k.data, v.data
    rows = [(r0, min(r0 + _ATTENTION_TILE, s)) for r0 in range(0, s, _ATTENTION_TILE)]
    upper = np.triu(np.full((_ATTENTION_TILE, _ATTENTION_TILE), -np.inf), 1)
    o = np.empty(q.shape[:2] + v.shape[2:])
    # only a recorded op needs its probability tiles again; evaluation drops each one
    keep = _tape() is not None
    tiles = []
    for r0, r1 in rows:
        n = r1 if causal else s
        p = np.matmul(qs[:, r0:r1], np.swapaxes(kd[:, :n], -1, -2))
        if causal:
            p[:, :, r0:] += upper[: r1 - r0, : r1 - r0]
        p -= np.max(p, axis=-1, keepdims=True)
        np.exp(p, out=p)
        p /= np.sum(p, axis=-1, keepdims=True)
        o[:, r0:r1] = np.matmul(p, vd[:, :n])
        if keep:
            tiles.append(p)
    out = Tensor(o)

    def backward(dout: np.ndarray) -> None:
        delta = np.sum(dout * o, axis=-1, keepdims=True)
        dq, dk, dv = np.empty_like(qs), np.zeros_like(kd), np.zeros_like(vd)
        for (r0, r1), p in zip(rows, tiles):
            n = p.shape[-1]
            do = dout[:, r0:r1]
            dv[:, :n] += np.matmul(np.swapaxes(p, -1, -2), do)
            ds = np.matmul(do, np.swapaxes(vd[:, :n], -1, -2))
            ds -= delta[:, r0:r1]
            ds *= p
            dq[:, r0:r1] = np.matmul(ds, kd[:, :n])
            dk[:, :n] += np.matmul(np.swapaxes(ds, -1, -2), qs[:, r0:r1])
        dq *= c
        q.accumulate(dq)
        k.accumulate(dk)
        v.accumulate(dv)

    return _finish(out, backward, "attention")


def row_slice(a: Tensor, start: int, stop: int) -> Tensor:
    """Slice rows (second-to-last axis)."""
    return axis_slice(a, start, stop, axis=-2)


def mse_loss(pred: Tensor, target: np.ndarray, element_mask: np.ndarray) -> Tensor:
    """Mean squared error over positions where element_mask == 1."""
    target = np.asarray(target, dtype=np.float64)
    mask = np.asarray(element_mask, dtype=np.float64)
    if target.shape != pred.shape or mask.shape != pred.shape:
        raise GeometryError(
            f"mse_loss shape mismatch: pred {pred.shape}, target {target.shape}, mask {mask.shape}"
        )
    count = mask.sum()
    if count == 0:
        raise DataError("mse_loss with an all-zero element mask")
    diff = (pred.data - target) * mask
    out = Tensor(np.sum(diff * diff) / count)

    def backward(dout: np.ndarray) -> None:
        pred.accumulate(dout * 2.0 * diff / count)

    return _finish(out, backward, "mse_loss")


def save_params(params: dict[str, Parameter], path: str | Path, meta: dict | None = None) -> None:
    """JSON checkpoint: name -> shape + flat values. Round-trips exactly."""
    payload = {
        "meta": meta or {},
        "params": {
            name: {"shape": list(p.data.shape), "values": p.data.reshape(-1).tolist()}
            for name, p in params.items()
        },
    }
    Path(path).write_text(json.dumps(payload, separators=(",", ":")) + "\n")


def load_params(path: str | Path) -> tuple[dict[str, Parameter], dict]:
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such checkpoint: {path}")
    # JSONDecodeError is a ValueError; a bad key, type or shape is a malformed file too
    try:
        payload = json.loads(path.read_text())
        params = {
            name: Parameter(np.array(entry["values"], dtype=np.float64).reshape(entry["shape"]), name)
            for name, entry in payload["params"].items()
        }
        meta = payload.get("meta", {})
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise DataError(f"malformed checkpoint {path}: {exc!r}") from None
    return params, meta
