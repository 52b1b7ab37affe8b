"""Minimal reverse-mode autodiff over dense rank-<=3 float32 or float64 tensors.

Ops record themselves on the active ``Tape``; ``Tape.backward`` replays the
records in exact reverse execution order and accumulates gradients into every
reachable tensor. An op output's gradient is dropped as soon as its own rule
has run, so after the pass only parameters hold one. Constants (model inputs,
built with ``constant``) never hold one, and ops skip the work of computing it.
Without an active tape the same functions run forward-only, which is how
evaluation avoids bookkeeping cost.

The op set is exactly what the model and its loss run: ``matmul`` (an operand
times a 2-D weight, plus an optional bias), ``add``, ``layer_norm``, ``gelu``,
``concat``, ``row_slice``, ``split_heads``, ``merge_heads``, ``attention`` and
``mse_loss``. Every backward rule is covered by a finite-difference check in
the test suite, which also keeps the reference ops (``scale``, ``transpose``,
``softmax``, an operand-times-operand ``matmul``) that ``attention`` is
checked against. Multi-head attention stays within rank 3 through
``split_heads``, which folds (B, S, H*dh) into (B*H, S, dh), its inverse
``merge_heads``, and ``attention``, one fused, row-tiled op over the folded
heads that scores a causal row only against the keys it can see. Its queries
may cover only the last rows of its keys, aligned to the last keys, so a
caller that reads a few output rows computes only those.

Every op keeps its inputs' dtype: float32 inputs give float32 outputs and
gradients, float64 inputs float64 ones. Scalars inside the ops are Python
floats, never numpy float64 scalars or 0-d arrays, which would promote a
float32 operand to float64 under numpy >= 2 (NEP 50).

A checkpoint is one JSON file: ``meta``, the parameters' one ``dtype`` and per
parameter its ``shape`` and ``data``, the standard base64 (RFC 4648) of its
values' little-endian bytes in that dtype, so it reads back bit for bit.

Gradients are never updated in place. A backward rule may hand the same array,
or a view of it, to several inputs (``add``, ``concat``), so
``Tensor.accumulate`` stores the first gradient as given and adds later ones
out of place.

The process never hands freed heap memory back to the kernel. A training step
frees its whole tape at the end, and glibc's default is to trim the top of the
heap and to serve large arrays from fresh ``mmap`` calls, so the next step
faults every activation back in page by page. At import, ``_keep_freed_memory``
therefore sets glibc's ``M_TRIM_THRESHOLD`` to -1 (never trim) and its
``M_MMAP_THRESHOLD`` to glibc's own cap on the dynamic threshold, so that the
heap stays at its high-water mark, which peak RSS counts anyway. Both settings
go together: any ``mallopt`` call switches off glibc's dynamic threshold, so a
lone setting is worse than none. Where the C library has no ``mallopt`` (not
glibc) this is a no-op.
"""

from __future__ import annotations

import base64
import ctypes
import json
import math
from pathlib import Path

import numpy as np

from .errors import DataError, GeometryError, NumericalError

_ACTIVE_TAPE = None

# glibc's mallopt parameters (malloc.h) and DEFAULT_MMAP_THRESHOLD_MAX, its cap
# on the dynamic mmap threshold: 4 MiB * sizeof(long), so 32 MiB on 64-bit
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_MAX = 4 * 1024 * 1024 * ctypes.sizeof(ctypes.c_long)


def _keep_freed_memory() -> bool:
    """Keep freed memory in the heap; True when both ``mallopt`` calls succeed."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # no libc handle, or no mallopt in it
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return (
        mallopt(_M_TRIM_THRESHOLD, -1) == 1
        and mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_MAX) == 1
    )


_keep_freed_memory()


class Tensor:
    """A float32 or float64 ndarray plus an accumulated gradient of the same shape.

    float32 data is kept as it is; anything else (float64, integers, lists) is
    stored as float64.
    """

    __slots__ = ("data", "grad")

    def __init__(self, data):
        data = np.asarray(data)
        self.data = data if data.dtype == np.float32 else data.astype(np.float64, copy=False)
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
        loss.grad = np.ones_like(loss.data)
        for out, backward_fn in reversed(self._nodes):
            if out.grad is not None:
                backward_fn(out.grad)
                # every consumer of out was recorded later, so its gradient is final and now dead
                out.grad = None
        self._nodes.clear()
        self._consumed = True


def _tape() -> Tape | None:
    return _ACTIVE_TAPE


def _finish(out: Tensor, backward_fn) -> Tensor:
    tape = _tape()
    if tape is not None:
        tape.record(out, backward_fn)
    return out


def _sum_to_shape(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a gradient over the leading axes a suffix-shaped operand was broadcast along."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    return g


def constant(data) -> Constant:
    return Constant(data)


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """An operand (..., k) times a weight (k, n), plus a bias (n,) if given: one 2-D GEMM, the bias added in place."""
    if a.data.ndim < 2 or b.data.ndim != 2:
        raise GeometryError(f"matmul needs a rank >= 2 operand and a 2-D weight, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise GeometryError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    k, n = b.shape
    if bias is not None and bias.shape != (n,):
        raise GeometryError(f"matmul bias shape mismatch: {a.shape} @ {b.shape} + {bias.shape}")
    lead = a.shape[:-1]
    product = a.data.reshape(-1, k) @ b.data
    if bias is not None:
        product += bias.data
    out = Tensor(product.reshape(*lead, n))

    def backward(dout: np.ndarray) -> None:
        flat = dout.reshape(-1, n)
        if not isinstance(a, Constant):  # input data needs no gradient GEMM
            a.accumulate((flat @ b.data.T).reshape(*lead, k))
        b.accumulate(a.data.reshape(-1, k).T @ flat)
        if bias is not None:
            bias.accumulate(_sum_to_shape(dout, bias.shape))

    return _finish(out, backward)


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

    return _finish(out, backward)


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
    # centre each row once; mean(xc * xc) is the same sum np.var computes
    xhat = x.data - np.mean(x.data, axis=-1, keepdims=True)
    var = np.mean(xhat * xhat, axis=-1, keepdims=True)
    above = var >= eps
    inv = 1.0 / np.sqrt(np.maximum(var, eps))
    xhat *= inv
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

    return _finish(out, backward)


_GELU_C = float(np.sqrt(2.0 / np.pi))


def gelu(x: Tensor) -> Tensor:
    """Tanh-approximation GELU, ``0.5 x (1 + tanh(C (x + 0.044715 x^3)))``.

    Forward and backward each work in place in two arrays of the input's shape.
    They keep the operation order of the closed form, apart from applying its
    factor 0.5 last; scaling by 0.5 is exact, so every bit is the same.
    """
    xd = x.data
    # x*x*x, not x**3: numpy's float power is ~40x slower than two multiplies
    th = xd * xd
    th *= xd
    th *= 0.044715
    th += xd
    th *= _GELU_C
    np.tanh(th, out=th)
    y = th + 1.0
    y *= xd
    y *= 0.5
    out = Tensor(y)

    def backward(dout: np.ndarray) -> None:
        # du = C (1 + 3 * 0.044715 x^2)
        du = xd * xd
        du *= 3 * 0.044715
        du += 1.0
        du *= _GELU_C
        # dx = 0.5 (1 + th) + 0.5 x (1 - th^2) du, with the 0.5 taken out of the sum
        t = th * th
        np.subtract(1.0, t, out=t)
        t *= xd
        t *= du
        np.add(th, 1.0, out=du)
        du += t
        du *= 0.5
        du *= dout
        x.accumulate(du)

    return _finish(out, backward)


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

    return _finish(out, backward)


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

    return _finish(out, backward)


def merge_heads(x: Tensor, heads: int) -> Tensor:
    """Inverse of ``split_heads``: (B*H, S, dh) -> (B, S, H*dh)."""
    if x.data.ndim != 3 or heads < 1 or x.shape[0] % heads != 0:
        raise GeometryError(f"merge_heads: leading axis of {x.shape} not divisible by {heads} heads")
    bh, s, dh = x.shape
    b, d = bh // heads, heads * dh
    out = Tensor(x.data.reshape(b, heads, s, dh).transpose(0, 2, 1, 3).reshape(b, s, d))

    def backward(dout: np.ndarray) -> None:
        x.accumulate(dout.reshape(b, s, heads, dh).transpose(0, 2, 1, 3).reshape(bh, s, dh))

    return _finish(out, backward)


_ATTENTION_TILE = 64


def attention(q: Tensor, k: Tensor, v: Tensor, causal: bool) -> Tensor:
    """Scaled dot-product attention ``softmax(q k^T / sqrt(dh)) v`` over (B*H, S, dh).

    ``q`` may hold fewer rows than ``k`` and ``v``: S_q <= S_k. Its rows are the
    last S_q positions, so query row i sits at key position off + i with
    off = S_k - S_q, the bottom-right-aligned causal mask of FlashAttention-2
    (Dao, 2023). S_q = S_k is plain self-attention.

    Query rows run in tiles of ``_ATTENTION_TILE``. A causal tile of rows
    [r0, r1) scores only keys [0, off + r1) and masks the upper triangle of
    its block at key columns [off + r0, off + r1), so no row pays for keys it
    cannot see. Only the probability tiles are kept for the backward pass,
    which takes the softmax row term as rowsum(dO * O), (S_q, dh), instead of
    rowsum(dP * P), (S_q, S_k), as FlashAttention (Dao et al., 2022) does.
    """
    if (
        q.data.ndim != 3 or k.data.ndim != 3 or v.data.ndim != 3
        or k.shape[0] != q.shape[0] or k.shape[2] != q.shape[2] or v.shape[:2] != k.shape[:2]
        or q.shape[1] > k.shape[1]
    ):
        raise GeometryError(
            f"attention needs (B*H, S_q, dh) queries over (B*H, S_k, dh) keys and values with "
            f"S_q <= S_k, got {q.shape}, {k.shape}, {v.shape}"
        )
    sq, sk, dh = q.shape[1], k.shape[1], q.shape[2]
    off = sk - sq
    c = 1.0 / math.sqrt(dh)
    qs, kd, vd = q.data * c, k.data, v.data
    rows = [(r0, min(r0 + _ATTENTION_TILE, sq)) for r0 in range(0, sq, _ATTENTION_TILE)]
    upper = np.triu(np.full((_ATTENTION_TILE, _ATTENTION_TILE), -np.inf, dtype=qs.dtype), 1)
    o = np.empty(q.shape[:2] + v.shape[2:], dtype=qs.dtype)
    # only a recorded op needs its probability tiles again; evaluation drops each one
    keep = _tape() is not None
    tiles = []
    for r0, r1 in rows:
        n = off + r1 if causal else sk
        p = np.matmul(qs[:, r0:r1], np.swapaxes(kd[:, :n], -1, -2))
        if causal:
            p[:, :, off + r0:] += upper[: r1 - r0, : r1 - r0]
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

    return _finish(out, backward)


def row_slice(a: Tensor, start: int, stop: int) -> Tensor:
    """Contiguous rows [start, stop) of the second-to-last axis."""
    n = a.data.shape[-2]
    if not (0 <= start <= stop <= n):
        raise GeometryError(f"row slice [{start}, {stop}) out of range for {a.shape}")
    out = Tensor(a.data[..., start:stop, :])

    def backward(dout: np.ndarray) -> None:
        g = np.zeros_like(a.data)
        g[..., start:stop, :] = dout
        a.accumulate(g)

    return _finish(out, backward)


def mse_loss(pred: Tensor, target: np.ndarray, count: int | None = None) -> Tensor:
    """Squared error summed over every element and divided by ``count`` (default: the element
    count), in ``pred``'s dtype. A part of a batch divides by the whole batch's element count, so
    its gradient is its share of the batch's and the parts' losses add up to the batch's MSE."""
    target = np.asarray(target, dtype=pred.data.dtype)
    if target.shape != pred.shape:
        raise GeometryError(f"mse_loss shape mismatch: pred {pred.shape}, target {target.shape}")
    if pred.data.size == 0:
        raise DataError("mse_loss of an empty prediction")
    count = pred.data.size if count is None else count
    diff = pred.data - target
    out = Tensor(np.sum(diff * diff) / count)

    def backward(dout: np.ndarray) -> None:
        pred.accumulate(dout * 2.0 * diff / count)

    return _finish(out, backward)


_CHECKPOINT_DTYPES = {"float32": "<f4", "float64": "<f8"}  # each with its values' byte layout


def save_params(params: dict[str, Parameter], path: str | Path, meta: dict | None = None) -> None:
    """Write ``params`` and ``meta`` as the checkpoint that the module docstring describes.

    A dict that mixes dtypes, or a parameter holding NaN or an infinity, is
    refused before anything is written.
    """
    dtypes = sorted({p.data.dtype.name for p in params.values()}) or ["float64"]
    if len(dtypes) > 1:
        raise DataError(f"cannot checkpoint parameters of mixed dtypes {dtypes}")
    entries = {}
    for name, p in params.items():
        if not np.all(np.isfinite(p.data)):
            raise NumericalError(f"cannot checkpoint parameter {name}: it holds a non-finite value")
        data = base64.b64encode(p.data.astype(_CHECKPOINT_DTYPES[dtypes[0]], copy=False).tobytes()).decode()
        entries[name] = {"shape": list(p.data.shape), "data": data}
    payload = {"meta": meta or {}, "dtype": dtypes[0], "params": entries}
    Path(path).write_text(json.dumps(payload, separators=(",", ":")) + "\n")


def load_params(path: str | Path) -> tuple[dict[str, Parameter], dict]:
    """Parameters and meta of a ``save_params`` file, in the dtype it records.

    A missing ``dtype`` or ``data``, ``data`` that is not base64 or whose byte
    count does not fit ``shape``, a non-finite value, or a meta that is not an
    object makes the file malformed.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such checkpoint: {path}")
    # JSONDecodeError and binascii.Error are ValueErrors; a bad key, type or shape is a malformed file too
    try:
        payload = json.loads(path.read_text())
        dtype = payload["dtype"]
        if dtype not in _CHECKPOINT_DTYPES:
            raise ValueError(f"dtype {dtype!r} is not one of {tuple(_CHECKPOINT_DTYPES)}")
        params = {}
        for name, entry in payload["params"].items():
            raw = np.frombuffer(base64.b64decode(entry["data"], validate=True), _CHECKPOINT_DTYPES[dtype])
            params[name] = Parameter(raw.astype(dtype).reshape(entry["shape"]), name)
            if not np.all(np.isfinite(params[name].data)):
                raise ValueError(f"parameter {name} holds a non-finite value")
        meta = payload.get("meta", {})
        if not isinstance(meta, dict):
            raise ValueError(f"meta is a {type(meta).__name__}, not an object")
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise DataError(f"malformed checkpoint {path}: {exc!r}") from None
    return params, meta
