"""Non-fine-tuning baselines: coerce an unseen task into a model's native one.

Each adapter takes a batch of gathered query inputs (N, L, 3), their masked
positions (N, k) and the window, and returns ``(histories, read)``: per query
a history the frozen model can forecast from, ``histories[i]`` (n_i, 3), and
where among the forecast steps each target value lies, ``read[i]`` (h,), in
chronological order. Query i's model is asked for ``read[i].max() + 1`` steps,
and its prediction of the target is those steps at ``read[i]``. The targets
stay with ``evalharness.score_probes``, which scores every probe against them.
Adapters never touch model parameters nor build an answer region:
``evalharness._fit_adapted`` appends one to every history. ``adapter_for``
holds the table: flip for backtrace on either backbone, truncate for decoder
impute, identity for encoder forecast. The native cells, (decoder, forecast)
and (encoder, impute), have no entry.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from .errors import DataError
from .tasks import TaskKind, WindowSpec

Adapter = Callable[[np.ndarray, np.ndarray, WindowSpec], tuple[Sequence[np.ndarray], np.ndarray]]


def adapt_backtrace_flip(inputs: np.ndarray, masks: np.ndarray, w: WindowSpec):
    """Reverse every input in time, one reversal over the batch, and forecast; read the forecast back to front."""
    return inputs[:, ::-1], np.broadcast_to(np.arange(w.horizon)[::-1], (len(inputs), w.horizon))


def adapt_impute_truncate(inputs: np.ndarray, masks: np.ndarray, w: WindowSpec):
    """Truncate each imputation input on one side of its masked area and forecast through it.

    The reconstruction area is the hull [first, last] of the masked positions.
    When its midpoint sits in the late half of the window, the observed prefix
    becomes forecasting history; otherwise the observed suffix is reversed and
    forecast backwards through the hull. Either way the masked positions are
    read in chronological order. A history's length is its query's own.
    """
    if masks.shape[-1] == 0:
        raise DataError("imputation queries have no masked positions")
    histories, read = [], []
    for x, positions in zip(inputs, masks):
        first, last = int(positions[0]), int(positions[-1])
        if first == 0 and last == w.lookback - 1:
            raise DataError("masked area touches both ends; no usable context remains")
        if first + last >= w.lookback:  # the hull's midpoint is in the late half
            histories.append(x[:first])
            read.append(positions - first)
        else:
            histories.append(x[last + 1 :][::-1])
            read.append(last - positions)
    return histories, np.array(read)


def adapt_identity(inputs: np.ndarray, masks: np.ndarray, w: WindowSpec):
    """Forecast from the inputs as they stand."""
    return inputs, np.broadcast_to(np.arange(w.horizon), (len(inputs), w.horizon))


def adapter_for(variant_is_decoder: bool, task: TaskKind) -> Adapter:
    """Baseline adapter table by (backbone family, evaluated task)."""
    if task is TaskKind.BACKTRACE:
        return adapt_backtrace_flip
    if variant_is_decoder and task is TaskKind.IMPUTE:
        return adapt_impute_truncate
    if not variant_is_decoder and task is TaskKind.FORECAST:
        return adapt_identity
    backbone = "decoder" if variant_is_decoder else "encoder"
    raise DataError(f"no baseline adapter for ({backbone}, {task}): {task} is native")
