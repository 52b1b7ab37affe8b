"""Non-fine-tuning baselines: coerce an unseen task into a model's native one.

Each adapter rewrites a task example into a history the frozen model can
forecast from, plus the bookkeeping that maps the output back onto the
example's chronological target. The target itself stays on the example:
``evalharness.score_probes`` scores every probe against it. Adapters never
touch model parameters nor build an answer region:
``evalharness._fit_adapted`` appends one to every history.
``adapter_for`` holds the table: flip for backtrace on either backbone,
truncate for decoder impute, identity for encoder forecast. The native cells,
(decoder, forecast) and (encoder, impute), have no entry.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .tasks import TaskExample, TaskKind, token_array


@dataclass(frozen=True)
class AdaptedQuery:
    """A reprogrammed query plus the recipe for reading the model's output.

    ``predict_steps`` values are requested from the model; if
    ``reverse_output`` they are flipped back into chronological order, then
    ``score_offsets`` (or all of them) are kept: the prediction of the
    example's target.
    """

    tokens: np.ndarray
    predict_steps: int
    reverse_output: bool = False
    score_offsets: np.ndarray | None = None

    def score_prediction(self, raw: np.ndarray) -> np.ndarray:
        """Map a raw model output onto the prediction of the example's target."""
        chron = raw[: self.predict_steps]
        if self.reverse_output:
            chron = chron[::-1]
        if self.score_offsets is not None:
            chron = chron[self.score_offsets]
        return chron


def adapt_backtrace_flip(example: TaskExample) -> AdaptedQuery:
    """Reverse the input in time and forecast; un-reverse the prediction."""
    if example.task is not TaskKind.BACKTRACE:
        raise DataError(f"backtrace flip applied to a {example.task} example")
    return AdaptedQuery(token_array(example.input[::-1, 0]), example.horizon, reverse_output=True)


def adapt_impute_truncate(example: TaskExample) -> AdaptedQuery:
    """Truncate an imputation input on one side of the masked area and forecast.

    The reconstruction area is the hull [first, last] of the masked positions.
    When its midpoint sits in the late half of the window, the observed prefix
    becomes forecasting history; otherwise the observed suffix is reversed and
    forecast backwards through the hull. Scoring always happens at the masked
    positions, in chronological order.
    """
    if example.task is not TaskKind.IMPUTE:
        raise DataError(f"impute truncate applied to a {example.task} example")
    positions = example.masked_positions
    if positions.size == 0:
        raise DataError("imputation example has no masked positions")
    L = example.lookback
    first, last = int(positions[0]), int(positions[-1])
    hull = last - first + 1
    if first == 0 and last == L - 1:
        raise DataError("masked area touches both ends; no usable context remains")
    midpoint = (first + last) / 2.0
    if midpoint >= L / 2.0:
        if first == 0:
            raise DataError("masked area reaches the start; no prefix context")
        history = example.input[:first, 0]
        return AdaptedQuery(tokens=token_array(history), predict_steps=hull, score_offsets=positions - first)
    if last == L - 1:
        raise DataError("masked area reaches the end; no suffix context")
    suffix = example.input[last + 1 :, 0]
    return AdaptedQuery(
        tokens=token_array(suffix[::-1]),
        predict_steps=hull,
        reverse_output=True,
        score_offsets=positions - first,
    )


def adapt_identity(example: TaskExample) -> AdaptedQuery:
    """Forecast from the input as it stands."""
    return AdaptedQuery(example.input, example.horizon)


def adapter_for(variant_is_decoder: bool, task: TaskKind) -> Callable[[TaskExample], AdaptedQuery]:
    """Baseline adapter table by (backbone family, evaluated task)."""
    if task is TaskKind.BACKTRACE:
        return adapt_backtrace_flip
    if variant_is_decoder and task is TaskKind.IMPUTE:
        return adapt_impute_truncate
    if not variant_is_decoder and task is TaskKind.FORECAST:
        return adapt_identity
    backbone = "decoder" if variant_is_decoder else "encoder"
    raise DataError(f"no baseline adapter for ({backbone}, {task}): {task} is native")
