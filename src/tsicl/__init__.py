"""Desk-scale in-context pre-training pipeline for toy time-series models."""

__version__ = "0.1.0"

from .series import ChannelSeries, NormStats, RawDataset  # noqa: F401
from .tasks import TaskKind, WindowSpec  # noqa: F401
