"""Seeded synthetic series families for desk-scale experiments.

``FAMILIES`` maps each family's name to its generator, which draws one
channel's values from the spec and the channel's rng. ``sinusoid_mixture``
sums a few random sinusoids with AR(1) noise; ``ar2`` draws its coefficients
inside the stationarity triangle. A family's shape is its module constants,
not configuration. ``generate`` returns the ``series.RawDataset`` that
``series.load_csv`` reads back from ``write_csv``'s file.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .series import RawDataset

SINUSOID_MIXTURE = "sinusoid_mixture"
AR2 = "ar2"

AR2_BURN_IN = 128
COMPONENTS = (2, 3)  # sinusoid count range, inclusive
AMPLITUDE = (0.5, 1.5)
FREQUENCY = (2 * np.pi / 64, 2 * np.pi / 16)
NOISE_SIGMA = 0.05  # the sinusoid noise's stationary std, and the ar2 innovation std
NOISE_AR = 0.5  # AR(1) coefficient of the sinusoid noise term


@dataclass(frozen=True)
class SynthSpec:
    family: str = SINUSOID_MIXTURE
    count: int = 32
    length: int = 2048
    seed: int = 0
    name: str = "synth"
    min_window: int | None = None  # when set, require length >= 10 * min_window

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown family {self.family!r}; expected one of {tuple(FAMILIES)}")
        if self.count < 1 or self.length < 10:
            raise ConfigError("count must be >= 1 and length >= 10")
        if self.min_window is not None and self.length < 10 * self.min_window:
            raise ConfigError(
                f"length {self.length} shorter than 10 windows of {self.min_window} steps"
            )


def _ar1_noise(rng: np.random.Generator, n: int) -> np.ndarray:
    # Innovations scaled so the stationary marginal std equals NOISE_SIGMA.
    e = rng.normal(0.0, NOISE_SIGMA * np.sqrt(1.0 - NOISE_AR * NOISE_AR), size=n)
    out = np.empty(n)
    prev = rng.normal(0.0, NOISE_SIGMA)
    for i in range(n):
        prev = NOISE_AR * prev + e[i]
        out[i] = prev
    return out


def _sinusoid_series(spec: SynthSpec, rng: np.random.Generator) -> np.ndarray:
    k = int(rng.integers(COMPONENTS[0], COMPONENTS[1] + 1))
    t = np.arange(spec.length)
    x = np.zeros(spec.length)
    for _ in range(k):
        a = rng.uniform(*AMPLITUDE)
        w = rng.uniform(*FREQUENCY)
        phase = rng.uniform(0.0, 2 * np.pi)
        x += a * np.sin(w * t + phase)
    return x + _ar1_noise(rng, spec.length)


def draw_ar2_coefficients(rng: np.random.Generator) -> tuple[float, float]:
    """Uniform draw from the AR(2) stationarity triangle (rejection sampling)."""
    while True:
        phi1 = rng.uniform(-2.0, 2.0)
        phi2 = rng.uniform(-1.0, 1.0)
        if abs(phi2) < 1 and phi1 + phi2 < 1 and phi2 - phi1 < 1:
            return phi1, phi2


def _ar2_series(spec: SynthSpec, rng: np.random.Generator) -> np.ndarray:
    phi1, phi2 = draw_ar2_coefficients(rng)
    n = spec.length + AR2_BURN_IN
    e = rng.normal(0.0, NOISE_SIGMA, size=n)
    x = np.zeros(n)
    for i in range(n):
        x[i] = e[i]
        if i >= 1:
            x[i] += phi1 * x[i - 1]
        if i >= 2:
            x[i] += phi2 * x[i - 2]
    return x[AR2_BURN_IN:]


FAMILIES = {SINUSOID_MIXTURE: _sinusoid_series, AR2: _ar2_series}


def generate(spec: SynthSpec) -> RawDataset:
    """The dataset ``spec`` names, with integer timestamps from 0: channel i is ``s{i:03d}``, drawn from the rng
    of (seed, i)."""
    columns = [
        FAMILIES[spec.family](spec, np.random.default_rng(np.random.SeedSequence((spec.seed, i))))
        for i in range(spec.count)
    ]
    channels = tuple(f"s{i:03d}" for i in range(spec.count))
    return RawDataset(spec.name, tuple(range(spec.length)), channels, np.stack(columns, axis=1))


def write_csv(d: RawDataset, path: str | Path) -> None:
    """Emit the ingestion CSV format: a timestamp column plus one column per channel."""
    lines = ["timestamp," + ",".join(d.channels)]
    lines += [f"{t}," + ",".join(repr(v) for v in row) for t, row in zip(d.timestamps, d.values.tolist())]
    Path(path).write_text("\n".join(lines) + "\n")
