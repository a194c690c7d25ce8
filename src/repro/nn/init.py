"""Parameter initialisers.

All initialisers draw from the global generator in :mod:`repro.utils.seeding`
so that :func:`repro.utils.set_seed` makes model construction deterministic.

The float dtype of every freshly initialised parameter is
:func:`repro.tensor.default_dtype`: float32 by default, float64 inside
``use_dtype(np.float64)`` — the same seeded draws at either precision.
"""

from __future__ import annotations

import numpy as np

from repro.tensor.tensor import default_dtype
from repro.utils.seeding import get_rng


def xavier_uniform(shape: tuple[int, ...], gain: float = 1.0) -> np.ndarray:
    """Glorot/Xavier uniform initialisation.

    Fan-in/fan-out are taken from the trailing two dimensions; leading
    dimensions (e.g. the per-concept bank dimension) are treated as batch.
    """
    if len(shape) == 1:
        fan_in = fan_out = shape[0]
    else:
        fan_in, fan_out = shape[-2], shape[-1]
    limit = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return get_rng().uniform(-limit, limit, size=shape).astype(default_dtype())


def normal(shape: tuple[int, ...], std: float = 0.02, mean: float = 0.0) -> np.ndarray:
    """Truncated-free normal initialisation (BERT-style ``std=0.02``)."""
    return (get_rng().normal(mean, std, size=shape)).astype(default_dtype())


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    """All-zeros initialisation."""
    return np.zeros(shape, dtype=default_dtype())


def ones(shape: tuple[int, ...]) -> np.ndarray:
    """All-ones initialisation."""
    return np.ones(shape, dtype=default_dtype())
