"""Key-popularity distributions for workload generation.

All samplers draw from an injected :class:`random.Random`, so workloads are
reproducible through the system seed machinery.
"""

from __future__ import annotations

import bisect
import random

from ..kernel.errors import ConfigurationError


def key_name(index: int) -> str:
    """The canonical key string for an index (stable across runs)."""
    return f"k{index:05d}"


class UniformSampler:
    """Every key equally likely."""

    def __init__(self, num_keys: int, rng: random.Random):
        if num_keys <= 0:
            raise ConfigurationError("need at least one key")
        self.num_keys = num_keys
        self.rng = rng

    def sample(self) -> str:
        """Draw one key."""
        return key_name(self.rng.randrange(self.num_keys))


class ZipfSampler:
    """Zipf(s) popularity over a fixed key universe.

    Key 0 is the most popular.  Uses an inverse-CDF table, so sampling is
    O(log n).
    """

    def __init__(self, num_keys: int, rng: random.Random, s: float = 1.1):
        if num_keys <= 0:
            raise ConfigurationError("need at least one key")
        self.num_keys = num_keys
        self.s = s
        self.rng = rng
        weights = [1.0 / (rank ** s) for rank in range(1, num_keys + 1)]
        total = sum(weights)
        cumulative = 0.0
        self._cdf: list[float] = []
        for weight in weights:
            cumulative += weight / total
            self._cdf.append(cumulative)

    def sample(self) -> str:
        """Draw one key, popularity-weighted."""
        point = self.rng.random()
        index = bisect.bisect_left(self._cdf, point)
        return key_name(min(index, self.num_keys - 1))


class HotspotSampler:
    """A fraction of accesses hit a small hot set; the rest are uniform."""

    def __init__(self, num_keys: int, rng: random.Random,
                 hot_fraction: float = 0.9, hot_keys: int = 8):
        if num_keys <= 0:
            raise ConfigurationError("need at least one key")
        self.num_keys = num_keys
        self.rng = rng
        self.hot_fraction = hot_fraction
        self.hot_keys = max(1, min(hot_keys, num_keys))

    def sample(self) -> str:
        """Draw one key."""
        if self.rng.random() < self.hot_fraction:
            return key_name(self.rng.randrange(self.hot_keys))
        return key_name(self.rng.randrange(self.num_keys))


def payload(size: int, fill: str = "x") -> str:
    """A value string of roughly ``size`` bytes."""
    return fill * max(0, size)
