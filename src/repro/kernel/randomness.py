"""Deterministic randomness.

Every stochastic decision in the library (message loss, workload key choice,
crash schedules) draws from a named sub-stream of one master seed, so that

* two runs with the same seed are bit-identical, and
* adding a new consumer of randomness does not perturb existing streams.
"""

from __future__ import annotations

import hashlib
import random


class SeedSequence:
    """Derives independent, reproducible :class:`random.Random` streams.

    Streams are keyed by name; the same ``(master_seed, name)`` pair always
    yields an identically-seeded generator, regardless of creation order.
    """

    def __init__(self, master_seed: int = 0):
        self.master_seed = int(master_seed)
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the (cached) generator for ``name``."""
        rng = self._streams.get(name)
        if rng is None:
            rng = random.Random(self.derive_seed(name))
            self._streams[name] = rng
        return rng

    def derive_seed(self, name: str) -> int:
        """Derive the integer seed for the named stream (stable across runs)."""
        digest = hashlib.sha256(f"{self.master_seed}:{name}".encode()).digest()
        return int.from_bytes(digest[:8], "big")

    def streams_used(self) -> tuple[str, ...]:
        """Names of every stream drawn so far, sorted (determinism audit).

        Two runs of the same seeded scenario must consume the same set of
        named streams; a new name appearing in only one run is a smoking gun
        for order-dependent randomness.
        """
        return tuple(sorted(self._streams))

    def __repr__(self) -> str:
        return f"SeedSequence(master_seed={self.master_seed})"
