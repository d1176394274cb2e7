"""A key-value store service — the workhorse of the evaluation.

The interface carries the metadata smart proxies need: ``get``/``contains``
are ``readonly`` (cacheable, replica-servable), ``put``/``delete`` declare
``invalidates=("key",)`` so caches drop exactly the affected entries, and a
small per-operation compute cost models server work.
"""

from __future__ import annotations

from typing import Any

from ..core.service import Service
from ..iface.interface import operation


class KVStore(Service):
    """In-memory key-value store."""

    default_policy = "stub"

    def __init__(self):
        self.data: dict[str, Any] = {}

    @operation(readonly=True, compute=5e-6)
    def get(self, key: str) -> Any:
        """The value for ``key``, or ``None``."""
        return self.data.get(key)

    @operation(invalidates=("key",), compute=8e-6)
    def put(self, key: str, value: Any) -> bool:
        """Store ``value`` under ``key``."""
        self.data[key] = value
        return True

    @operation(invalidates=("key",), compute=8e-6)
    def delete(self, key: str) -> bool:
        """Remove ``key``; returns whether it existed."""
        return self.data.pop(key, None) is not None

    @operation(readonly=True, compute=5e-6)
    def contains(self, key: str) -> bool:
        """Whether ``key`` is present."""
        return key in self.data

    @operation(readonly=True, compute=2e-5)
    def size(self) -> int:
        """Number of stored keys."""
        return len(self.data)

    @operation(readonly=True, compute=5e-5)
    def keys_with_prefix(self, prefix: str) -> list:
        """All keys starting with ``prefix``, sorted."""
        return sorted(key for key in self.data if key.startswith(prefix))

    # -- shard partitioning hooks ------------------------------------------------
    # Plain methods (not operations): invisible to the interface, used only
    # server-side by the sharded policy's arc handoff (repro.wire.shards).
    # A KV store partitions per key, so an arc's fragment is a sub-dict.

    def shard_keys(self) -> list:
        return sorted(self.data)

    def shard_fragment(self, keys) -> dict:
        return {key: self.data[key] for key in keys if key in self.data}

    def shard_absorb(self, fragment: dict) -> None:
        self.data.update(fragment)

    def shard_discard(self, keys) -> None:
        for key in keys:
            self.data.pop(key, None)


class CachedKVStore(KVStore):
    """The same store, shipped with the caching proxy.

    Demonstrates the encapsulation claim literally: this subclass changes
    *two class attributes* and thereby changes the distribution protocol of
    every client — no client code differs between the two stores.
    """

    default_policy = "caching"
    default_config = {"invalidation": True}
