"""Proxy policies: the service-selectable client-side representatives.

Importing this package registers every built-in policy in the global
codebase:

========== ===============================================================
``stub``        transparent forwarding (the RPC-stub baseline)
``caching``     read-through cache with server-driven invalidation or TTL
``batching``    client-side buffering of mutating operations
``migrating``   pulls a hot object into the caller's context
``replicated``  read-one/write-all routing over a replica group
``regional``    replication with region-aware, breaker-admitted reads
``sharded``     consistent-hash routing over a partitioned key space
``composite``   stacks several of the above behind one proxy face
``resilient``   backoff + deadlines + breakers + failover (repro.resilience)
========== ===============================================================

Custom policies subclass :class:`repro.core.proxy.Proxy`, set
``proxy_policy_name``, and register with
:func:`repro.core.factory.register_policy` (globally) or
``system.codebase.register_factory`` (per system).
"""

from .batching import BatchControl, BatchingProxy, DEFAULT_BATCH_SIZE
from .caching import (
    CacheCallback,
    CacheCoherence,
    CacheControl,
    CachingProxy,
    DEFAULT_TTL,
    invalidated_values,
)
from .composite import CompositeProxy
from .migrating import DEFAULT_MIGRATE_AFTER, MigratingProxy
from .regional import RegionalProxy
from .replicating import ReplicatedProxy, replicate
from .sharding import ShardedProxy, shard
from .stub import ForwardingProxy
from ...resilience.policy import ResilientProxy, resilient_group

__all__ = [
    "BatchControl", "BatchingProxy", "CacheCallback", "CacheCoherence",
    "CacheControl", "CachingProxy", "CompositeProxy", "DEFAULT_BATCH_SIZE",
    "DEFAULT_MIGRATE_AFTER", "DEFAULT_TTL", "ForwardingProxy",
    "MigratingProxy", "RegionalProxy", "ReplicatedProxy", "ResilientProxy",
    "ShardedProxy", "invalidated_values", "replicate", "resilient_group",
    "shard",
]
