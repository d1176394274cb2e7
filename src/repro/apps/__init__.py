"""Example services built on the public API (used by examples/tests/benches)."""

from .counter import Counter, MigratingCounter, StatsAccumulator
from .documents import DocumentStore
from .files import BLOCK_SIZE, BlockFileService, FileService
from .kv import CachedKVStore, KVStore
from .locks import LockService
from .mailbox import Mailbox
from .queue import WorkQueue

__all__ = [
    "BLOCK_SIZE", "BlockFileService", "CachedKVStore", "Counter",
    "DocumentStore", "FileService", "KVStore", "LockService", "Mailbox",
    "MigratingCounter", "StatsAccumulator", "WorkQueue",
]
