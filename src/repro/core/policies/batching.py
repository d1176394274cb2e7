"""The ``batching`` policy: a proxy that amortises message overhead.

Mutating operations are buffered client-side and shipped as one request,
trading per-call latency for message count — the right choice for
append-heavy interfaces (logs, mailboxes, metering).

Semantics contract (documented, enforced by flushing):

* batched operations return ``None`` — choose this policy only for
  interfaces whose mutators' results are ignorable;
* the buffer is flushed before any non-batched operation executes, so a
  client always reads its own writes;
* the buffer is flushed when it reaches ``batch_size`` and when the proxy is
  discarded.

The server half is :class:`BatchControl`, exported automatically next to the
object by :meth:`BatchingProxy.proxy_on_export`.
"""

from __future__ import annotations

from typing import Any

from ...iface.interface import operation
from ...wire.refs import ObjectRef
from ..factory import register_policy
from ..proxy import Proxy

#: Default number of buffered operations that triggers a flush.
DEFAULT_BATCH_SIZE = 8


@register_policy
class BatchingProxy(Proxy):
    """Buffer mutating operations; ship them in batches."""

    proxy_policy_name = "batching"

    def __init__(self, context, ref, interface, config=None):
        super().__init__(context, ref, interface, config)
        self._buffer: list[tuple[str, list, dict]] = []
        self._control = None
        self.proxy_stats.update(batched=0, flushes=0, flushed_ops=0)

    # -- invocation --------------------------------------------------------------

    def invoke(self, verb: str, args: tuple, kwargs: dict) -> Any:
        self.proxy_stats["invocations"] += 1
        op = self.proxy_operation(verb)
        if self._batchable(verb, op):
            self._buffer.append((verb, list(args), dict(kwargs)))
            self.proxy_stats["batched"] += 1
            if len(self._buffer) >= self._batch_size():
                self.proxy_flush()
            return None
        self.proxy_flush()
        return self.proxy_remote(verb, args, kwargs)

    def proxy_flush(self) -> int:
        """Ship the buffered operations now; returns how many were sent."""
        if not self._buffer:
            return 0
        control = self._resolve_control()
        ops, self._buffer = self._buffer, []
        control.apply(ops)
        self.proxy_stats["flushes"] += 1
        self.proxy_stats["flushed_ops"] += len(ops)
        return len(ops)

    def proxy_discard(self) -> None:
        self.proxy_flush()

    @property
    def proxy_pending(self) -> int:
        """Number of operations currently buffered."""
        return len(self._buffer)

    # -- internals ------------------------------------------------------------------

    def _batchable(self, verb: str, op) -> bool:
        if op.readonly or op.oneway:
            return False
        if self.proxy_config.get("batch_control") is None:
            return False
        allowed = self.proxy_config.get("batch_ops")
        return True if allowed is None else verb in allowed

    def _batch_size(self) -> int:
        return int(self.proxy_config.get("batch_size", DEFAULT_BATCH_SIZE))

    def _resolve_control(self):
        if self._control is None:
            control = self.proxy_config["batch_control"]
            if isinstance(control, ObjectRef):
                control = self.proxy_context.space.bind_ref(control,
                                                            handshake=False)
            self._control = control
        return self._control

    # -- server-side installation ---------------------------------------------------

    @classmethod
    def proxy_on_export(cls, space, entry) -> None:
        """Export the batch-apply control next to the object."""
        control = BatchControl(entry, space.context)
        entry.policy_config["batch_control"] = space.export(control)


class BatchControl:
    """Server-side executor for batched operations against one object."""

    def __init__(self, entry, context):
        self._entry = entry
        self._context = context

    @operation
    def apply(self, ops: list) -> int:
        """Execute a batch of ``[verb, args, kwargs]`` in order.

        Individual results are discarded (the batching contract); the first
        failing operation aborts the remainder and propagates its error.
        Each constituent operation is performed by the export entry's own
        step — interface check, declared compute charged on the serving
        context, mutation hooks — so batching saves messages, not server
        work.  Returns the number of operations executed.
        """
        for verb, args, kwargs in ops:
            self._entry.perform(self._context, verb, tuple(args), kwargs or {})
        return len(ops)
