"""The ``tracing`` policy: service-shipped observability.

A further kind of proxy intelligence the paper's framing invites: the
service ships instrumentation *into its clients*.  The tracing proxy
records per-operation counts and virtual-time latencies locally, and — when
the exporter deployed a collector — periodically ships a summary to it as a
one-way message, so the service operator sees client-side latency (which
includes queueing and retransmission time the server never observes).
"""

from __future__ import annotations

from typing import Any

from ...iface.interface import operation
from ...wire.refs import ObjectRef
from ..factory import register_policy
from ..proxy import Proxy

#: Ship a report to the collector every N invocations.
DEFAULT_REPORT_EVERY = 32


@register_policy
class TracingProxy(Proxy):
    """Forwarding proxy that measures every operation from the client side."""

    proxy_policy_name = "tracing"

    def __init__(self, context, ref, interface, config=None):
        super().__init__(context, ref, interface, config)
        self._collector = None
        self._since_report = 0
        self.proxy_trace: dict[str, dict] = {}
        self.proxy_stats.update(reports=0)

    def invoke(self, verb: str, args: tuple, kwargs: dict) -> Any:
        self.proxy_stats["invocations"] += 1
        started = self.proxy_context.clock.now
        try:
            return self.proxy_remote(verb, args, kwargs)
        finally:
            self._record(verb, self.proxy_context.clock.now - started)

    def _record(self, verb: str, elapsed: float) -> None:
        slot = self.proxy_trace.setdefault(
            verb, {"count": 0, "total": 0.0, "max": 0.0})
        slot["count"] += 1
        slot["total"] += elapsed
        slot["max"] = max(slot["max"], elapsed)
        self._since_report += 1
        if self._since_report >= self._report_every():
            self.proxy_report()

    def _report_every(self) -> int:
        return int(self.proxy_config.get("report_every", DEFAULT_REPORT_EVERY))

    def proxy_report(self) -> bool:
        """Ship the current summary to the collector (if any); resets the
        reporting counter.  Returns whether a report was sent."""
        self._since_report = 0
        collector = self._resolve_collector()
        if collector is None:
            return False
        summary = {verb: dict(slot) for verb, slot in self.proxy_trace.items()}
        collector.report(self.proxy_context.context_id, summary)
        self.proxy_stats["reports"] += 1
        return True

    def _resolve_collector(self):
        if self._collector is None:
            target = self.proxy_config.get("collector")
            if target is None:
                return None
            if isinstance(target, ObjectRef):
                target = self.proxy_context.space.bind_ref(target,
                                                           handshake=False)
            self._collector = target
        return self._collector

    @classmethod
    def proxy_on_export(cls, space, entry) -> None:
        """Deploy a collector next to the object when asked to."""
        if entry.policy_config.get("collect", True):
            collector = TraceCollector()
            entry.policy_config["collector"] = space.export(collector)


class TraceCollector:
    """Server-side aggregation point for client-shipped latency summaries."""

    def __init__(self):
        self._by_client: dict[str, dict] = {}

    @operation(oneway=True)
    def report(self, client_id: str, summary: dict) -> None:
        """Accept one client's summary (replaces its previous one)."""
        self._by_client[client_id] = summary

    @operation(readonly=True)
    def aggregate(self) -> dict:
        """Merged view across clients: verb -> count/total/max."""
        merged: dict[str, dict] = {}
        for summary in self._by_client.values():
            for verb, slot in summary.items():
                agg = merged.setdefault(
                    verb, {"count": 0, "total": 0.0, "max": 0.0})
                agg["count"] += slot["count"]
                agg["total"] += slot["total"]
                agg["max"] = max(agg["max"], slot["max"])
        return merged

    @operation(readonly=True)
    def clients(self) -> list:
        """Context ids that have reported so far, sorted."""
        return sorted(self._by_client)
