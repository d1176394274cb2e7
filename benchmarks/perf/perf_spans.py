"""Layer spans measured from outside the program.

``install()`` replaces the public entry points of each ``src/repro`` layer
(the table in :data:`LAYER_MAP`, plus every registered policy's ``invoke``
and every benchmark service's ``@operation`` methods) with wrappers that
record one span per call: ``[name, layer, start, end, parent, op_id]``.
Spans stay in memory; :func:`self_times` turns them into per-layer *self
time* (span duration minus the time its direct child spans cover — the
program is single-threaded, so children never overlap).

Wrappers are installed on classes and modules, so they must be in place
before ``deploy``: a dispatcher caches ``self.handle`` as a bound method
when it is built.  ``uninstall()`` puts every original back.

What cannot be seen from outside stays in the caller's self time: code
inside an inlined fast path (the carried-frame decode skip, the
``Network.transmit`` arithmetic pinned inline by reply batching) opens no
span of its own.  Each wrapper also costs about a microsecond, which lands
in the *parent's* self time; ``driver.trace_overhead_ratio`` bounds it.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from time import perf_counter

#: layer -> [(module, class or None, wrapped attribute names)]
LAYER_MAP = {
    "core.proxy": [
        ("repro.core.proxy", "Proxy", ("invoke", "proxy_remote")),
        ("repro.core.proxy", "_BoundProxyOperation", ("__call__",)),
    ],
    "rpc.protocol": [
        ("repro.rpc.protocol", "RpcProtocol", ("call", "send_oneway")),
    ],
    "rpc.transport": [
        ("repro.rpc.transport", "Transport",
         ("encode_frame", "decode_frame", "encode_batch", "transmit",
          "transmit_reply", "trace_send")),
    ],
    "wire": [
        ("repro.wire.marshal", "Marshaller",
         ("encode_frame_fields", "encode_frame_message",
          "decode_frame_fields", "decode_frame_message", "encode",
          "decode")),
        ("repro.wire.frames", "Frame",
         ("encode", "encode_message", "decode", "decode_message")),
        ("repro.wire.versions", None, ("serve_envelope",)),
        ("repro.wire.shards", None, ("serve_envelope",)),
    ],
    "kernel.network": [
        ("repro.kernel.network", "Network", ("transmit",)),
    ],
    "rpc.dispatcher": [
        ("repro.rpc.dispatcher", "Dispatcher", ("handle",)),
    ],
    "kernel.trace": [
        ("repro.kernel.trace", "Trace", ("emit", "record")),
    ],
    "simtest.workload": [
        ("repro.simtest.workload", None, ("deploy", "drive")),
    ],
    "simtest.checker": [
        ("repro.simtest.checker", None, ("check_history",)),
    ],
}

#: Service classes whose ``@operation`` methods form the ``apps`` layer:
#: the KV store of the seven policy workloads and everything the battery's
#: service rotation and bank deployments export.
APP_CLASSES = (
    ("repro.apps.kv", "KVStore"),
    ("repro.apps.counter", "Counter"),
    ("repro.apps.locks", "LockService"),
    ("repro.apps.queue", "WorkQueue"),
    ("repro.transactions", "VersionedKVStore"),
    ("repro.simtest.bank", "TwoPhaseBank"),
    ("repro.simtest.bank", "SagaBank"),
)

#: Wrapped calls whose ``self`` carries a public counter dict the ledger
#: reads (``stats`` / ``proxy_stats`` / the trace's event list).
_CAPTURE = {
    "core.proxy.Proxy.invoke": "proxies",
    "rpc.protocol.RpcProtocol.call": "protocols",
    "rpc.protocol.RpcProtocol.send_oneway": "protocols",
    "rpc.dispatcher.Dispatcher.handle": "dispatchers",
    "kernel.trace.Trace.emit": "traces",
    "kernel.trace.Trace.record": "traces",
}

_DRIVE = "simtest.workload.drive"


def _stats_of(obj) -> dict:
    """A wrapped instance's public counter dict."""
    stats = getattr(obj, "proxy_stats", None)
    return stats if stats is not None else obj.stats


class Recorder:
    """In-memory span store plus the counters read at layer boundaries."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id = -1
        #: kind -> {id(instance): instance} of objects seen by wrappers.
        self.seen: dict[str, dict] = {
            "proxies": {}, "protocols": {}, "dispatchers": {}, "traces": {}}
        self.frames = 0
        self.header_keys = 0
        self.events = Counter()    # trace-event kind -> count seen at emit
        self.sent_bytes = 0
        self._memo_base: dict = {}
        self._stat_base: dict = {}
        self._trace_base: dict = {}
        self._undo: list[tuple] = []

    # -- per-round state -----------------------------------------------------

    def start_round(self) -> None:
        """Before ``deploy``: forget the previous round's instances."""
        for table in self.seen.values():
            table.clear()
        self.start_timed()

    def start_timed(self) -> None:
        """Before the timed part: drop set-up spans, zero the boundary
        counters and remember where every public counter stands."""
        if self.stack:
            raise RuntimeError("start_timed() inside an open span")
        del self.spans[:]
        self.op_id = -1
        self.frames = self.header_keys = self.sent_bytes = 0
        self.events.clear()
        from repro.wire.marshal import memo_stats
        self._memo_base = memo_stats()
        self._stat_base = {
            id(obj): dict(_stats_of(obj))
            for kind in ("proxies", "protocols", "dispatchers")
            for obj in self.seen[kind].values()}
        self._trace_base = {id(trace): len(trace.events)
                            for trace in self.seen["traces"].values()}

    def counters(self) -> dict:
        """Public-counter movement since :meth:`start_timed`, summed over
        every instance a wrapper saw."""
        from repro.wire.marshal import memo_stats
        out: dict = {}
        for kind in ("proxies", "protocols", "dispatchers"):
            total = Counter()
            for obj in self.seen[kind].values():
                base = self._stat_base.get(id(obj), {})
                for key, value in _stats_of(obj).items():
                    total[key] += value - base.get(key, 0)
            out[kind] = total
        now = memo_stats()
        out["memo"] = {key: now[key] - self._memo_base[key] for key in now
                       if key.endswith(("_hits", "_misses", "evictions"))}
        fresh = [trace.events[self._trace_base.get(id(trace), 0):]
                 for trace in self.seen["traces"].values()]
        out["trace_events"] = sum(len(events) for events in fresh)
        out["trace_sends"] = sum(ev.kind == "send" for events in fresh
                                 for ev in events)
        # What the wrappers themselves counted at the boundaries.
        out["frames"], out["header_keys"] = self.frames, self.header_keys
        out["events"], out["sent_bytes"] = dict(self.events), self.sent_bytes
        return out

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        spans, stack = self.spans, self.stack
        seen = self.seen.get(
            "proxies" if layer == "core.policies" else _CAPTURE.get(name))
        probe = {"rpc.transport.Transport.encode_frame": self._probe_frame,
                 "kernel.trace.Trace.emit": self._probe_emit}.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if seen is not None:
                seen[id(args[0])] = args[0]
            if probe is not None:
                probe(args, kwargs)
            parent = stack[-1] if stack else -1
            # A call made by the benchmark's loop, or by simtest's own
            # driver, starts a new client operation.
            if parent < 0 or spans[parent][0] == _DRIVE:
                self.op_id += 1
            span = [name, layer, 0.0, 0.0, parent, self.op_id]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
        return traced

    def _probe_frame(self, args, kwargs) -> None:
        frame = args[1] if len(args) > 1 else kwargs["frame"]
        self.frames += 1
        self.header_keys += len(frame.headers)

    def _probe_emit(self, args, kwargs) -> None:
        kind = args[2] if len(args) > 2 else kwargs["kind"]
        self.events[kind] += 1
        if kind == "send":
            self.sent_bytes += args[6] if len(args) > 6 \
                else kwargs.get("size", 0)

    def _patch(self, owner, attr: str, layer: str, label: str) -> None:
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            new = classmethod(self._wrap(layer, label, raw.__func__))
        else:
            new = self._wrap(layer, label, raw)
        setattr(owner, attr, new)
        self._undo.append((owner, attr, raw))
        if not isinstance(owner, type):
            # ``from .checker import check_history``: every repro module
            # that imported the function by name holds its own reference.
            for module in list(sys.modules.values()):
                if module is owner or not getattr(
                        module, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is raw:
                        setattr(module, key, new)
                        self._undo.append((module, key, raw))

    def install(self) -> None:
        """Wrap every layer entry point; idempotence is the caller's job."""
        if self._undo:
            raise RuntimeError("wrappers already installed")
        # Import the consumers first so by-name imports are found above.
        importlib.import_module("repro.simtest.runner")
        for layer, rows in LAYER_MAP.items():
            for module_name, class_name, attrs in rows:
                module = importlib.import_module(module_name)
                owner = getattr(module, class_name) if class_name else module
                prefix = f"{layer}.{class_name}" if class_name else \
                    module_name.removeprefix("repro.")
                for attr in attrs:
                    self._patch(owner, attr, layer, f"{prefix}.{attr}")
        from repro.core.factory import global_policies
        from repro.iface.interface import Interface
        done = set()
        for policy in global_policies().values():
            for klass in policy.__mro__:
                if klass in done or "invoke" not in vars(klass) \
                        or klass.__module__ == "repro.core.proxy":
                    continue
                done.add(klass)
                self._patch(klass, "invoke", "core.policies",
                            f"core.policies.{klass.__name__}.invoke")
        for module_name, class_name in APP_CLASSES:
            klass = getattr(importlib.import_module(module_name), class_name)
            for verb in Interface.of(klass).names():
                for base in klass.__mro__:
                    if verb in vars(base):
                        if (base, verb) not in done:
                            done.add((base, verb))
                            self._patch(base, verb, "apps",
                                        f"apps.{base.__name__}.{verb}")
                        break

    def uninstall(self) -> None:
        """Restore every original, in reverse order of installation."""
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)


def self_times(spans: list[list]) -> list[float]:
    """Self time of each span: its duration minus its direct children's."""
    own = [span[3] - span[2] for span in spans]
    for span in spans:
        if span[4] >= 0:
            own[span[4]] -= span[3] - span[2]
    return own


def layer_totals(spans: list[list]) -> dict:
    """One round's ledger: ``seconds`` (self time by layer), ``calls`` and
    ``durations`` (by span name) and ``root_s``, the seconds covered by
    spans nothing encloses."""
    seconds: dict[str, float] = {}
    durations: dict[str, float] = {}
    root_s = 0.0
    for span, own in zip(spans, self_times(spans)):
        name, layer, start, end, parent, _ = span
        seconds[layer] = seconds.get(layer, 0.0) + own
        durations[name] = durations.get(name, 0.0) + (end - start)
        if parent < 0:
            root_s += end - start
    return {"seconds": seconds, "durations": durations, "root_s": root_s,
            "calls": Counter(span[0] for span in spans)}
