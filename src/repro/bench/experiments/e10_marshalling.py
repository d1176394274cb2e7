"""E10 — marshalling cost and reference-vs-value parameter passing.

Two measurements at the wire layer:

* **payload sweep**: per-invocation latency as the argument grows from 16 B
  to 64 KB — at small sizes the fixed per-message costs dominate (the
  lightweight-RPC argument); at large sizes the byte costs do;
* **reference vs value**: passing N service objects per call.  By value
  they are re-serialised state every time; by reference each is a
  constant-size :class:`ObjectRef` that surfaces remotely as a proxy —
  claim 5 of the paper, with byte counts attached.
"""

from __future__ import annotations

from ...apps.kv import KVStore
from ...core.export import get_space
from ...iface.interface import operation
from ...core.service import Service
from ...metrics.counters import MessageWindow
from ...naming.bootstrap import bind, register
from ..common import ms, star

TITLE = "E10: marshalling — payload sweep and reference vs value"
COLUMNS = ["scenario", "size", "mean_ms", "bytes_per_op"]

PAYLOAD_SIZES = (16, 256, 1024, 4096, 16384, 65536)
REF_COUNTS = (1, 4, 16)
OPS = 40


class Sink(Service):
    """Accepts anything; used to measure pure transport cost."""

    @operation(compute=1e-6)
    def accept(self, item) -> int:
        """Swallow one argument; returns 0."""
        return 0

    @operation(compute=1e-6)
    def accept_many(self, items: list) -> int:
        """Swallow a list; returns its length."""
        return len(items)


def run(ops: int = OPS, seed: int = 41) -> list[dict]:
    """Payload sweep plus reference-vs-value comparison."""
    rows = []
    for size in PAYLOAD_SIZES:
        system, server, (client,) = star(seed=seed, clients=1)
        register(server, "sink", Sink())
        sink = bind(client, "sink")
        blob = b"x" * size
        sink.accept(blob)  # warm the bind path out of the measurement
        with MessageWindow(system) as window:
            t0 = client.clock.now
            for _ in range(ops):
                sink.accept(blob)
            mean = (client.clock.now - t0) / ops
        rows.append({"scenario": "payload", "size": size,
                     "mean_ms": ms(mean),
                     "bytes_per_op": window.report.bytes / ops})

    for count in REF_COUNTS:
        # by value: ship each object's state dict every call
        system, server, (client,) = star(seed=seed, clients=1)
        register(server, "sink", Sink())
        sink = bind(client, "sink")
        values = [{"name": f"obj{i}", "data": "y" * 512} for i in range(count)]
        sink.accept_many(values)
        with MessageWindow(system) as window:
            t0 = client.clock.now
            for _ in range(ops):
                sink.accept_many(values)
            mean = (client.clock.now - t0) / ops
        rows.append({"scenario": f"{count} args by value", "size": count,
                     "mean_ms": ms(mean),
                     "bytes_per_op": window.report.bytes / ops})

        # by reference: the same objects exported once, refs on the wire
        system, server, (client,) = star(seed=seed, clients=1)
        register(server, "sink", Sink())
        sink = bind(client, "sink")
        space = get_space(client)
        stores = []
        for i in range(count):
            store = KVStore()
            store.put("name", f"obj{i}")
            store.put("data", "y" * 512)
            space.export(store)
            stores.append(store)
        sink.accept_many(stores)
        with MessageWindow(system) as window:
            t0 = client.clock.now
            for _ in range(ops):
                sink.accept_many(stores)
            mean = (client.clock.now - t0) / ops
        rows.append({"scenario": f"{count} args by reference", "size": count,
                     "mean_ms": ms(mean),
                     "bytes_per_op": window.report.bytes / ops})
    return rows


# -- gated bench: bulk payloads (BENCH_e10.json) -----------------------------

#: Payload sweep for the gated bench — 1 KiB to 1 MiB.  A bulk ``bytes``
#: body is pure at every size, so the frame is sized and carried, never
#: written.
BENCH_SIZES = (1024, 4096, 16384, 65536, 262144, 1048576)
BENCH_OPS = 200
_E2E_SIZES = (4096, 65536, 1048576)
_E2E_OPS = 40


def _pattern(size: int) -> bytes:
    """A fixed, incompressible-ish payload (no RNG: byte-stable record)."""
    return bytes((i * 131 + 17) % 251 for i in range(256)) * (size // 256) \
        + b"\x7f" * (size % 256)


def _wire_row(size: int) -> dict:
    """Encode one ONEWAY frame carrying a ``size``-byte body, both
    through the legacy recursive codec and through the message fast path
    (a pure frame: sized, its fields carried): the two must agree on the
    wire length, and each must deliver the body it carried."""
    from ...wire.frames import Frame
    from ...wire.marshal import Marshaller

    encoder = Marshaller()
    decoder = Marshaller()
    blob = _pattern(size)
    frame = Frame("one", 1, "c0/main", "s0/main", target="sink",
                  verb="accept", body=((blob,), {}))
    legacy_image = frame.encode(encoder)
    message = frame.encode_message(encoder)
    nbytes = len(message)
    if nbytes != len(legacy_image):
        raise AssertionError(
            f"E10 wire-size drift at {size} B: fast path {nbytes} vs "
            f"legacy {len(legacy_image)}")
    lossless = Frame.decode_message(message, decoder).body == ((blob,), {}) \
        and Frame.decode(legacy_image, decoder).body == ((blob,), {})
    return {"scenario": f"wire-{size}", "size": size, "nbytes": nbytes,
            "lossless": lossless}


def _e2e_row(size: int, ops: int, seed: int) -> dict:
    """Drive ``ops`` bulk invocations through the full simulated stack,
    twice.

    The virtual-time fields are a *transparency* check on the carry: they
    are deterministic, so the two runs must agree and the CI gate fails
    if carrying a bulk body ever changes what the cost model observes
    (sizes, timings)."""

    def _one_run() -> dict:
        system, server, (client,) = star(seed=seed, clients=1)
        register(server, "sink", Sink())
        sink = bind(client, "sink")
        blob = _pattern(size)
        sink.accept(blob)  # warm the bind path out of the measurement
        with MessageWindow(system) as window:
            t0 = client.clock.now
            for _ in range(ops):
                sink.accept(blob)
            sim_mean = (client.clock.now - t0) / ops
        return {"scenario": f"e2e-{size}", "size": size,
                "sim_mean_ms": ms(sim_mean),
                "bytes_per_op": window.report.bytes / ops}

    first, second = _one_run(), _one_run()
    if first != second:
        raise AssertionError(
            f"E10 determinism violated: e2e-{size} drifted between "
            f"identical runs ({first!r} vs {second!r})")
    return first


def bench_payload(ops: int = BENCH_OPS, seed: int = 41) -> dict:
    """The machine-readable BENCH_e10.json record.

    Wire rows check the legacy recursive codec against the message path
    (a sized frame carrying its fields) on the same frames (same wire
    length, lossless delivery); e2e rows put bulk payloads through the whole simulated
    stack (``seed`` seeds them).  Every field is deterministic, so CI
    compares the record with the committed one exactly.  ``ops`` is
    carried into the record as given; no row depends on it (a wire row
    encodes one frame, an e2e row makes ``_E2E_OPS`` invocations)."""
    rows = [_wire_row(size) for size in BENCH_SIZES]
    rows += [_e2e_row(size, _E2E_OPS, seed) for size in _E2E_SIZES]
    return {
        "experiment": "e10",
        "ops": ops,
        "seed": seed,
        "scenarios": rows,
    }


def bench_rows(payload: dict) -> list[dict]:
    """Table form of :func:`bench_payload`."""
    return payload["scenarios"]
