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


# -- gated bench: the zero-copy bulk path (BENCH_e10.json) -------------------

#: Payload sweep for the gated bench — 1 KiB to 1 MiB, bracketing
#: RAW_THRESHOLD (4 KiB) so the record shows both the inline and the
#: zero-copy regime.
BENCH_SIZES = (1024, 4096, 16384, 65536, 262144, 1048576)
BENCH_OPS = 200
_E2E_SIZES = (4096, 65536, 1048576)
_E2E_OPS = 40


def _pattern(size: int) -> bytes:
    """A fixed, incompressible-ish payload (no RNG: byte-stable record)."""
    return bytes((i * 131 + 17) % 251 for i in range(256)) * (size // 256) \
        + b"\x7f" * (size % 256)


def _wire_row(size: int, ops: int) -> dict:
    """Round-trip one ONEWAY frame carrying a ``size``-byte body, both
    through the legacy recursive codec and through the message fast path
    (a pure frame: sized, its fields carried), asserting byte-compatible
    output."""
    from ...wire.frames import Frame
    from ...wire.marshal import Marshaller
    from ..timing import wall_clock

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
    decoded = Frame.decode_message(
        frame.encode_message(encoder), decoder)
    lossless = decoded.body == ((blob,), {}) \
        and Frame.decode(legacy_image, decoder).body == ((blob,), {})

    def _legacy_pass() -> float:
        start = wall_clock()
        for index in range(ops):
            img = Frame("one", index, "c0/main", "s0/main", target="sink",
                        verb="accept", body=((blob,), {})).encode(encoder)
            Frame.decode(img, decoder)
        return wall_clock() - start

    def _fast_pass() -> float:
        start = wall_clock()
        for index in range(ops):
            msg = Frame("one", index, "c0/main", "s0/main", target="sink",
                        verb="accept",
                        body=((blob,), {})).encode_message(encoder)
            Frame.decode_message(msg, decoder)
        return wall_clock() - start

    legacy_wall = min(_legacy_pass() for _ in range(3))
    fast_wall = min(_fast_pass() for _ in range(3))
    return {
        "scenario": f"wire-{size}",
        "size": size,
        "nbytes": nbytes,
        "lossless": lossless,
        "wall_us_legacy": round(legacy_wall / ops * 1e6, 2),
        "wall_us_fast": round(fast_wall / ops * 1e6, 2),
        "speedup": round(legacy_wall / fast_wall, 2),
        "wall_seconds": fast_wall,
        "ops": ops,
    }


def _e2e_row(size: int, ops: int, seed: int) -> dict:
    """Drive ``ops`` bulk invocations through the full simulated stack.

    The virtual-time fields double as a zero-copy *transparency* check:
    they are deterministic, so the perf gate fails if the bulk path ever
    changes what the cost model observes (sizes, timings)."""
    from ..timing import wall_clock

    def _one_run() -> dict:
        system, server, (client,) = star(seed=seed, clients=1)
        register(server, "sink", Sink())
        sink = bind(client, "sink")
        blob = _pattern(size)
        sink.accept(blob)  # warm the bind path out of the measurement
        with MessageWindow(system) as window:
            t0 = client.clock.now
            started = wall_clock()
            for _ in range(ops):
                sink.accept(blob)
            wall = wall_clock() - started
            sim_mean = (client.clock.now - t0) / ops
        return {
            "sim_mean_ms": ms(sim_mean),
            "bytes_per_op": window.report.bytes / ops,
            "wall_seconds": wall,
        }

    runs = [_one_run() for _ in range(2)]
    for field in ("sim_mean_ms", "bytes_per_op"):
        if runs[0][field] != runs[1][field]:
            raise AssertionError(
                f"E10 determinism violated: e2e-{size} {field} drifted "
                f"({runs[0][field]!r} vs {runs[1][field]!r})")
    best = min(run_["wall_seconds"] for run_ in runs)
    return {
        "scenario": f"e2e-{size}",
        "size": size,
        "sim_mean_ms": runs[0]["sim_mean_ms"],
        "bytes_per_op": runs[0]["bytes_per_op"],
        "wall_us_fast": round(best / ops * 1e6, 2),
        "wall_seconds": best,
        "ops": ops,
    }


def bench_payload(ops: int = BENCH_OPS, seed: int = 41) -> dict:
    """The machine-readable BENCH_e10.json record.

    Wire rows compare the legacy recursive codec against the zero-copy
    message path on the same frames (same wire length, byte-compatible
    decode); e2e rows put bulk payloads through the whole simulated
    stack.  Deterministic fields (``nbytes``, ``lossless``,
    ``sim_mean_ms``, ``bytes_per_op``) are machine-independent; wall
    readings are normalised against the host calibration rate so the
    perf gate can compare machines (``norm_fast``)."""
    from ..timing import CalibrationBracket

    bracket = CalibrationBracket()
    rows = [_wire_row(size, ops) for size in BENCH_SIZES]
    rows += [_e2e_row(size, _E2E_OPS, seed) for size in _E2E_SIZES]
    rate = bracket.close()
    for row in rows:
        row_ops = row.pop("ops")
        wall = row.pop("wall_seconds")
        row["norm_fast"] = round(row_ops / wall / rate * 1e6, 1)
    return {
        "experiment": "e10",
        "ops": ops,
        "seed": seed,
        "calibration_rate": round(rate, 1),
        "scenarios": rows,
    }


def bench_rows(payload: dict) -> list[dict]:
    """Table form of :func:`bench_payload`."""
    return payload["scenarios"]


def bench_footer(payload: dict) -> str:
    """One-line summary: the zero-copy win on the bulk sizes."""
    bulk = [row for row in payload["scenarios"]
            if row["scenario"].startswith("wire-") and row["size"] >= 65536]
    if not bulk:
        return ""
    worst = min(row["speedup"] for row in bulk)
    return (f"zero-copy speedup at >=64 KiB: >= {worst:.1f}x "
            f"(calibration {payload['calibration_rate'] / 1e6:.1f}M it/s)")
