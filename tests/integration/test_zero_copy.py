"""End-to-end zero-copy: bulk payloads cross the stack without copies.

A large ``bytes`` argument in a pure frame (empty headers, immutable
body) must arrive at the server as the *same object* the client passed —
the pure frame is sized, not written, and carries its fields, which the
carried decode hands through — while every virtual-time observable (wire
bytes, transit charges) matches the copying encoding exactly.
"""

from __future__ import annotations

from repro.core.export import get_space
from repro.core.service import Service
from repro.iface.interface import operation
from repro.metrics.counters import MessageWindow

#: A bulk payload size (4 KiB).
BULK = 4096


class Keeper(Service):
    """Remembers the exact object it was handed."""

    def __init__(self):
        self.last = None

    @operation
    def keep(self, item) -> int:
        self.last = item
        return len(item)


class TestZeroCopyIdentity:
    def test_bulk_bytes_arrive_as_the_same_object(self, pair):
        system, server, client = pair
        keeper = Keeper()
        ref = get_space(server).export(keeper)
        proxy = get_space(client).bind_ref(ref)
        blob = b"\x33" * (BULK * 4)
        assert proxy.keep(blob) == len(blob)
        assert keeper.last is blob

    def test_small_payloads_still_identity_share_via_carry(self, pair):
        # A small payload is shared as a bulk one is: identity is a
        # pure-frame property, not a size property.
        system, server, client = pair
        keeper = Keeper()
        ref = get_space(server).export(keeper)
        proxy = get_space(client).bind_ref(ref)
        blob = b"tiny"
        proxy.keep(blob)
        assert keeper.last is blob

    def test_wire_accounting_matches_the_inline_encoding(self, pair):
        # The carry is invisible to the cost model: bytes on the wire
        # scale with the payload exactly as the inline encoding does.
        system, server, client = pair
        keeper = Keeper()
        ref = get_space(server).export(keeper)
        proxy = get_space(client).bind_ref(ref)
        small, large = 1000, 1000 + BULK * 8
        proxy.keep(b"w" * 8)  # warm the bind path
        with MessageWindow(system) as first:
            proxy.keep(b"a" * small)
        with MessageWindow(system) as second:
            proxy.keep(b"b" * large)
        assert second.report.bytes - first.report.bytes == large - small

    def test_mutable_payloads_are_not_identity_shared(self, pair):
        # A bytearray is mutable: its frame is written, and it must NOT
        # surface as the caller's object on the server side.
        system, server, client = pair
        keeper = Keeper()
        ref = get_space(server).export(keeper)
        proxy = get_space(client).bind_ref(ref)
        owned = bytearray(b"\x44" * (BULK * 2))
        proxy.keep(owned)
        assert keeper.last is not owned
        assert bytes(keeper.last) == bytes(owned)
