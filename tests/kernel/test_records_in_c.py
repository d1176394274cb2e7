"""The records built in C are the records.

``Trace.emit`` and the delivered return of ``Network.transmit`` build
their named tuples with ``tuple.__new__(cls, fields)``, skipping the
generated Python constructor; these tests hold them to what the
constructor builds, and ``Trace.fingerprint`` (512 events a piece) to the
per-event digest it replaced.  They pass at the parent too: nothing
pinned the identity of the two constructions, nor the digest's form.
"""

import hashlib

from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.kernel.network import Delivery
from repro.kernel.trace import Trace, TraceEvent

#: Virtual times: every float but NaN (``-0.0``, ``inf``, subnormals).
times = st.floats(allow_nan=False) | st.sampled_from(
    [-0.0, float("inf"), 5e-324, 2.2250738585072014e-308])
names = st.text(max_size=12)
events = st.tuples(times, names, names, names, names,
                   st.integers(min_value=0, max_value=2**40))


def per_event_fingerprint(trace) -> str:
    """The reference: one ``encode`` and one ``update`` per event, six
    attribute reads — the form ``Trace.fingerprint`` had."""
    digest = hashlib.sha256()
    for ev in trace.events:
        digest.update(
            f"{ev.time!r}|{ev.kind}|{ev.src}|{ev.dst}|{ev.label}|{ev.size}\n"
            .encode())
    return digest.hexdigest()


@given(events)
def test_an_emitted_event_is_the_constructed_event(fields):
    trace = Trace()
    trace.emit(*fields)
    (emitted,) = trace.events
    built = TraceEvent(*fields)
    assert emitted == built
    assert type(emitted) is TraceEvent
    assert emitted._fields == built._fields
    assert emitted._asdict() == built._asdict()
    assert repr(emitted) == repr(built)


def test_emit_applies_the_defaults_of_the_constructor():
    trace = Trace()
    trace.emit(1.5, "fault", "", "n0")
    assert trace.events == [(1.5, "fault", "", "n0", "", 0)]


@settings(max_examples=60)
@given(st.lists(events, max_size=30))
def test_fingerprint_equals_the_per_event_reference(log):
    emitted, recorded = Trace(), Trace()
    for fields in log:
        emitted.emit(*fields)
        recorded.record(TraceEvent(*fields))
    assert emitted.fingerprint() == recorded.fingerprint() \
        == per_event_fingerprint(recorded)


def test_fingerprint_pieces_join_where_the_per_event_digest_does():
    # The digest is taken 512 events at a time: cross the seam twice,
    # end mid-piece, and end exactly on a seam.
    trace = Trace()
    for index in range(2 * 512 + 7):
        trace.emit(index * 0.1 + 1e-9, "send", "a/m", "b/m", f"é{index}",
                   index)
    assert trace.fingerprint() == per_event_fingerprint(trace)
    del trace.events[1024:]
    assert trace.fingerprint() == per_event_fingerprint(trace)
    assert Trace().fingerprint() == hashlib.sha256().hexdigest()


def _net(seed=5):
    system = repro.make_system(seed=seed)
    for name in "abc":
        system.add_node(name)
    return system


@given(st.integers(min_value=0, max_value=2**20),
       st.floats(min_value=0.0, max_value=1e6), st.booleans())
def test_a_delivered_outcome_is_the_constructed_delivery(nbytes, at, local):
    delivery = _net().network.transmit("a", "a" if local else "b", nbytes, at)
    built = Delivery(True, delivery.arrive_time)
    assert delivery == built == (True, delivery.arrive_time, "")
    assert type(delivery) is Delivery and len(delivery) == 3
    assert delivery.delivered is True and delivery.reason == ""
    assert delivery._asdict() == built._asdict()
    assert repr(delivery) == repr(built)


def test_each_drop_reason_is_still_reported():
    crashed = _net()
    crashed.node("b").crash()
    assert crashed.network.transmit("a", "b", 10, 0.0) \
        == Delivery(False, crashed.network.transit_time("a", "b", 10),
                    "crash")
    assert crashed.network.transmit("b", "a", 10, 0.0).reason == "crash"
    split = _net()
    split.network.partition([{"a"}, {"b", "c"}])
    assert split.network.transmit("a", "b", 10, 0.0).reason == "partition"
    assert split.network.transmit("b", "c", 10, 0.0) \
        == Delivery(True, split.network.transit_time("b", "c", 10))
    lossy = _net(seed=42)
    lossy.network.set_default_loss(0.5)
    outcomes = [lossy.network.transmit("a", "b", 10, 0.0) for _ in range(64)]
    assert {(d.delivered, d.reason) for d in outcomes} \
        == {(True, ""), (False, "loss")}
    assert lossy.trace.count("drop") \
        == sum(not d.delivered for d in outcomes)
