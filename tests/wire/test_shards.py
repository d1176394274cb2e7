"""Unit tests for the shard ring wire protocol (hashing, arcs, fencing)."""

import pytest

from repro.iface.interface import Interface, operation
from repro.kernel.errors import ConfigurationError, ProtocolError
from repro.rpc.dispatcher import ExportEntry
from repro.wire import shards


class FakeStore:
    """A minimal keyed object with the shard transfer hooks."""

    def __init__(self, data=None):
        self.data = dict(data or {})

    @operation(readonly=True)
    def get(self, key):
        return self.data.get(key)

    @operation
    def put(self, key, value):
        self.data[key] = value
        return True

    def shard_keys(self):
        return list(self.data)

    def shard_fragment(self, keys):
        return {key: self.data[key] for key in keys if key in self.data}

    def shard_absorb(self, fragment):
        self.data.update(fragment)

    def shard_discard(self, keys):
        for key in keys:
            self.data.pop(key, None)


class FakeEntry(ExportEntry):
    """A real export-table entry whose one mutation hook keeps a log."""

    def __init__(self, obj, sharding=None):
        super().__init__(obj, Interface.of(type(obj)), ref=None,
                         sharding=sharding, mutation_hooks=[self])
        self.mutations = []

    def after(self, verb, args, kwargs):
        self.mutations.append((verb, args, kwargs))


class TestStableHash:
    def test_deterministic_across_calls(self):
        assert shards.stable_hash("k1") == shards.stable_hash("k1")

    def test_64_bit_range(self):
        for key in ("a", "b", 7, ("t", 1)):
            assert 0 <= shards.stable_hash(key) < 2 ** 64

    def test_distinct_keys_hash_apart(self):
        hashes = {shards.stable_hash(f"k{i}") for i in range(100)}
        assert len(hashes) == 100


class TestRings:
    def test_default_ring_is_sorted_and_sized(self):
        ring = shards.default_ring(4, vnodes=8)
        assert len(ring) == 32
        points = [point for point, _owner in ring]
        assert points == sorted(points)

    def test_default_ring_is_deterministic(self):
        assert shards.default_ring(4) == shards.default_ring(4)

    def test_default_ring_rejects_bad_counts(self):
        with pytest.raises(ConfigurationError):
            shards.default_ring(0)
        with pytest.raises(ConfigurationError):
            shards.default_ring(2, vnodes=0)

    def test_validate_rejects_empty_ring(self):
        with pytest.raises(ConfigurationError, match="empty"):
            shards.validate_ring([], 1)

    def test_validate_rejects_duplicate_points(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            shards.validate_ring([[10, 0], [10, 1]], 2)

    def test_validate_rejects_out_of_range_owner(self):
        with pytest.raises(ConfigurationError, match="outside"):
            shards.validate_ring([[10, 0], [20, 2]], 2)

    def test_validate_normalises_to_sorted_lists(self):
        assert shards.validate_ring([(20, 1), (10, 0)], 2) == \
            [[10, 0], [20, 1]]

    def test_every_shard_owns_some_keys(self):
        # Distribution balance: with 8 vnodes per shard, 5000 uniform keys
        # land on every shard and no shard hoards the ring (the exact
        # shares are deterministic; the bound is deliberately loose).
        state = shards.ShardState(-1, 1, shards.default_ring(8), [[]] * 8)
        counts = [0] * 8
        for i in range(5000):
            counts[state.owner_of(shards.stable_hash(f"key:{i}"))] += 1
        assert min(counts) > 0
        assert max(counts) < 3 * (5000 / 8)


class TestInArc:
    def test_single_point_owns_whole_circle(self):
        assert shards.in_arc(123, 50, 50)
        assert shards.in_arc(50, 50, 50)

    def test_plain_arc_is_half_open(self):
        assert not shards.in_arc(10, 10, 20)
        assert shards.in_arc(11, 10, 20)
        assert shards.in_arc(20, 10, 20)
        assert not shards.in_arc(21, 10, 20)

    def test_wrapping_arc_through_the_top(self):
        assert shards.in_arc(2 ** 63, 2 ** 62, 5)
        assert shards.in_arc(5, 2 ** 62, 5)
        assert not shards.in_arc(6, 2 ** 62, 5)
        assert not shards.in_arc(2 ** 62, 2 ** 62, 5)


class TestShardState:
    def _state(self):
        return shards.ShardState(
            0, 1, [[100, 0], [200, 1], [300, 0]], [["c0"], ["c1"]])

    def test_owner_of_bisects(self):
        state = self._state()
        assert state.owner_of(150) == 1    # (100, 200] -> shard 1
        assert state.owner_of(200) == 1
        assert state.owner_of(250) == 0    # (200, 300] -> shard 0

    def test_owner_of_wraps_past_the_top(self):
        state = self._state()
        assert state.owner_of(301) == 0    # wraps to the first point
        assert state.owner_of(50) == 0

    def test_arc_of_first_point_wraps(self):
        state = self._state()
        assert state.arc_of(0) == (300, 100)
        assert state.arc_of(1) == (100, 200)

    def test_map_round_trips(self):
        state = self._state()
        clone = shards.ShardState(-1, *state.map())
        assert clone.map() == state.map()
        assert clone.owner_of(150) == state.owner_of(150)

    def test_adopt_requires_strictly_newer_epoch(self):
        state = self._state()
        same = state.map()
        assert not state.adopt(*same)
        older = [0, same[1], same[2]]
        assert not state.adopt(*older)
        newer = [2, [[100, 1], [200, 1], [300, 0]], same[2]]
        assert state.adopt(*newer)
        assert state.epoch == 2
        assert state.owner_of(50) == 1    # reindexed


def serve(entry, headers, verb="", args=()):
    """One enveloped call, parsed and served as the dispatcher serves it."""
    return shards.serve_envelope(entry, verb, args, {}, headers, now=0.0,
                                 invoke=None, call_peer=None)


class TestServeVerb:
    def _entry(self, epoch=3):
        ring = [[100, 0], [200, 1]]
        state = shards.ShardState(0, epoch, ring, [
            ["c0", "o0", "FakeStore", 0, "stub"],
            ["c1", "o1", "FakeStore", 0, "stub"]])
        return FakeEntry(FakeStore({"k": "v"}), state), state

    def test_current_epoch_served_without_heal(self):
        entry, _state = self._entry()
        reply = serve(entry, {shards.H_EPOCH: [3]}, "get", ("k",))
        assert reply == {shards.K_VALUE: "v"}

    def test_stale_epoch_with_owned_key_served_and_healed(self):
        entry, state = self._entry()
        owned = 250    # wraps onto point 100 -> shard 0 (this entry)
        assert state.owner_of(owned) == 0
        reply = serve(entry, {shards.H_EPOCH: [1], shards.H_KEY: owned},
                      "get", ("k",))
        assert reply[shards.K_VALUE] == "v"
        assert reply[shards.K_MAP] == state.map()

    def test_stale_epoch_with_moved_key_fenced(self):
        entry, state = self._entry()
        moved = 150    # (100, 200] -> shard 1, not this entry
        assert state.owner_of(moved) == 1
        reply = serve(entry, {shards.H_EPOCH: [1], shards.H_KEY: moved},
                      "get", ("k",))
        assert reply == {shards.K_FENCED: state.map()}

    def test_stale_epoch_without_key_hash_fenced(self):
        entry, state = self._entry()
        reply = serve(entry, {shards.H_EPOCH: [1]}, "get", ("k",))
        assert reply == {shards.K_FENCED: state.map()}

    def test_mutation_hooks_fire_only_for_writes(self):
        entry, _state = self._entry()
        serve(entry, {shards.H_EPOCH: [3]}, "put", ("k", "w"))
        serve(entry, {shards.H_EPOCH: [3]}, "get", ("k",))
        assert entry.mutations == [("put", ("k", "w"), {})]


class TestServeControl:
    def test_map_control_returns_the_map(self):
        entry, state = TestServeVerb()._entry()
        reply = serve(entry, {shards.H_CONTROL: ["map"]})
        assert reply == {shards.K_MAP: state.map()}

    def test_map_control_on_unsharded_entry_is_a_protocol_error(self):
        with pytest.raises(ProtocolError):
            serve(FakeEntry(FakeStore()), {shards.H_CONTROL: ["map"]})

    def test_commit_adopts_strictly_newer_maps_only(self):
        entry, state = TestServeVerb()._entry(epoch=3)
        newer = [5, state.ring, state.shards]
        serve(entry, {shards.H_CONTROL: ["commit"]}, args=(newer,))
        assert state.epoch == 5
        serve(entry, {shards.H_CONTROL: ["commit"]},
              args=([4, state.ring, state.shards],))
        assert state.epoch == 5

    def test_install_is_discard_first_and_idempotent(self):
        _entry, state = TestServeVerb()._entry()
        entry = FakeEntry(FakeStore({"a": "old", "b": "keep"}), state)
        reply = serve(entry, {shards.H_CONTROL: ["install", ["a"]]},
                      args=({"a": "new"},))
        assert reply == {shards.K_VALUE: True}
        assert entry.obj.data == {"a": "new", "b": "keep"}
        serve(entry, {shards.H_CONTROL: ["install", ["a"]]},
              args=({"a": "new"},))
        assert entry.obj.data == {"a": "new", "b": "keep"}

    def test_unknown_control_is_a_protocol_error(self):
        entry, _state = TestServeVerb()._entry()
        with pytest.raises(ProtocolError, match="unknown s.c control"):
            serve(entry, {shards.H_CONTROL: ["gossip"]})
