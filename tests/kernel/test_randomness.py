"""Unit tests for deterministic randomness streams."""

from repro.kernel.randomness import SeedSequence


class TestSeedSequence:
    def test_same_name_same_stream_object(self):
        seeds = SeedSequence(1)
        assert seeds.stream("a") is seeds.stream("a")

    def test_same_seed_same_values(self):
        a = SeedSequence(7).stream("workload")
        b = SeedSequence(7).stream("workload")
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_different_names_diverge(self):
        seeds = SeedSequence(7)
        xs = [seeds.stream("x").random() for _ in range(5)]
        ys = [seeds.stream("y").random() for _ in range(5)]
        assert xs != ys

    def test_different_master_seeds_diverge(self):
        a = SeedSequence(1).stream("s").random()
        b = SeedSequence(2).stream("s").random()
        assert a != b

    def test_creation_order_does_not_matter(self):
        first = SeedSequence(3)
        first.stream("early")
        late = first.stream("late").random()
        second = SeedSequence(3)
        assert second.stream("late").random() == late

    def test_derive_seed_stable(self):
        assert SeedSequence(9).derive_seed("n") == SeedSequence(9).derive_seed("n")
