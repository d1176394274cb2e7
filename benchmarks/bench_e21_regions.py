"""E21 bench: regions — read locality vs. the cross-region quorum price."""

from conftest import run_experiment

from repro.bench.experiments import e21_regions


def test_e21_regions(benchmark):
    rows = run_experiment(benchmark, e21_regions)
    by_scenario = {row["scenario"]: row for row in rows}
    expected = {f"{dep}@{tag}" for dep in e21_regions.DEPLOYMENTS
                for tag in ("east", "west", "probe")}
    assert set(by_scenario) == expected

    def cell(deployment, tag):
        return by_scenario[f"{deployment}@{tag}"]

    # The centralisation tax: the remote region pays the WAN on every
    # read, an order of magnitude over the home region's LAN reads.
    assert cell("central", "west")["read_ms"] > \
        10 * cell("central", "east")["read_ms"]
    assert cell("central", "east")["read_like_lan"]
    assert not cell("central", "west")["read_like_lan"]

    # The read-locality win: the legacy regional group answers *every*
    # region's reads from its own replica — west reads shed the WAN
    # entirely — and stays available through the crash schedule (reads
    # retreat to the other region when the local replica is down).
    for region in ("east", "west"):
        assert cell("regional-local", region)["read_like_lan"]
    assert cell("regional-local", "west")["read_ms"] < \
        0.1 * cell("central", "west")["read_ms"]
    assert cell("regional-local", "probe")["availability"] > \
        cell("central", "probe")["availability"]

    # ... and its price: the staleness probe convicts the read-one
    # contract — a write committed against the home majority while the
    # west replica was down is invisible to west readers.
    assert cell("regional-local", "probe")["stale_reads"] > 0

    # The quorum price, paid where the locality win was cashed: R+W > N
    # makes every read fresh (zero stale), the home region keeps LAN
    # reads off its local two-replica quorum, and the remote region pays
    # the WAN for its second vote.
    assert cell("regional-quorum", "probe")["stale_reads"] == 0
    assert cell("regional-quorum", "east")["read_like_lan"]
    assert not cell("regional-quorum", "west")["read_like_lan"]

    # Writes pay the WAN under replication in both modes — the trade
    # moves cost to mutations, it does not erase it.
    for deployment in ("regional-local", "regional-quorum"):
        for region in ("east", "west"):
            assert cell(deployment, region)["write_ms"] > \
                10 * cell("central", "east")["write_ms"]
