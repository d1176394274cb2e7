"""E18 — the invocation fast path: zero observable change per policy.

Every invocation crosses the full pipeline — ``proxy.verb`` → policy →
``RpcProtocol.call`` → marshal → ``Network.transmit`` → dispatcher → reply.
The hot-path optimisations in the wire, transport, network, and proxy
layers (see the "performance model" section of DESIGN.md) may change how
fast the simulator runs that pipeline, never what it simulates.  E18 pins
the second half exactly: per shipped policy, the virtual µs/op, the
message count and the trace fingerprint of a fixed workload.  Same seed ⇒
same trace, so the harness runs every workload twice and the CI gate
diffs ``BENCH_e18.json`` byte for byte.  How fast the host runs the same
traffic is measured by ``benchmarks/perf`` (``BENCHMARK.json``).

The operation mix is a seeded 80/20 get/put stream over four hot keys —
small payloads, so the workload stresses per-invocation overhead rather
than bulk copying.
"""

from __future__ import annotations

from ...simtest.runner import SimCase
from ...simtest.workload import deploy

TITLE = "E18: invocation fast path — virtual cost by policy"
COLUMNS = ["policy", "sim_us_per_op", "messages"]

#: Policies swept, in presentation order.
POLICIES = ("stub", "caching", "replicated", "resilient", "composite")

OPS = 3000
SEED = 18
_KEYS = ("k0", "k1", "k2", "k3")
_PUT_FRACTION = 0.2


def _run_workload(case: SimCase) -> dict:
    """Deploy ``case`` fresh and drive the op mix once; returns the
    deterministic fields."""
    deployment = deploy(case)
    system = deployment.system
    _, ctx, proxy = deployment.clients[0]
    rng = system.seeds.stream("e18.ops")
    # Warm the connection so one-time setup (handshake, memo priming) is
    # not billed to the steady-state measurement.
    proxy.put(_KEYS[0], 0)
    proxy.get(_KEYS[0])
    mark = system.trace.mark()
    sim_start = ctx.clock.now
    for index in range(case.ops):
        key = _KEYS[rng.randrange(4)]
        if rng.random() < _PUT_FRACTION:
            proxy.put(key, index)
        else:
            proxy.get(key)
    sim = ctx.clock.now - sim_start
    messages = sum(1 for ev in system.trace.since(mark) if ev.kind == "send")
    return {
        "sim_us_per_op": round(sim / case.ops * 1e6, 2),
        "messages": messages,
        "fingerprint": system.trace.fingerprint(),
    }


def measure_policy(policy: str, ops: int = OPS, seed: int = SEED) -> dict:
    """One policy's row, from two in-process runs that must agree."""
    case = SimCase(seed=seed, policy=policy, service="kv", ops=ops,
                   clients=1, faults=())
    first, second = _run_workload(case), _run_workload(case)
    if first != second:
        raise AssertionError(
            f"E18 determinism violated: {policy!r} drifted between "
            f"identical runs ({first!r} vs {second!r})")
    return {"policy": policy, "ops": ops, **first}


def bench_payload(ops: int = OPS, seed: int = SEED) -> dict:
    """The machine-readable benchmark record (``BENCH_e18.json``).

    Every field is deterministic (virtual µs/op, message count, trace
    fingerprint), so CI compares the record with the committed one
    exactly, on any machine.
    """
    return {
        "experiment": "e18",
        "ops": ops,
        "seed": seed,
        "policies": [measure_policy(policy, ops=ops, seed=seed)
                     for policy in POLICIES],
    }


def bench_rows(payload: dict) -> list[dict]:
    """The table form of a payload (the CLI's non-``--json`` rendering)."""
    return [{column: measured[column] for column in COLUMNS}
            for measured in payload["policies"]]


def run(ops: int = OPS, seed: int = SEED) -> list[dict]:
    """Sweep all shipped policies; one row per policy."""
    return bench_rows(bench_payload(ops=ops, seed=seed))
