#!/usr/bin/env python3
"""The repo's performance benchmark: one command, eight workloads.

Three ways in (README.md has the tables and the reasoning):

``perf_run.py --workload W --seed N --seconds S --trace 0|1``
    One workload in this interpreter.  ``--trace 0`` measures the
    end-to-end metrics with no wrapper installed; ``--trace 1`` is the
    traced pass that fills the per-layer ledger.  The last line of standard
    output is the result object ``BENCHMARK.json`` describes.

``perf_run.py [--seed N] [--workload W ...] [--seconds S] [--out FILE]``
    Every workload (or the named ones), each pass in its own fresh
    interpreter; writes the combined record ``compare`` reads.

``perf_run.py compare A.json B.json``
    One row per (workload, end-to-end metric) with both values, the change
    and the bound; exits 1 on a regression or on a count that moved.

Metric names, units, directions and bounds are read from ``BENCHMARK.json``
so they are declared once.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"

#: Rounds the untraced pass runs at least, however short ``--seconds`` is
#: (the traced pass and ``--smoke``: two).
MIN_ROUNDS = 3
#: The traced pass runs a quarter of the operations per round (tracing a
#: full-length round costs 2.5x instead of 2x on ``stub_small`` and moves
#: the layers' shares), except where ``outsizes_memos`` says the round needs
#: its length.
TRACE_DIVISOR = 4
#: ``--smoke`` sizes: a fiftieth of the operations, two rounds.
SMOKE_DIVISOR = 50
#: A traced op may leave at most this share of its wall outside any span.
MAX_UNATTRIBUTED = 0.20
#: Fresh interpreters timed for the import part of ``setup_s``: this many
#: before the rounds and as many after, so that one slow spell of the host
#: cannot cover them all.
IMPORT_SAMPLES = 3
#: The calibration loop runs once after every round, in chunks short enough
#: (about half a millisecond) to fall between the host's slow spells.
CALIBRATION_CHUNKS = 200
CALIBRATION_CHUNK_ITERATIONS = 1_000

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import repro.simtest.runner; "
    "print(time.perf_counter() - t)")


def load_spec() -> dict:
    """``BENCHMARK.json``: the declared workloads, metrics and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def require_program() -> None:
    """Put this checkout's ``src`` first on the path, or refuse to run."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perf_run: no program to measure: {SRC}/repro is missing")
    sys.path.insert(0, str(SRC))
    import repro
    if Path(repro.__file__).resolve().parents[1] != SRC:
        sys.exit(f"perf_run: 'repro' resolved to {repro.__file__}, "
                 f"not to this checkout")


# -- measuring ---------------------------------------------------------------


def import_seconds(samples: int, warm: bool = False) -> list:
    """``(seconds, host rate)`` of ``samples`` fresh interpreters importing
    the program, each bracketed by two runs of the calibration loop.

    Unless ``warm``, one launch is made and thrown away first: it fills
    the page cache (and, in a clean checkout, writes the bytecode files)
    that every later one reads.
    """
    taken = []
    for _ in range(samples + (not warm)):
        before = calibration_gaps()
        seconds = float(subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(SRC)], check=True,
            capture_output=True, text=True, timeout=120).stdout)
        taken.append((seconds, host_rate(before + calibration_gaps())))
    return taken[-samples:]


def quiet_seconds(samples: list, quiet_rate: float) -> float:
    """Median of ``(seconds, host rate)`` samples, each scaled from the
    host speed it was taken at to the run's quiet-host speed.

    A set-up lasts long enough to average over the host's flicker, so the
    minimum trick of :class:`Quiet` does not apply; scaling halves the
    spread of import times on this box (0.34 -> 0.16 over 40 launches).
    """
    return statistics.median(
        seconds * min(rate, quiet_rate) / quiet_rate
        for seconds, rate in samples)


def calibration_gaps() -> list:
    """Seconds taken by each chunk of the calibration loop.

    The loop body is the repo's (``repro.bench.timing``), but the benchmark
    keeps its own copy: its unit of host work must not move when the
    program under test does.  It is timed in chunks so that :class:`Quiet`
    can treat it exactly like a workload round.
    """
    gaps = []
    acc = 0
    for _ in range(CALIBRATION_CHUNKS):
        began = perf_counter()
        for i in range(CALIBRATION_CHUNK_ITERATIONS):
            acc = (acc + i * 3) % 1000003
        gaps.append(perf_counter() - began)
    return gaps


def host_rate(gaps: list) -> float:
    """Calibration-loop iterations per second over ``gaps``."""
    return len(gaps) * CALIBRATION_CHUNK_ITERATIONS / sum(gaps)


class Quiet:
    """What identical rounds cost when the host leaves them alone.

    On this box the same round runs up to three times slower for seconds at
    a stretch, and between those spells the speed flickers from one 10 ms
    sample to the next.  But contention only ever *adds* time, and the
    i-th operation of every round is the same computation: so the cost of
    operation i is the **minimum over rounds** of the time it took, and a
    round's cost is the sum of those minima.  The calibration loop runs
    after every round and is folded the same way, chunk by chunk, so the
    workload and the unit it is counted in see the same host.
    """

    def __init__(self):
        self.rounds: list = []
        self.gaps: list = []       # per op: completion-to-completion time
        self.op_wall: list = []    # per op: time inside the proxy call
        self.calibration: list = []    # per chunk of the calibration loop

    def add(self, round_) -> None:
        calibration = calibration_gaps()
        round_.rate = host_rate(calibration)
        if self.rounds:
            self.gaps = list(map(min, self.gaps, round_.gaps))
            self.op_wall = list(map(min, self.op_wall, round_.op_wall))
            self.calibration = list(map(min, self.calibration, calibration))
        else:
            self.gaps, self.op_wall = round_.gaps, round_.op_wall
            self.calibration = calibration
        round_.gaps = round_.op_wall = None
        self.rounds.append(round_)

    @property
    def seconds(self) -> float:
        """Quiet-host wall of one round's timed part."""
        return sum(self.gaps)

    @property
    def rate(self) -> float:
        """Quiet-host speed: calibration iterations per second."""
        return host_rate(self.calibration)


def run_rounds(run_one, seconds: float, min_rounds: int) -> Quiet:
    """Identical rounds until ``seconds`` are spent (at least ``min_rounds``).

    Stops when another round of the last one's length would overrun.
    """
    quiet = Quiet()
    deadline = perf_counter() + seconds
    while True:
        began = perf_counter()
        quiet.add(run_one())
        now = perf_counter()
        if len(quiet.rounds) >= min_rounds \
                and now + (now - began) > deadline:
            return quiet


def require_identical(rounds: list, what: str) -> None:
    """Rounds are one deterministic computation: they must agree exactly."""
    identities = {round_.identity for round_ in rounds}
    if len(identities) != 1:
        sys.exit(f"perf_run: {what}: rounds disagree on fingerprint / "
                 f"virtual time / message count: {sorted(identities)}")


def spread(values: list) -> float:
    """(q3 - q1) / median, the steadiness measure used throughout."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def end_to_end(quiet: Quiet, imports: list) -> dict:
    """The end-to-end metrics.  Host time is counted in iterations of the
    repo's calibration loop, so a number means the same on a faster box."""
    rounds = quiet.rounds
    return {
        "ops_per_mcal":
            rounds[0].attempted / (quiet.seconds * quiet.rate) * 1e6,
        "op_cal_p50": statistics.median(quiet.op_wall) * quiet.rate,
        "sim_us_per_op": rounds[0].sim_us_per_op,
        "setup_s": quiet_seconds(imports, quiet.rate) + quiet_seconds(
            [(round_.setup_s, round_.rate) for round_ in rounds],
            quiet.rate),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(counted: dict, timed: dict, untraced: Quiet, traced: Quiet,
              imports: list) -> dict:
    """The layer ledger.  Counts come from ``counted`` (always the first
    traced round, so memo state is the same on every run), times from
    ``timed`` (the fastest traced round)."""
    round_ = counted["round"]
    ops = round_.attempted
    from perf_workloads import percentile
    calls, counters = counted["calls"], counted["counters"]
    proxy, rpc = counters["proxies"], counters["protocols"]
    dispatcher, memo = counters["dispatchers"], counters["memo"]
    events = counters["events"]
    extra = round_.extra
    cases = extra.get("cases", 1)

    def called(prefix: str) -> float:
        return sum(n for name, n in calls.items()
                   if name.startswith(prefix)) / ops

    def self_us(layer: str) -> float:
        return timed["seconds"].get(layer, 0.0) * 1e6 / timed_ops

    def total_ms(name: str) -> float:
        return timed["durations"].get(name, 0.0) * 1e3 / cases

    timed_ops = timed["round"].attempted
    timed_wall = timed["round"].wall_s
    memo_hits = sum(memo[key] for key in memo if key.endswith("_hits"))
    memo_misses = sum(memo[key] for key in memo if key.endswith("_misses"))
    fastest_untraced = min(untraced.rounds, key=lambda r: r.wall_s)
    on_battery = "cases" in extra
    return {
        "core.proxy.calls_per_op": called("core.proxy."),
        "core.proxy.self_us_per_op": self_us("core.proxy"),
        "core.policies.hops_per_op": called("core.policies."),
        "core.policies.self_us_per_op": self_us("core.policies"),
        "core.policies.cache_hit_ratio": _ratio(
            proxy["hits"], proxy["hits"] + proxy["misses"]),
        "core.policies.repairs_per_kop": 1e3 * (
            proxy["read_repairs"] + proxy["write_repairs"]) / ops,
        "core.policies.elections_per_kop": 1e3 * proxy["elections"] / ops,
        "core.policies.redirects_per_kop":
            1e3 * proxy["shard_redirects"] / ops,
        "rpc.protocol.calls_per_op": rpc["calls"] / ops,
        "rpc.protocol.oneways_per_op": rpc["oneways"] / ops,
        "rpc.protocol.self_us_per_op": self_us("rpc.protocol"),
        "rpc.protocol.retries_per_kop": 1e3 * rpc["retries"] / ops,
        "rpc.protocol.timeouts_per_kop": 1e3 * rpc["timeouts"] / ops,
        "rpc.transport.calls_per_op": called("rpc.transport."),
        "rpc.transport.self_us_per_op": self_us("rpc.transport"),
        "wire.encode_calls_per_op": called("wire.Marshaller.encode"),
        "wire.decode_calls_per_op": called("wire.Marshaller.decode"),
        "wire.self_us_per_op": self_us("wire"),
        "wire.header_keys_per_frame": _ratio(
            counters["header_keys"], counters["frames"]),
        "wire.memo_hit_ratio": _ratio(memo_hits, memo_hits + memo_misses),
        "wire.memo_evictions_per_kop": 1e3 * memo["evictions"] / ops,
        "kernel.network.msgs_per_op": events.get("send", 0) / ops,
        "kernel.network.bytes_per_op": counters["sent_bytes"] / ops,
        "kernel.network.drop_share": _ratio(
            events.get("drop", 0), events.get("send", 0)),
        "kernel.network.self_us_per_op": self_us("kernel.network"),
        "rpc.dispatcher.calls_per_op": called("rpc.dispatcher."),
        "rpc.dispatcher.self_us_per_op": self_us("rpc.dispatcher"),
        "rpc.dispatcher.duplicates_per_kop":
            1e3 * dispatcher["duplicates"] / ops,
        "rpc.dispatcher.sheds_per_kop": 1e3 * dispatcher["sheds"] / ops,
        "apps.self_us_per_op": self_us("apps"),
        "kernel.trace.events_per_op": counters["trace_events"] / ops,
        "kernel.trace.self_us_per_op": self_us("kernel.trace"),
        # Off the battery a "case" is a round, deployed by the benchmark's
        # own loop (deploy + bind + two warm-up ops) and driven by it too.
        "simtest.workload.deploy_ms_per_case":
            total_ms("simtest.workload.deploy") if on_battery
            else timed["round"].setup_s * 1e3,
        "simtest.workload.drive_ms_per_case":
            total_ms("simtest.workload.drive"),
        "simtest.workload.fault_outcomes_share":
            extra.get("fault_outcomes", 0) / ops,
        "simtest.checker.check_ms_per_case":
            total_ms("simtest.checker.check_history"),
        "simtest.checker.explored_per_case":
            extra.get("explored", 0) / cases,
        "simtest.checker.unknown_share": extra.get("unknown", 0) / cases,
        "simtest.checker.wall_share": _ratio(
            timed["durations"].get("simtest.checker.check_history", 0.0),
            timed_wall),
        "driver.ops_per_s": ops / untraced.seconds,
        "driver.op_wall_us_p99": percentile(untraced.op_wall, 0.99) * 1e6,
        "driver.sim_us_p99": round_.sim_us_p99,
        "driver.cpu_share":
            fastest_untraced.cpu_s / fastest_untraced.wall_s,
        "driver.unattributed_us_per_op":
            (timed_wall - timed["root_s"]) * 1e6 / timed_ops,
        "driver.trace_overhead_ratio": traced.seconds / untraced.seconds,
        "driver.round_spread": spread([r.wall_s for r in traced.rounds]),
        "driver.calibration_rate": max(untraced.rate, traced.rate),
        "driver.import_s": statistics.median(
            seconds for seconds, _ in imports),
    }


def check_ledger(workload, counted: dict, timed: dict, metrics: dict) -> None:
    """The ledger must not drift from the program: refuse to report if it
    has."""
    name = workload.name
    op_us = timed["round"].wall_s * 1e6 / timed["round"].attempted
    loose = metrics["driver.unattributed_us_per_op"]
    if loose > MAX_UNATTRIBUTED * op_us:
        sys.exit(f"perf_run: {name}: {loose:.1f} us/op lies outside every "
                 f"span (op is {op_us:.1f} us)")
    if workload.policy is not None \
            and metrics["simtest.checker.wall_share"] != 0:
        sys.exit(f"perf_run: {name}: checker time off the battery")
    seen = counted["counters"]["events"].get("send", 0)
    recorded = counted["counters"]["trace_sends"]
    if seen != recorded:
        sys.exit(f"perf_run: {name}: wrappers saw {seen} sends, the "
                 f"system trace holds {recorded}")
    from perf_workloads import outsizes_memos
    if outsizes_memos(workload) \
            and not metrics["wire.memo_evictions_per_kop"]:
        sys.exit(f"perf_run: {name}: no memo eviction: the round's working "
                 f"set fits the marshaller's memos")


def traced_pass(workload, run_one, seconds: float, min_rounds: int) -> dict:
    """Untraced reference round, traced rounds, untraced round again.

    The closing untraced round must reproduce the opening one's
    fingerprint: that is the proof ``uninstall`` restored the program.
    """
    from perf_spans import Recorder, layer_totals
    recorder = Recorder()
    first = fastest = None
    fastest_spans: list = []

    def traced_round():
        nonlocal first, fastest
        recorder.start_round()
        round_ = run_one(before_timed=recorder.start_timed)
        sample = {"round": round_, "counters": recorder.counters(),
                  **layer_totals(recorder.spans)}
        first = first or sample
        if fastest is None or round_.wall_s < fastest["round"].wall_s:
            fastest = sample
            fastest_spans[:] = recorder.spans
        return round_

    untraced = Quiet()
    untraced.add(run_one())
    recorder.install()
    try:
        traced = run_rounds(traced_round, seconds, min_rounds)
    finally:
        recorder.uninstall()
    untraced.add(run_one())
    require_identical(untraced.rounds + traced.rounds,
                      f"{workload.name} (traced)")
    return {"counted": first, "timed": fastest, "untraced": untraced,
            "traced": traced, "spans": fastest_spans}


def rank_layers(timed: dict) -> list:
    """Layers by self time per op, largest first, with their share of the
    op's wall."""
    ops, wall_s = timed["round"].attempted, timed["round"].wall_s
    ranked = sorted(timed["seconds"].items(), key=lambda item: -item[1])
    return [{"layer": layer, "self_us_per_op": seconds * 1e6 / ops,
             "share": seconds / wall_s}
            for layer, seconds in ranked]


def write_trace(workload, seed: int, result: dict) -> Path:
    """``out/trace_<workload>.json``: the fastest traced round's spans."""
    spans = result["spans"]
    origin = spans[0][2] if spans else 0.0
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace_{workload.name}.json"
    with path.open("w") as handle:
        json.dump({
            "workload": workload.name, "seed": seed,
            "ops": result["timed"]["round"].attempted,
            "wall_us": result["timed"]["round"].wall_s * 1e6,
            "columns": ["name", "layer", "start_us", "end_us", "parent",
                        "op_id"],
            "spans": [[name, layer, round((start - origin) * 1e6, 3),
                       round((end - origin) * 1e6, 3), parent, op_id]
                      for name, layer, start, end, parent, op_id in spans],
        }, handle)
    return path


def run_single(name: str, seed: int, seconds: float, trace: bool,
               smoke: bool) -> dict:
    """Measure one workload in this interpreter; returns the detail record
    (its ``result`` entry is the object the last output line carries)."""
    require_program()
    import perf_workloads as pw
    spec = load_spec()
    workload = pw.WORKLOADS[name]
    divisor = SMOKE_DIVISOR if smoke else 1
    if trace and not pw.outsizes_memos(workload):
        divisor *= TRACE_DIVISOR
    workload = pw.scaled(workload, divisor)
    min_rounds = 2 if smoke or trace else MIN_ROUNDS
    if smoke:
        seconds = 0.0

    import_samples = 1 if smoke or trace else IMPORT_SAMPLES
    imports = import_seconds(import_samples)
    if workload.policy is None:
        cases = pw.battery_cases(seed)
        if smoke:
            cases = [case for case in cases if case.seed == 0]

        def run_one(**kwargs):
            return pw.run_battery_round(cases, **kwargs)
    else:
        stream = pw.make_stream(workload, seed)

        def run_one(**kwargs):
            return pw.run_round(workload, seed, stream, **kwargs)

    detail: dict = {"workload": name, "seed": seed, "trace": int(trace)}
    if trace:
        result = traced_pass(workload, run_one, seconds, min_rounds)
        quiet = result["traced"]
        metrics = per_layer(result["counted"], result["timed"],
                            result["untraced"], quiet, imports)
        check_ledger(workload, result["counted"], result["timed"], metrics)
        declared = spec["per_layer"]
        detail["layers_ranked"] = rank_layers(result["timed"])
        detail["trace_file"] = str(
            write_trace(workload, seed, result).relative_to(ROOT))
    else:
        quiet = run_rounds(run_one, seconds, min_rounds)
        require_identical(quiet.rounds, name)
        imports += import_seconds(import_samples, warm=True)
        metrics = end_to_end(quiet, imports)
        declared = spec["end_to_end"]
        detail["round_spread"] = spread([r.wall_s for r in quiet.rounds])

    first = quiet.rounds[0]
    if workload.policy is not None and first.failed:
        sys.exit(f"perf_run: {name}: {first.failed} of {first.attempted} "
                 f"results differ from the reference model")
    out_of_step = {m["name"] for m in declared} ^ set(metrics)
    if out_of_step:
        sys.exit(f"perf_run: metrics out of step with BENCHMARK.json: "
                 f"{sorted(out_of_step)}")
    detail["rounds"] = len(quiet.rounds)
    detail["samples"] = {
        "op_wall": len(quiet.rounds) * len(quiet.op_wall),
        "sim_us": first.sim_samples}
    detail["result"] = {
        "correct": first.failed == 0,
        "attempted": first.attempted,
        "failed": first.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in declared},
    }
    return detail


def print_detail(detail: dict) -> None:
    """Every metric by name with its unit; then, for the all-workloads
    mode to read back, the run's detail record on one line; then the result
    object."""
    result = detail["result"]
    print(f"# {detail['workload']} seed={detail['seed']} "
          f"trace={detail['trace']} rounds={detail['rounds']} "
          f"ops/round={result['attempted']} samples={detail['samples']}")
    for name, metric in result["metrics"].items():
        print(f"{name:42s} {metric['value']:>16.6g} {metric['unit']}")
    for row in detail.get("layers_ranked", ()):
        print(f"  layer {row['layer']:18s} {row['self_us_per_op']:10.3f} "
              f"us/op  {row['share']:6.1%}")
    print(json.dumps({key: value for key, value in detail.items()
                      if key != "result"}))
    print(json.dumps(result))


# -- the whole benchmark ------------------------------------------------------


def run_all(names: list, seed: int, seconds: float, smoke: bool,
            out: Path) -> int:
    """Both passes of every workload, each in a fresh interpreter."""
    record = {"seed": seed, "seconds": seconds, "smoke": smoke,
              "workloads": {}}
    for name in names:
        entry = record["workloads"][name] = {}
        for trace in (0, 1):
            command = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", name, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", str(trace)]
            if smoke:
                command.append("--smoke")
            done = subprocess.run(command, timeout=600, text=True,
                                  stdout=subprocess.PIPE)
            print(done.stdout, end="")
            if done.returncode != 0:
                print(f"perf_run: {name} --trace {trace} failed "
                      f"(exit {done.returncode})", file=sys.stderr)
                return 1
            detail, result = map(json.loads, done.stdout.splitlines()[-2:])
            key = "per_layer" if trace else "end_to_end"
            entry[key] = result.pop("metrics")
            entry[f"{key}_run"] = {**result, **{
                k: v for k, v in detail.items()
                if k not in ("workload", "seed", "trace")}}
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"record written to {out}")
    return 0


# -- compare ------------------------------------------------------------------


def is_exact(name: str) -> bool:
    """Whether a metric is a count made by the deterministic simulation,
    which must repeat exactly for a given seed."""
    if "sim_us" in name:
        return True
    if "." not in name or name.startswith("driver."):
        return False
    return not name.endswith(("self_us_per_op", "_ms_per_case",
                              "wall_share"))


def compare(path_a: Path, path_b: Path) -> int:
    """Table of B against A; 1 when a bound or an exact metric is broken."""
    spec = load_spec()
    a, b = (json.loads(path.read_text()) for path in (path_a, path_b))
    if (a["seconds"], a["smoke"]) != (b["seconds"], b["smoke"]):
        sys.exit("perf_run: the records were measured with different "
                 "--seconds or sizes; measure both sides alike")
    same_inputs = a["seed"] == b["seed"]
    if not same_inputs:
        print("seeds differ: exact-repeat metrics not compared")
    breaches = 0
    print(f"{'workload':18s} {'metric':16s} {'A':>14s} {'B':>14s} "
          f"{'worse by':>9s} {'bound':>6s}  verdict")
    for name in a["workloads"]:
        if name not in b["workloads"]:
            print(f"{name:18s} {'(every metric)':16s} {'':14s} {'':14s} "
                  f"{'':9s} {'':6s}  MISSING")
            breaches += 1
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        noise = max(wa["end_to_end_run"]["round_spread"],
                    wb["end_to_end_run"]["round_spread"])
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            va, vb = wa["end_to_end"][key]["value"], \
                wb["end_to_end"][key]["value"]
            worse = (vb - va) / va if metric["better"] == "lower" \
                else (va - vb) / va
            if is_exact(key) and same_inputs:
                verdict = "equal" if va == vb else "MISMATCH"
            elif worse > bound:
                verdict = "REGRESSION"
            elif noise > bound and key not in ("peak_rss_mb", "setup_s"):
                verdict = "unresolved"
            else:
                verdict = "unchanged"
            breaches += verdict in ("MISMATCH", "REGRESSION")
            print(f"{name:18s} {key:16s} {va:14.6g} {vb:14.6g} "
                  f"{worse:+9.2%} {bound:6.0%}  {verdict}")
        if same_inputs and "per_layer" in wa and "per_layer" in wb:
            moved = [key for key, item in wa["per_layer"].items()
                     if is_exact(key)
                     and item["value"] != wb["per_layer"][key]["value"]]
            for key in moved:
                print(f"{name:18s} {key}: "
                      f"{wa['per_layer'][key]['value']!r} != "
                      f"{wb['per_layer'][key]['value']!r}  MISMATCH")
            breaches += len(moved)
    print("breaches:", breaches)
    return 1 if breaches else 0


# -- entry --------------------------------------------------------------------


def main(argv: list | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            sys.exit("usage: perf_run.py compare A.json B.json")
        return compare(Path(argv[1]), Path(argv[2]))
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, two rounds (the smoke test)")
    parser.add_argument("--out", type=Path, default=OUT / "perf_record.json",
                        help="where the all-workloads record goes")
    args = parser.parse_args(argv)
    if args.trace is None:
        return run_all(args.workload or names, args.seed, args.seconds,
                       args.smoke, args.out)
    if not args.workload or len(args.workload) != 1:
        parser.error("--trace measures exactly one --workload")
    detail = run_single(args.workload[0], args.seed, args.seconds,
                        bool(args.trace), args.smoke)
    print_detail(detail)
    return 0


if __name__ == "__main__":
    sys.exit(main())
