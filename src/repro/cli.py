"""Command-line interface: run experiments and demos without writing code.

::

    python -m repro list                 # experiments available
    python -m repro run e2               # one experiment, table on stdout
    python -m repro run e3 --seed 9      # reseeded
    python -m repro all                  # the whole evaluation
    python -m repro bench e18 --json     # exact BENCH record (CI diffs it)
    python -m repro demo                 # 30-second tour
"""

from __future__ import annotations

import argparse
import json
import sys

from .bench import experiments
from .bench.render import render_table


def _registry() -> dict:
    """Experiment id ("e1"…) → module."""
    table = {}
    for module in experiments.ALL:
        short = module.__name__.rsplit(".", 1)[-1].split("_", 1)[0]
        table[short] = module
    return table


def _order(short: str) -> tuple[int, str]:
    """Numeric-then-suffix sort key: e1 < e2 < … < e7 < e7b < e8."""
    digits = "".join(ch for ch in short[1:] if ch.isdigit())
    return (int(digits) if digits else 0, short)


def cmd_list(_args) -> int:
    """Print every experiment id and title."""
    for short, module in sorted(_registry().items(),
                                key=lambda item: _order(item[0])):
        print(f"{short:>4}  {module.TITLE}")
    return 0


def cmd_run(args) -> int:
    """Run one experiment and print its table."""
    registry = _registry()
    module = registry.get(args.experiment)
    if module is None:
        print(f"unknown experiment {args.experiment!r}; "
              f"known: {sorted(registry, key=_order)}", file=sys.stderr)
        return 2
    import inspect
    accepted = inspect.signature(module.run).parameters
    kwargs = {}
    if args.seed is not None and "seed" in accepted:
        kwargs["seed"] = args.seed
    if args.ops is not None:
        if "ops" not in accepted:
            print(f"note: {args.experiment} does not take --ops; ignored",
                  file=sys.stderr)
        else:
            kwargs["ops"] = args.ops
    rows = module.run(**kwargs)
    if args.json:
        # Stable, machine-diffable form: the determinism CI gate runs an
        # experiment twice with one seed and fails on any byte difference.
        print(json.dumps(rows, indent=2, sort_keys=True))
    else:
        print(render_table(rows, module.TITLE))
    return 0


def cmd_all(args) -> int:
    """Run the full evaluation suite."""
    for short, module in sorted(_registry().items(),
                                key=lambda item: _order(item[0])):
        rows = module.run()
        print(render_table(rows, module.TITLE))
        print()
    return 0


def _bench_registry() -> dict:
    """Benchmark id → experiment module shipping a ``bench_payload``.

    A bench module provides ``bench_payload(**kwargs) -> dict`` (the
    machine-readable BENCH record), ``bench_rows(payload) -> list`` (its
    table form), and optionally ``bench_footer(payload) -> str``.
    """
    from .bench import simwall
    from .bench.experiments import (
        e10_marshalling,
        e18_fastpath,
        e19_sharding,
        e20_admission,
        e21_regions,
    )
    return {"e10": e10_marshalling, "e18": e18_fastpath,
            "e19": e19_sharding, "e20": e20_admission,
            "e21": e21_regions, "simwall": simwall}


def cmd_bench(args) -> int:
    """Gated benchmarks: exact records of virtual-time workloads.

    ``python -m repro bench e18 --json > BENCH_e18.json`` (likewise every
    other id) produces the machine-readable record CI compares with the
    committed one by ``diff``.  Determinism discipline matches
    ``simtest --json``: every field is virtual-time arithmetic on seeded
    streams (virtual times, message counts, trace fingerprints, battery
    digests), so the record is byte-identical across runs and machines;
    all but ``e21`` also run each workload twice and assert the two
    agree.  Host wall time is measured by ``benchmarks/perf``.
    """
    registry = _bench_registry()
    module = registry.get(args.benchmark)
    if module is None:
        print(f"unknown benchmark {args.benchmark!r}; known: "
              f"{sorted(registry)}", file=sys.stderr)
        return 2
    kwargs = {}
    if args.ops is not None:
        kwargs["ops"] = args.ops
    if args.seed is not None:
        kwargs["seed"] = args.seed
    payload = module.bench_payload(**kwargs)
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(render_table(module.bench_rows(payload), module.TITLE))
        footer = getattr(module, "bench_footer", None)
        if footer is not None:
            print(footer(payload))
    return 0


def cmd_simtest(args) -> int:
    """Deterministic sim-chaos with a linearizability verdict.

    Three modes: ``--replay FILE...`` re-runs recorded cases verbatim,
    one line per file, ``--seeds N`` sweeps a seed battery across
    policies, and the default runs one ``--seed``.  Exit status 1 on any
    violation, on any case the checker could not settle within its budget
    (``unknown``; both kinds are named on stdout), or on any unmet replay
    expectation — so CI can gate on it directly.  ``--json`` replays one
    file only (exit 2 otherwise): its report is the whole output.
    """
    from .simtest import build_case, run_battery, run_case
    from .simtest.runner import replay, report_json
    from .simtest.workload import FAULT_MENUS, SHIPPED_POLICIES

    minimize = not args.no_minimize
    consistency = args.consistency or "linearizable"
    if args.replay is not None:
        if args.json and len(args.replay) > 1:
            print("--json replays one file; got "
                  f"{len(args.replay)}", file=sys.stderr)
            return 2
        unmet = 0
        for path in args.replay:
            with open(path, encoding="utf-8") as handle:
                data = json.load(handle)
            # An explicit --consistency overrides the corpus record's pin.
            report = replay(data, minimize=minimize,
                            consistency=args.consistency)
            expect = data.get("expect")
            if args.json:
                print(report_json(report))
            else:
                print(f"replay {path}: verdict={report.verdict}"
                      + (f" expect={expect}" if expect else ""))
            unmet += report.verdict != (expect if expect is not None
                                        else "ok")
        return 1 if unmet else 0

    policies = (list(SHIPPED_POLICIES) if args.policy == "all"
                else [args.policy])
    unknown = [p for p in policies if p not in FAULT_MENUS]
    if unknown:
        print(f"unknown policy {unknown[0]!r}; known: "
              f"{sorted(FAULT_MENUS)}", file=sys.stderr)
        return 2

    if args.seeds is not None:
        summary = run_battery(range(args.seeds), policies=policies,
                              service=args.service, ops=args.ops,
                              clients=args.clients, minimize=minimize,
                              consistency=consistency)
        if args.json:
            print(json.dumps(summary, indent=2, sort_keys=True))
        else:
            for policy, counts in sorted(summary["per_policy"].items()):
                print(f"{policy:>12}: {counts['ok']}/{counts['cases']} ok")
            for label, cases in (
                    ("violation(s)",
                     [entry["case"] for entry in summary["violations"]]),
                    ("unknown (checker budget exhausted)",
                     summary["unknown"])):
                if cases:
                    print(f"{len(cases)} {label}:")
                    for case in cases:
                        print(f"  {json.dumps(case, sort_keys=True)}")
        return 1 if summary["violations"] or summary["unknown"] else 0

    failed = 0
    for policy in policies:
        case = build_case(args.seed, policy, service=args.service,
                          ops=args.ops, clients=args.clients)
        report = run_case(case, minimize=minimize, consistency=consistency)
        if args.json:
            print(report_json(report))
        else:
            line = (f"seed={case.seed} policy={case.policy} "
                    f"service={case.service} ops={case.ops} "
                    f"faults={len(case.faults)}")
            if consistency != "linearizable":
                line += f" consistency={consistency}"
            line += f": {report.verdict}"
            if report.minimized is not None:
                line += (f" (minimized to {report.minimized.ops} ops / "
                         f"{len(report.minimized.faults)} faults, "
                         f"confirmed={report.confirmed})")
            print(line)
        if report.verdict != "ok":
            failed += 1
    return 1 if failed else 0


def cmd_demo(_args) -> int:
    """A self-contained tour of the library."""
    import repro
    from repro.apps.kv import CachedKVStore

    print("building a 3-node system …")
    system = repro.make_system(seed=1)
    server = system.add_node("server").create_context("main")
    east = system.add_node("east").create_context("main")
    west = system.add_node("west").create_context("main")
    repro.install_name_service(server)
    repro.register(server, "kv", CachedKVStore())

    east_kv = repro.bind(east, "kv")
    west_kv = repro.bind(west, "kv")
    print(f"east bound a {type(east_kv).__name__} "
          "(the service chose the policy)")

    east_kv.put("motd", "proxies are the only access path")
    print(f"west reads: {west_kv.get('motd')!r}")
    t0 = west.now
    west_kv.get("motd")
    print(f"west re-reads from cache in {(west.now - t0) * 1e6:.1f} µs")

    east_kv.put("motd", "and the service can change its protocol")
    print(f"west after east's write: {west_kv.get('motd')!r} "
          "(cache invalidated by the server)")

    repro.assert_principle(system)
    print("principle audit: clean — try `python -m repro run e5` next")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Proxy-principle reproduction: experiments and demos.")
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list experiments").set_defaults(
        func=cmd_list)
    run_parser = commands.add_parser("run", help="run one experiment")
    run_parser.add_argument("experiment", help="experiment id, e.g. e2")
    run_parser.add_argument("--seed", type=int, default=None)
    run_parser.add_argument("--ops", type=int, default=None)
    run_parser.add_argument("--json", action="store_true",
                            help="emit rows as sorted JSON instead of a table")
    run_parser.set_defaults(func=cmd_run)
    commands.add_parser("all", help="run every experiment").set_defaults(
        func=cmd_all)
    bench_parser = commands.add_parser(
        "bench", help="gated benchmark record (exact, virtual time)")
    bench_parser.add_argument("benchmark",
                              help="benchmark id: e10, e18, e19, e20, "
                                   "e21 or simwall")
    bench_parser.add_argument("--ops", type=int, default=None)
    bench_parser.add_argument("--seed", type=int, default=None)
    bench_parser.add_argument("--json", action="store_true",
                              help="emit the BENCH record as sorted JSON")
    bench_parser.set_defaults(func=cmd_bench)
    sim_parser = commands.add_parser(
        "simtest", help="deterministic sim-chaos + linearizability check")
    sim_parser.add_argument("--seed", type=int, default=0,
                            help="single-case seed (default 0)")
    sim_parser.add_argument("--seeds", type=int, default=None,
                            help="battery mode: sweep seeds 0..N-1")
    sim_parser.add_argument("--ops", type=int, default=30)
    sim_parser.add_argument("--clients", type=int, default=3)
    sim_parser.add_argument("--policy", default="all",
                            help='policy name or "all" (every shipped '
                                 'policy)')
    sim_parser.add_argument("--service", default=None,
                            help="kv|counter|lock|queue|bank (default: by "
                                 "seed; bank is pinned for the bank "
                                 "policies)")
    sim_parser.add_argument("--json", action="store_true",
                            help="emit the full report as sorted JSON")
    sim_parser.add_argument(
        "--consistency", default=None,
        choices=("linearizable", "sequential", "causal",
                 "read-your-writes"),
        help="checker mode to grade against (default: linearizable, or "
             "the mode a replayed corpus record pins)")
    sim_parser.add_argument("--replay", default=None, metavar="FILE",
                            nargs="+",
                            help="re-run recorded case JSON files verbatim")
    sim_parser.add_argument("--no-minimize", action="store_true",
                            help="skip shrinking violating cases")
    sim_parser.set_defaults(func=cmd_simtest)
    commands.add_parser("demo", help="30-second tour").set_defaults(
        func=cmd_demo)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
