"""The simulation-test runner: seed in, verdict out, JSON all the way.

A :class:`SimCase` is the complete, serialisable description of one run:
seed, policy, service, op/client counts, and the chaos fault list.  The
same case always produces byte-identical history JSON (the determinism
tests and the CI double-run gate hold the harness to that).

:func:`run_case` executes one case, checks the history against the
service's model, and — on a violation — minimizes the case and re-runs
the minimized form to confirm it.  :func:`run_battery` sweeps seeds ×
policies (the smoke gate).  :func:`replay` re-runs a case parsed from
JSON (the regression corpus format, see ``tests/simtest/regressions/``).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace

from ..failures.schedule import ChaosSchedule, Fault
from .checker import CheckResult, Violation, check_history
from .history import History
from .minimize import minimize_case
from .models import MODELS
from .workload import (
    AUDIT_ONLY_POLICIES,
    BANK_POLICIES,
    COLLAPSE_SLO,
    FAULT_MENUS,
    SERVICE_CYCLE,
    SHIPPED_POLICIES,
    deploy,
    drive,
    topology,
)

#: Default operation count per case (small: the checker is exponential in
#: concurrent overlap, and violations show up early under contention).
DEFAULT_OPS = 30

#: Default client (driver concurrency) count per case.
DEFAULT_CLIENTS = 3


@dataclass(frozen=True)
class SimCase:
    """One fully-specified simulation run (serialisable, replayable)."""

    seed: int
    policy: str
    service: str
    ops: int = DEFAULT_OPS
    clients: int = DEFAULT_CLIENTS
    faults: tuple[Fault, ...] = ()

    def with_faults(self, faults: tuple[Fault, ...]) -> "SimCase":
        """The same case with a different fault list (minimizer hook)."""
        return replace(self, faults=tuple(faults))

    def with_ops(self, ops: int) -> "SimCase":
        """The same case truncated to ``ops`` operations."""
        return replace(self, ops=int(ops))

    def schedule(self) -> ChaosSchedule | None:
        """The case's chaos schedule over its topology (None = fault-free)."""
        if not self.faults:
            return None
        servers, clients = topology(self.policy, self.clients)
        return ChaosSchedule(faults=self.faults,
                             node_names=tuple(servers + clients))

    def to_json(self) -> dict:
        """Marshal to a plain dict (stable keys)."""
        return {"seed": self.seed, "policy": self.policy,
                "service": self.service, "ops": self.ops,
                "clients": self.clients,
                "faults": [fault.to_json() for fault in self.faults]}

    @classmethod
    def from_json(cls, data: dict) -> "SimCase":
        """Rebuild a case from :meth:`to_json` output."""
        return cls(seed=int(data["seed"]), policy=data["policy"],
                   service=data["service"], ops=int(data["ops"]),
                   clients=int(data["clients"]),
                   faults=tuple(Fault.from_json(item)
                                for item in data.get("faults", [])))


def build_case(seed: int, policy: str, service: str | None = None,
               ops: int = DEFAULT_OPS, clients: int = DEFAULT_CLIENTS,
               chaos: bool = True) -> SimCase:
    """Derive a case from a seed: service rotation plus a sampled schedule.

    The chaos schedule is drawn from the policy's fault menu
    (:data:`~repro.simtest.workload.FAULT_MENUS`) with a generator seeded
    from ``(seed, policy, service)`` alone — no global state, so the same
    arguments always yield the same case.
    """
    if service is None:
        # The bank policies only make sense over the bank workload; every
        # other policy rotates through the ordinary services.
        if policy in BANK_POLICIES:
            service = "bank"
        else:
            service = SERVICE_CYCLE[seed % len(SERVICE_CYCLE)]
    faults: tuple[Fault, ...] = ()
    if chaos:
        servers, client_names = topology(policy, clients)
        rng = random.Random(f"repro.simtest:{seed}:{policy}:{service}")
        faults = ChaosSchedule.generate(
            rng, total_ops=ops, victims=servers,
            all_nodes=servers + client_names,
            kinds=FAULT_MENUS[policy]).faults
    return SimCase(seed=seed, policy=policy, service=service, ops=ops,
                   clients=clients, faults=faults)


@dataclass
class SimReport:
    """Everything one case run produced, JSON-ready."""

    case: SimCase
    verdict: str
    history: History
    fingerprint: str
    streams: tuple[str, ...]
    check: CheckResult
    violation: Violation | None = None
    minimized: SimCase | None = None
    confirmed: bool = False
    stats: dict = field(default_factory=dict)
    consistency: str = "linearizable"

    def to_json(self) -> dict:
        """Marshal with stable keys (dump with ``sort_keys=True``)."""
        return {
            "case": self.case.to_json(),
            "consistency": self.consistency,
            "verdict": self.verdict,
            "history": self.history.to_json(),
            "fingerprint": self.fingerprint,
            "streams": list(self.streams),
            "explored": self.check.explored,
            "capped": self.check.capped,
            "partitions": self.check.partitions,
            "violation": (None if self.violation is None
                          else self.violation.to_json()),
            "minimized": (None if self.minimized is None
                          else self.minimized.to_json()),
            "confirmed": self.confirmed,
            "stats": self.stats,
        }


def execute(case: SimCase) -> tuple[History, object]:
    """Deploy and drive one case; returns ``(history, deployment)``.

    The deployment rides along because grading can need more than the
    history: the bank policies carry a post-run atomicity audit
    (``deployment.grade``) that inspects the healed system.
    """
    deployment = deploy(case)
    history = drive(deployment, case, case.schedule())
    return history, deployment


def _slowest(history: History) -> tuple:
    """``(latency, op)`` of the first completed op with the worst latency
    (invoke → complete); ``(0.0, None)`` when nothing completed."""
    worst = max((op for op in history if op.complete is not None),
                key=lambda op: op.complete - op.invoke, default=None)
    if worst is None:
        return 0.0, None
    return worst.complete - worst.invoke, worst


def _collapse_violation(case: SimCase, slowest: tuple) -> Violation | None:
    """Convict an overload deployment whose completions blew the SLO.

    Only the policies in :data:`~repro.simtest.workload.COLLAPSE_SLO` are
    graded.  The criterion is the worst *completed* operation's latency
    (``slowest``, from :func:`_slowest`), not the failure count: a
    shedless server under a burst still answers everything — eventually —
    so its anomaly is never a wrong value, only a departure time far
    beyond what a bounded queue permits.  The synthetic
    :class:`Violation` carries the offending op so minimized corpus
    records stay self-describing.
    """
    slo = COLLAPSE_SLO.get(case.policy)
    latency, worst = slowest
    if slo is None or latency <= slo:
        return None
    return Violation(partition="overload-collapse", ops=[worst.to_json()],
                     longest_prefix=-1)


def _grade(case: SimCase, history: History, deployment, slowest: tuple,
           max_nodes: int, consistency: str
           ) -> tuple[CheckResult, str, Violation | None]:
    """One run's ``(check, verdict, violation)``, for the report and the
    minimizer alike.

    The checker's violation wins (it names the stronger anomaly); else an
    overload deployment whose completions blew the latency bound, else a
    bank deployment that failed the completes-or-compensates audit, is
    convicted; else the checker's ``ok`` or ``unknown`` stands.
    """
    if case.policy in AUDIT_ONLY_POLICIES:
        # Sagas expose intermediate states by contract; their verdict is
        # the atomicity audit alone (see AUDIT_ONLY_POLICIES).
        check = CheckResult(True)
    else:
        check = check_history(history, MODELS[case.service](), max_nodes,
                              consistency=consistency)
    if check.verdict == "violation":
        return check, "violation", check.violation
    conviction = _collapse_violation(case, slowest)
    if conviction is None and deployment.grade is not None:
        conviction = deployment.grade()
    if conviction is not None:
        return check, "violation", conviction
    return check, check.verdict, check.violation


def _violates(case: SimCase, max_nodes: int,
              consistency: str = "linearizable") -> bool:
    history, deployment = execute(case)
    _, verdict, _ = _grade(case, history, deployment, _slowest(history),
                           max_nodes, consistency)
    return verdict == "violation"


def run_case(case: SimCase, minimize: bool = True,
             max_nodes: int | None = None,
             consistency: str = "linearizable") -> SimReport:
    """Run one case end-to-end: execute, check, minimize, confirm.

    ``consistency`` picks the checker mode the verdict is graded against
    (:data:`~repro.simtest.checker.CONSISTENCY_MODES`).
    """
    from .checker import DEFAULT_MAX_NODES
    budget = max_nodes if max_nodes is not None else DEFAULT_MAX_NODES
    history, deployment = execute(case)
    system = deployment.system
    slowest = _slowest(history)
    check, verdict, violation = _grade(case, history, deployment, slowest,
                                       budget, consistency)
    rpc = system.rpc.stats if system.rpc is not None else {}
    report = SimReport(
        case=case, verdict=verdict, history=history,
        consistency=consistency,
        fingerprint=system.trace.fingerprint(),
        streams=system.seeds.streams_used(), check=check,
        violation=violation,
        stats={"ops": len(history),
               "ok": sum(1 for op in history if op.status == "ok"),
               "maybe": sum(1 for op in history if op.status == "maybe"),
               "fail": sum(1 for op in history if op.status == "fail"),
               "max_op_latency": round(slowest[0], 9),
               "rpc_calls": rpc.get("calls", 0),
               "rpc_retries": rpc.get("retries", 0),
               "rpc_timeouts": rpc.get("timeouts", 0)})
    if verdict == "violation" and minimize:
        minimized = minimize_case(
            case, lambda c: _violates(c, budget, consistency))
        report.minimized = minimized
        report.confirmed = _violates(minimized, budget, consistency)
    return report


def run_battery(seeds, policies=SHIPPED_POLICIES, service: str | None = None,
                ops: int = DEFAULT_OPS, clients: int = DEFAULT_CLIENTS,
                minimize: bool = False,
                max_nodes: int | None = None,
                consistency: str = "linearizable") -> dict:
    """Sweep seeds × policies; returns a JSON-ready summary.

    ``violations`` carries one entry per convicted case (with the
    minimized reproduction when ``minimize`` is set); ``unknown`` lists
    cases whose checker search hit its budget — both empty on a clean run.
    """
    summary: dict = {"cases": 0, "violations": [], "unknown": [],
                     "consistency": consistency, "per_policy": {}}
    for policy in policies:
        counts = {"cases": 0, "ok": 0}
        for seed in seeds:
            case = build_case(seed, policy, service=service, ops=ops,
                              clients=clients)
            report = run_case(case, minimize=minimize, max_nodes=max_nodes,
                              consistency=consistency)
            summary["cases"] += 1
            counts["cases"] += 1
            if report.verdict == "ok":
                counts["ok"] += 1
            elif report.verdict == "violation":
                entry = {"case": case.to_json(),
                         "violation": report.violation.to_json()}
                if report.minimized is not None:
                    entry["minimized"] = report.minimized.to_json()
                    entry["confirmed"] = report.confirmed
                summary["violations"].append(entry)
            else:
                summary["unknown"].append(case.to_json())
        summary["per_policy"][policy] = counts
    return summary


def replay(data: dict, minimize: bool = False,
           max_nodes: int | None = None,
           consistency: str | None = None) -> SimReport:
    """Re-run a case parsed from JSON (the regression-corpus entry point).

    ``data`` is either a bare case (:meth:`SimCase.to_json`) or a corpus
    record ``{"case": {...}, "expect": "ok" | "violation", ...}``; the
    caller compares ``report.verdict`` against its expectation.  The
    record may pin a ``"consistency"`` mode (a corpus entry can grade a
    policy against its actual, weaker contract); an explicit
    ``consistency`` argument overrides it.
    """
    case = SimCase.from_json(data.get("case", data))
    if consistency is None:
        consistency = data.get("consistency", "linearizable")
    return run_case(case, minimize=minimize, max_nodes=max_nodes,
                    consistency=consistency)


def report_json(report: SimReport) -> str:
    """The byte-stable JSON form of a report (the CLI's ``--json``)."""
    return json.dumps(report.to_json(), indent=2, sort_keys=True)
