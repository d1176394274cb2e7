"""Resilience: backoff, deadlines, circuit breakers, and failover.

The primitives that keep a proxy useful when the network is lossy and nodes
crash — each one client-side distribution policy in the paper's sense,
packaged so services can ship them inside the proxies they choose:

* :class:`RetryPolicy` — the pluggable retransmission schedule behind
  :meth:`repro.rpc.protocol.RpcProtocol.call` (fixed = the 1984 discipline,
  exponential-with-jitter = the modern one), honouring a shedding server's
  retry-after hint;
* :class:`Deadline` — an absolute virtual-time budget that travels in frame
  headers, stopping nested call chains from retrying past the root caller's
  patience;
* :class:`CircuitBreaker` / :class:`BreakerRegistry` — per caller→target
  fail-fast gates fed by RPC outcomes, exchanged with the failure detector;
* :class:`LinkEstimator` / :class:`LatencyTracker` — Jacobson RTT EWMAs per
  caller→target link, fed by RPC outcomes, behind adaptive retry patience,
  hedge delays, and derived deadline budgets;
* :class:`ResilientProxy` / :func:`resilient_group` — the policy that
  composes all of the above with read failover, hedged reads and graceful
  degradation.

Attributes resolve lazily (PEP 562): the RPC layer imports
``repro.resilience.deadline`` while ``repro`` itself is still initialising,
so this ``__init__`` must not eagerly pull in :mod:`repro.metrics` (via the
breaker) or :mod:`repro.core` (via the policy).
"""

from __future__ import annotations

from importlib import import_module

#: Public name -> defining submodule.
_EXPORTS = {
    "CLOSED": "breaker",
    "HALF_OPEN": "breaker",
    "OPEN": "breaker",
    "BreakerRegistry": "breaker",
    "CircuitBreaker": "breaker",
    "ensure_breakers": "breaker",
    "DEADLINE_HEADER": "deadline",
    "Deadline": "deadline",
    "LatencyTracker": "latency",
    "LinkEstimator": "latency",
    "ensure_latency": "latency",
    "ResilientProxy": "policy",
    "resilient_group": "policy",
    "DEFAULT_RETRY": "retry",
    "RetryPolicy": "retry",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # cache: resolve each name once
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
