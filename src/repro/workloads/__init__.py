"""Workload generation: key distributions, sessions, interleaving driver,
and open-loop arrival processes."""

from .arrivals import (
    OpenLoopResult,
    merge_arrivals,
    poisson_arrivals,
    run_open_loop,
)
from .distributions import (
    HotspotSampler,
    UniformSampler,
    ZipfSampler,
    key_name,
    payload,
)
from .sessions import (
    OpMix,
    RunResult,
    Session,
    dsm_session,
    proxy_session,
    run_interleaved,
)

__all__ = [
    "HotspotSampler", "OpMix", "OpenLoopResult", "RunResult", "Session",
    "UniformSampler", "ZipfSampler", "dsm_session", "key_name",
    "merge_arrivals", "payload", "poisson_arrivals", "proxy_session",
    "run_interleaved", "run_open_loop",
]
