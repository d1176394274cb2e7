"""Workload generation: key distributions, sessions, interleaving driver,
and open-loop arrival processes."""

from .arrivals import (
    DiurnalShape,
    OpenLoopResult,
    SpikeShape,
    merge_arrivals,
    poisson_arrivals,
    run_open_loop,
    shaped_arrivals,
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
    "DiurnalShape", "HotspotSampler", "OpMix", "OpenLoopResult", "RunResult",
    "Session", "SpikeShape", "UniformSampler", "ZipfSampler", "dsm_session",
    "key_name", "merge_arrivals", "payload", "poisson_arrivals",
    "proxy_session", "run_interleaved", "run_open_loop", "shaped_arrivals",
]
