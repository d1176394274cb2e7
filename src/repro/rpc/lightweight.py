"""Lightweight-RPC helpers (cf. Bershad et al., SOSP 1989).

The observation the LRPC work made — most invocations in practice are local —
is implemented in :class:`~repro.rpc.protocol.RpcProtocol` as the
same-context fast path.  This module provides the experiment toggle used by
E8.
"""

from __future__ import annotations

from contextlib import contextmanager


@contextmanager
def lrpc_disabled(protocol):
    """Temporarily force every call onto the full marshalling path.

    Used by the E8 bench to measure what the fast path saves; real systems
    cannot turn it off, which is rather the point.
    """
    previous = protocol.lrpc_enabled
    protocol.lrpc_enabled = False
    try:
        yield protocol
    finally:
        protocol.lrpc_enabled = previous
