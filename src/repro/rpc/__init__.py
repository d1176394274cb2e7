"""RPC substrate: transport, dispatcher, request/reply protocol, stubs."""

from .dispatcher import Dispatcher, ExportEntry, ensure_dispatcher
from .lightweight import lrpc_disabled
from .promises import Promise, call_async, gather, pipeline_calls
from .protocol import RemoteError, RpcProtocol
from .stubs import RemoteStub
from .transport import Transport

__all__ = [
    "Dispatcher", "ExportEntry", "Promise", "RemoteError", "RemoteStub",
    "RpcProtocol", "Transport", "call_async", "ensure_dispatcher",
    "gather", "lrpc_disabled", "pipeline_calls",
]
