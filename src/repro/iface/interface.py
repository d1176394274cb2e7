"""Interfaces: abstract data type signatures.

The paper's object model (and the distributed OO literature around it —
Emerald, ANSA) is built on *abstract data types*: an object's external
behaviour is its set of operations.  Proxies export an interface, and the
service behind them implements (at least) that interface — structural
*conformance*, not class inheritance, is the relation that matters
(:mod:`repro.iface.conformance`).

Operation metadata matters to smart proxies:

* ``readonly`` — the operation does not mutate the object; caching proxies
  may answer it from a cache and replicating proxies from any replica.
* ``oneway`` — no reply expected; fire-and-forget.
* ``invalidates`` — keys of cached entries this operation invalidates
  (``"*"`` means all); used by the caching policy's write handling.

A signature is a fact about a *function*: it is reflected on the first
time anyone asks (:meth:`Interface.of`, once per class, or
:func:`~repro.iface.conformance.check_implements`, once per export) and
kept on the function beside the metadata ``@operation`` put there.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from types import FunctionType, MethodType
from typing import Callable

from ..kernel.errors import InterfaceError

_OPERATION_ATTR = "_repro_operation"
_PARAMS_ATTR = "_repro_params"


@dataclass(frozen=True)
class Operation:
    """One operation in an interface signature.

    Attributes:
        name: operation name (the verb used on the wire).
        params: positional parameter names, excluding the receiver.
        readonly: see module docstring.
        oneway: see module docstring.
        invalidates: see module docstring.
        compute: virtual CPU seconds one execution costs on the server
            (drives the cost model; 0 means "negligible").
    """

    name: str
    params: tuple[str, ...] = ()
    readonly: bool = False
    oneway: bool = False
    invalidates: tuple[str, ...] = ()
    compute: float = 0.0


class Interface:
    """A named set of operations — an abstract data type signature."""

    def __init__(self, name: str, operations: list[Operation]):
        self.name = name
        #: class → the operations ``check_implements`` verified on it.
        self.verified: dict[type, tuple] = {}
        self.operations: dict[str, Operation] = {}
        for op in operations:
            if op.name.startswith(("_", "proxy_")) or op.name == "invoke":
                # ``invoke`` is the one unprefixed proxy method left.
                raise InterfaceError(
                    f"operation {op.name!r} in {name!r}: '_', 'proxy_' "
                    "and 'invoke' name a proxy's own attributes, never a "
                    "verb")
            if op.name in self.operations:
                raise InterfaceError(f"duplicate operation {op.name!r} in {name!r}")
            self.operations[op.name] = op

    def operation(self, verb: str) -> Operation:
        """Look up an operation; raises :class:`InterfaceError` if absent."""
        try:
            return self.operations[verb]
        except KeyError:
            raise InterfaceError(
                f"interface {self.name!r} has no operation {verb!r}; "
                f"it declares {sorted(self.operations)}") from None

    def __contains__(self, verb: str) -> bool:
        return verb in self.operations

    def names(self) -> list[str]:
        """All operation names, sorted."""
        return sorted(self.operations)

    def __repr__(self) -> str:
        return f"Interface({self.name!r}, ops={self.names()})"

    # -- derivation from decorated classes -----------------------------------

    @classmethod
    def of(cls, klass: type) -> "Interface":
        """Derive the interface from a class with ``@operation`` methods.

        The result is cached on the class (``__repro_interface__``).
        """
        cached = klass.__dict__.get("__repro_interface__")
        if cached is not None:
            return cached
        ops = []
        for name in dir(klass):
            member = getattr(klass, name, None)
            meta = getattr(member, _OPERATION_ATTR, None)
            if meta is None:
                continue
            params = _positional_params(member)
            # A function in a class body is called through an instance,
            # which binds its first parameter whatever it is named; a
            # staticmethod (the same bare function from here) keeps all.
            if isinstance(inspect.getattr_static(klass, name), FunctionType):
                params = params[1:]
            ops.append(Operation(name=name, params=params, **meta))
        if not ops:
            raise InterfaceError(
                f"class {klass.__name__!r} declares no @operation methods")
        iface = cls(klass.__name__, ops)
        setattr(klass, "__repro_interface__", iface)
        return iface


def operation(func: Callable | None = None, *, readonly: bool = False,
              oneway: bool = False, invalidates: tuple[str, ...] = (),
              compute: float = 0.0):
    """Mark a method as part of its class's exported interface.

    Usable bare (``@operation``) or with keyword arguments
    (``@operation(readonly=True)``).  ``compute`` must be a number
    ``>= 0``: it is charged to the serving context's clock as it stands.
    """
    if compute.__class__ not in (int, float) or not compute >= 0:
        raise InterfaceError(
            f"operation compute must be a number >= 0, not {compute!r}")
    meta = {"readonly": readonly, "oneway": oneway,
            "invalidates": tuple(invalidates), "compute": compute}

    def mark(fn: Callable) -> Callable:
        setattr(fn, _OPERATION_ATTR, meta)
        return fn

    if func is not None:
        return mark(func)
    return mark


def is_operation(member) -> bool:
    """Whether a class member was marked with :func:`operation`."""
    return getattr(member, _OPERATION_ATTR, None) is not None


def _positional_params(member: Callable) -> tuple[str, ...]:
    """Positional parameter names ``member`` takes when called.

    An ``@operation`` function, reached bare or as a bound method, is
    reflected on once and remembers the answer (a bound method drops the
    receiver by position); a replaced method is a new function, and any
    other callable is reflected on afresh.
    """
    bound = isinstance(member, MethodType)
    func = member.__func__ if bound else member
    if not (isinstance(func, FunctionType) and is_operation(func)):
        return _reflect(member)
    params = func.__dict__.get(_PARAMS_ATTR)
    if params is None:
        params = func.__dict__[_PARAMS_ATTR] = _reflect(func)
    return params[1:] if bound else params


def _reflect(func: Callable) -> tuple[str, ...]:
    """Positional parameter names of a signature (none if unreadable)."""
    try:
        sig = inspect.signature(func)
    except (TypeError, ValueError):
        return ()
    return tuple(param.name for param in sig.parameters.values()
                 if param.kind in (inspect.Parameter.POSITIONAL_ONLY,
                                   inspect.Parameter.POSITIONAL_OR_KEYWORD))
