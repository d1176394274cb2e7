"""Structural conformance (subtyping) between interfaces.

Following the abstract-data-type school the paper belongs to: interface
``A`` *conforms to* ``B`` iff ``A`` provides at least the operations of
``B``, with compatible parameter lists.  Conformance is a relation between
interfaces, not classes — no inheritance link is required.

The export machinery uses :func:`check_implements` at export time so that a
service which claims an interface actually honours it, turning would-be
run-time dispatch errors into export-time errors (the paper's community
cared about this: run-time type errors clash with distribution transparency).
"""

from __future__ import annotations

from types import FunctionType

from ..kernel.errors import ConformanceError
from .interface import Interface, Operation, is_operation, _positional_params


def operation_compatible(provided: Operation, required: Operation) -> bool:
    """Whether ``provided`` can stand in for ``required``.

    Parameter lists must agree in length (names are documentation); a
    provided operation may not be *less* capable: if the requirement is
    declared readonly the provider must be readonly too (a client holding a
    readonly view must not observe mutation).
    """
    if provided.name != required.name:
        return False
    if len(provided.params) != len(required.params):
        return False
    if required.readonly and not provided.readonly:
        return False
    return True


def conforms(candidate: Interface, requirement: Interface) -> bool:
    """Whether ``candidate`` conforms to (is a subtype of) ``requirement``."""
    return not conformance_gaps(candidate, requirement)


def conformance_gaps(candidate: Interface, requirement: Interface) -> list[str]:
    """Human-readable reasons why ``candidate`` fails to conform (empty = ok)."""
    gaps = []
    for name, required in requirement.operations.items():
        provided = candidate.operations.get(name)
        if provided is None:
            gaps.append(f"missing operation {name!r}")
        elif not operation_compatible(provided, required):
            gaps.append(
                f"operation {name!r} incompatible: provided "
                f"params={provided.params} readonly={provided.readonly}, "
                f"required params={required.params} readonly={required.readonly}")
    return gaps


def check_conforms(candidate: Interface, requirement: Interface) -> None:
    """Raise :class:`ConformanceError` unless ``candidate`` conforms."""
    gaps = conformance_gaps(candidate, requirement)
    if gaps:
        raise ConformanceError(
            f"{candidate.name!r} does not conform to {requirement.name!r}: "
            + "; ".join(gaps))


def check_implements(obj: object, declared: Interface) -> None:
    """Raise unless ``obj`` structurally implements ``declared``.

    Checks method presence and arity directly on the instance, per
    export, so it also catches an instance that shadows its class's method
    (with a non-callable, or a callable of another arity) and a method
    replaced since the last export.  What it does not redo per export is
    reflection: an ``@operation`` function remembers its own signature
    (:func:`~repro.iface.interface._positional_params`).  Nor is the walk
    redone while ``declared`` holds a verdict for the class (the functions
    verified on an unshadowed instance), the class resolves each to the
    identical object, the instance shadows none, and the class keeps
    ``object.__getattribute__``.
    """
    klass = type(obj)
    verified = declared.verified.get(klass)
    shadow = getattr(obj, "__dict__", {})
    plain = klass.__getattribute__ is object.__getattribute__
    if verified is not None and plain:
        for name, member in verified:
            if getattr(klass, name, None) is not member or name in shadow:
                break
        else:
            return
    gaps = []
    for name, required in declared.operations.items():
        member = getattr(obj, name, None)
        if member is None or not callable(member):
            gaps.append(f"missing method {name!r}")
            continue
        if not is_operation(getattr(type(obj), name, member)):
            gaps.append(f"method {name!r} exists but is not marked @operation")
            continue
        params = _positional_params(member)
        if len(params) != len(required.params):
            gaps.append(
                f"method {name!r} takes {len(params)} parameters, "
                f"interface declares {len(required.params)}")
    if gaps:
        raise ConformanceError(
            f"{type(obj).__name__!r} does not implement {declared.name!r}: "
            + "; ".join(gaps))
    members = tuple((name, getattr(klass, name, None))
                    for name in declared.operations)
    if plain and shadow.keys().isdisjoint(declared.operations) and all(
            member.__class__ is FunctionType for _, member in members):
        declared.verified[klass] = members
