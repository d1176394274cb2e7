"""Interface system: abstract data type signatures and structural conformance."""

from .conformance import (
    check_conforms,
    check_implements,
    conformance_gaps,
    conforms,
    operation_compatible,
)
from .interface import Interface, Operation, is_operation, operation

__all__ = [
    "Interface", "Operation", "check_conforms", "check_implements",
    "conformance_gaps", "conforms", "is_operation", "operation",
    "operation_compatible",
]
