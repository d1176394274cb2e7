"""Wire substrate: object references, marshalling, and message frames."""

from .frames import EXCEPTION, ONEWAY, REPLY, REQUEST, Frame
from .marshal import PLAIN, DecoderHook, EncoderHook, Marshaller
from .refs import ObjectRef, OidMinter
from .segments import WireMessage

__all__ = [
    "EXCEPTION", "Frame", "Marshaller", "ONEWAY",
    "ObjectRef", "OidMinter", "PLAIN", "REPLY", "REQUEST",
    "DecoderHook", "EncoderHook", "WireMessage",
]
