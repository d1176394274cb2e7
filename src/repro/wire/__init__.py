"""Wire substrate: object references, marshalling, and message frames."""

from .frames import EXCEPTION, ONEWAY, REPLY, REQUEST, Frame
from .marshal import PLAIN, DecoderHook, EncoderHook, Marshaller, WireMessage
from .refs import ObjectRef, OidMinter

__all__ = [
    "EXCEPTION", "Frame", "Marshaller", "ONEWAY",
    "ObjectRef", "OidMinter", "PLAIN", "REPLY", "REQUEST",
    "DecoderHook", "EncoderHook", "WireMessage",
]
