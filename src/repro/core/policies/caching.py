"""The ``caching`` policy: a proxy that remembers recent results.

The paper's first example of proxy intelligence ("a proxy for a remote file
object may cache recently accessed data to speed up access").  Both halves
of the protocol live in this module — that is the encapsulation point: the
*service* ships the client-side cache **and** installs the server-side
invalidation machinery; clients just call operations.

Client side (:class:`CachingProxy`):

* results of ``readonly`` operations are cached under ``(verb, *args)``;
* hits cost one local call instead of a round trip;
* entries expire after a virtual-time TTL (TTL mode) and/or on invalidation
  messages from the server (invalidation mode);
* the proxy's own writes invalidate affected entries immediately, using the
  operation's ``invalidates`` metadata (conservatively: a mutating operation
  with no metadata flushes the whole cache).

Server side (installed by :meth:`CachingProxy.proxy_on_export`):

* a :class:`CacheControl` side-object where client caches register a
  callback;
* a :class:`CacheCoherence` component hooked into the dispatcher that, after
  every successful mutating operation, broadcasts the invalidated values to
  all registered caches as one-way messages.
"""

from __future__ import annotations

from typing import Any

from ...iface.interface import Operation, operation
from ...kernel.errors import ConfigurationError, DistributionError
from ...wire.refs import ObjectRef
from ..factory import register_policy
from ..proxy import Proxy

#: Default TTL (virtual seconds) when invalidation is not available.
DEFAULT_TTL = 0.05


def invalidated_values(op: Operation, args: tuple, kwargs: dict) -> tuple:
    """Values a mutating operation invalidates, from its metadata.

    ``op.invalidates`` names parameters whose *values* identify the affected
    entries; ``"*"`` (or no metadata at all) means "everything".  A tuple,
    so the invalidation one-way that carries it is pure.
    """
    if not op.invalidates or "*" in op.invalidates:
        return ("*",)
    values = []
    for param in op.invalidates:
        if param in kwargs:
            values.append(kwargs[param])
        elif param in op.params:
            index = op.params.index(param)
            if index < len(args):
                values.append(args[index])
    return tuple(values) or ("*",)


@register_policy
class CachingProxy(Proxy):
    """Read-through cache in front of a remote object."""

    proxy_policy_name = "caching"

    def __init__(self, context, ref, interface, config=None):
        super().__init__(context, ref, interface, config)
        self._cache: dict[tuple, tuple[Any, float]] = {}
        self._callback_obj: "CacheCallback | None" = None
        self._control = None
        # A hit reads only attributes: the cost model is fixed, and the TTL
        # is recomputed where its inputs change (install, register, discard).
        self._hit_cost = context.system.costs.local_call
        self._ttl = self._effective_ttl()
        self.proxy_stats.update(hits=0, misses=0, invalidations=0, writes=0)

    # -- lifecycle -------------------------------------------------------------

    def proxy_install(self) -> None:
        """Register with the server-side invalidation control, if shipped."""
        self._ttl = self._effective_ttl()
        control = self.proxy_config.get("control")
        if control is None or self._control is not None:
            return
        if isinstance(control, ObjectRef):
            control = self.proxy_context.space.bind_ref(control, handshake=False)
        self._callback_obj = CacheCallback(self)
        self.proxy_context.space.export(self._callback_obj)
        try:
            control.register(self._callback_obj)
        except DistributionError:
            self.proxy_context.space.unexport(self._callback_obj)
            self._callback_obj = None
            return
        self._control = control
        self._ttl = self._effective_ttl()

    def proxy_discard(self) -> None:
        """Unregister from the server and drop the callback export."""
        if self._control is not None and self._callback_obj is not None:
            try:
                self._control.unregister(self._callback_obj)
            except DistributionError:
                pass
            self.proxy_context.space.unexport(self._callback_obj)
        self._cache.clear()
        self._control = None
        self._callback_obj = None
        self._ttl = self._effective_ttl()

    def proxy_release(self) -> None:
        """Drop the callback export, which points back at this proxy."""
        super().proxy_release()
        self._callback_obj = None

    # -- invocation ----------------------------------------------------------------

    def invoke(self, verb: str, args: tuple, kwargs: dict) -> Any:
        self.proxy_stats["invocations"] += 1
        op = self.proxy_opcache.get(verb)
        if op is None:
            op = self.proxy_operation(verb)
        if not op.readonly:
            self.proxy_stats["writes"] += 1
            result = self.proxy_remote(verb, args, kwargs)
            self.proxy_cache_invalidate(invalidated_values(op, args, kwargs))
            return result
        if kwargs:
            return self.proxy_remote(verb, args, kwargs)
        key = (verb,) + args
        try:
            cached = self._cache.get(key)
        except TypeError:  # unhashable argument: this read is uncacheable
            self.proxy_stats["misses"] += 1
            return self.proxy_remote(verb, args, kwargs)
        if cached is not None:
            value, stored_at = cached
            ttl = self._ttl
            if ttl is None or self.proxy_context.clock.now - stored_at <= ttl:
                self.proxy_stats["hits"] += 1
                self.proxy_context.charge(self._hit_cost)
                return value
            del self._cache[key]
        self.proxy_stats["misses"] += 1
        value = self.proxy_remote(verb, args, kwargs)
        self._cache[key] = (value, self.proxy_context.clock.now)
        return value

    def _effective_ttl(self) -> float | None:
        """``None`` (no expiry) or virtual seconds ``>= 0``; with no ``ttl``
        key, no expiry once registered, else :data:`DEFAULT_TTL`.  Anything
        else is refused at export, and raises here, at bind or upgrade, not
        at the first hit."""
        if "ttl" not in self.proxy_config:
            return None if self._control is not None else DEFAULT_TTL
        return _checked_ttl(self.proxy_config["ttl"])

    # -- invalidation ------------------------------------------------------------------

    def proxy_cache_invalidate(self, values: tuple) -> int:
        """Drop entries touched by the given values (``("*",)`` = flush all).

        An entry is touched when any invalidated value appears among the
        cached call's arguments.  Returns the number of entries dropped.
        """
        cache = self._cache
        if "*" in values:
            dropped = len(cache)
            cache.clear()
        else:
            # One test per key and value; a key's verb alone touches none.
            victims = []
            for key in cache:
                for value in values:
                    if value in key and (value != key[0]
                                         or key.count(value) > 1):
                        victims.append(key)
                        break
            for key in victims:
                del cache[key]
            dropped = len(victims)
        self.proxy_stats["invalidations"] += dropped
        return dropped

    @property
    def proxy_cache_size(self) -> int:
        """Number of live cached entries."""
        return len(self._cache)

    # -- server-side installation ----------------------------------------------------------

    @classmethod
    def proxy_on_export(cls, space, entry) -> None:
        """Install the invalidation control next to the exported object,
        once the configured ``ttl`` is one every proxy will accept."""
        if "ttl" in entry.policy_config:
            _checked_ttl(entry.policy_config["ttl"])
        if not entry.policy_config.get("invalidation", True):
            return
        control = CacheControl()
        control_ref = space.export(control)
        entry.policy_config["control"] = control_ref
        entry.mutation_hooks.append(CacheCoherence(control, entry.interface))


def _checked_ttl(ttl):
    """A configured ``ttl``: ``None`` (no expiry) or virtual seconds
    ``>= 0``; anything else raises :class:`ConfigurationError`."""
    if ttl is None or (isinstance(ttl, (int, float))
                       and not isinstance(ttl, bool) and ttl >= 0):
        return ttl
    raise ConfigurationError(
        f"caching 'ttl' must be None or a number >= 0, not {ttl!r}")


class CacheCallback:
    """Client-side invalidation sink, exported next to each caching proxy."""

    def __init__(self, proxy: CachingProxy):
        self._proxy = proxy

    @operation(oneway=True)
    def invalidate(self, values: tuple) -> None:
        """Drop cache entries for the given values (server push)."""
        self._proxy.proxy_cache_invalidate(values)


class CacheControl:
    """Server-side registry of client caches for one exported object."""

    def __init__(self):
        self._callbacks: dict[str, Any] = {}

    @staticmethod
    def _key_of(callback) -> str:
        ref = getattr(callback, "proxy_ref", None)
        return ref.key if ref is not None else f"local:{id(callback)}"

    @operation
    def register(self, callback) -> int:
        """Enrol a client cache; returns the subscriber count."""
        self._callbacks[self._key_of(callback)] = callback
        return len(self._callbacks)

    @operation
    def unregister(self, callback) -> int:
        """Withdraw a client cache; returns the remaining subscriber count."""
        self._callbacks.pop(self._key_of(callback), None)
        return len(self._callbacks)

    @property
    def subscribers(self) -> int:
        """Number of registered client caches."""
        return len(self._callbacks)

    def broadcast(self, values: tuple) -> None:
        """Push an invalidation to every registered cache (one-way)."""
        for callback in list(self._callbacks.values()):
            try:
                callback.invalidate(values)
            except DistributionError:
                continue


class CacheCoherence:
    """Dispatcher hook: broadcast invalidations after mutating operations."""

    def __init__(self, control: CacheControl, interface):
        self._control = control
        self._interface = interface

    def after(self, verb: str, args: tuple, kwargs: dict) -> None:
        """Called by the dispatcher after each successful mutating op."""
        op = self._interface.operation(verb)
        self._control.broadcast(invalidated_values(op, args, kwargs))
