"""The ``composite`` policy: stacking proxy intelligences.

Policies compose: a cache in front of a replica group, or in front of a
migrating proxy.  The composite proxy builds its stack at first use and
compiles it there: each layer's ``proxy_remote`` becomes the next layer's
``invoke`` and the composite's own ``invoke`` the outermost layer's, so an
operation enters the outer layer directly, flows down the stack, and only
the innermost layer talks to the protocol.  Discarding or releasing the
composite un-compiles it; the next call builds the stack again.

Configuration::

    config = {
        "layers": ["caching", "replicated"],      # outermost first
        "layer_configs": {"caching": {...}, "replicated": {...}},
    }

Server-side components of every layer are installed at export time (each
layer's ``proxy_on_export`` hook runs), so e.g. ``["caching", "replicated"]``
gets both the invalidation control and the replica list.
"""

from __future__ import annotations

from typing import Any

from ...kernel.errors import ConfigurationError
from ..factory import register_policy
from ..proxy import Proxy


def _layer_factories(codebase, config: dict) -> list[tuple[str, type]]:
    """Each layer's name and factory, outermost first; every name is
    checked before any layer is built or installed."""
    layers = config.get("layers") or []
    if not layers:
        raise ConfigurationError(
            "composite policy needs a non-empty 'layers' list")
    if "composite" in layers:
        raise ConfigurationError("composite layers cannot nest composites")
    factories = []
    for name in layers:
        factory = codebase.factories.get(name)
        if factory is None:
            raise ConfigurationError(f"unknown layer policy {name!r}")
        factories.append((name, factory))
    return factories


def check_group_policy(codebase, policy: str,
                       extra_layers: list[str] | None) -> None:
    """Resolve a group's policy and every layer stacked in front of it
    (what :meth:`ObjectSpace.export_group <repro.core.export.ObjectSpace.
    export_group>` will install) without building or exporting anything:
    a deploy checks them before its first export, so a refusal leaves
    nothing behind."""
    if policy not in codebase.factories:
        raise ConfigurationError(f"unknown proxy policy {policy!r}")
    if extra_layers:
        _layer_factories(codebase, {"layers": [*extra_layers, policy]})


def _layer_config(config: dict, name: str) -> dict:
    """One layer's configuration: every shared key — the deployment's
    choices (quorums, ``elect``, rings) and what ``proxy_on_export`` hooks
    shipped — with ``layer_configs[name]`` winning.  No whitelist: a key a
    layer does not read is inert, a key dropped here silently changes the
    protocol the layer speaks."""
    shared = {key: value for key, value in config.items()
              if key not in ("layers", "layer_configs")}
    return {**shared, **(config.get("layer_configs") or {}).get(name, {})}


@register_policy
class CompositeProxy(Proxy):
    """A stack of policy layers behind one proxy face."""

    proxy_policy_name = "composite"

    def __init__(self, context, ref, interface, config=None):
        super().__init__(context, ref, interface, config)
        self._stack: list[Proxy] | None = None

    def _build_stack(self) -> list[Proxy]:
        if self._stack is not None:
            return self._stack
        codebase = self.proxy_context.system.codebase
        layers: list[Proxy] = []
        for name, factory in _layer_factories(codebase, self.proxy_config):
            layer = factory(self.proxy_context, self.proxy_ref,
                            self.proxy_interface,
                            _layer_config(self.proxy_config, name))
            layers.append(layer)
        for outer, inner in zip(layers, layers[1:]):
            outer.proxy_next = inner
            outer.proxy_remote = inner.invoke
        for layer in layers:
            layer.proxy_install()
        self._stack = layers
        self.invoke = layers[0].invoke
        return layers

    def proxy_install(self) -> None:
        # Defer to first use so a handshake-less bind stays message-free.
        pass

    def proxy_discard(self) -> None:
        for layer in self._stack or []:
            layer.proxy_discard()
        self._stack = None
        self.__dict__.pop("invoke", None)

    def proxy_release(self) -> None:
        """Release every layer too: none sits in the context's table."""
        super().proxy_release()
        for layer in self._stack or []:
            layer.proxy_release()
        self.__dict__.pop("invoke", None)

    def invoke(self, verb: str, args: tuple, kwargs: dict) -> Any:
        """The first call only: build the stack, which compiles it (every
        later call enters the outermost layer's ``invoke``), and enter
        it.  The composite counts these calls; its outer layer counts
        them all."""
        self.proxy_stats["invocations"] += 1
        return self._build_stack()[0].invoke(verb, args, kwargs)

    @property
    def proxy_layers(self) -> list[str]:
        """Class names of the instantiated layers (outermost first)."""
        return [type(layer).__name__ for layer in self._build_stack()]

    @classmethod
    def proxy_on_export(cls, space, entry) -> None:
        """Run every layer's server-side installation, once every layer
        is known."""
        for _, factory in _layer_factories(space.system.codebase,
                                           entry.policy_config):
            hook = getattr(factory, "proxy_on_export", None)
            if hook is not None:
                hook(space, entry)
