"""The ``stub`` policy: transparent forwarding.

This is the degenerate proxy — behaviourally identical to 1984-style RPC
stub code, and the baseline every smarter policy is measured against (E1,
E5).  Its existence demonstrates that the proxy mechanism strictly
generalises stubs: the service that wants plain RPC simply ships this
factory.
"""

from __future__ import annotations

from ..factory import register_policy
from ..proxy import Proxy


@register_policy
class ForwardingProxy(Proxy):
    """Forward every operation to the current binding; nothing else.

    Inherits the base :meth:`Proxy.invoke` (remote call with migration
    rebinding), so the class body is intentionally empty — the base class
    *is* the stub policy.
    """

    proxy_policy_name = "stub"
