"""The proxy principle: proxies, factories, export/bind, and enforcement."""

from .export import CTXMGR_OID, ContextManager, ObjectSpace, get_space
from .factory import Codebase, global_policies, register_policy
from .principle import AuditReport, assert_principle, audit
from .proxy import Proxy, is_proxy
from .service import Service
from .views import export_view, readonly_view, restrict

__all__ = [
    "AuditReport", "CTXMGR_OID", "Codebase", "ContextManager", "ObjectSpace",
    "Proxy", "Service", "assert_principle", "audit", "export_view",
    "get_space", "global_policies", "is_proxy", "readonly_view",
    "register_policy", "restrict",
]
