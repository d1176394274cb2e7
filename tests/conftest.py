"""Shared fixtures: wired systems and common topologies."""

from __future__ import annotations

import pytest

import repro
from repro.naming.bootstrap import install_name_service


@pytest.fixture
def system():
    """A wired system with no nodes yet."""
    return repro.make_system(seed=1234)


@pytest.fixture
def star():
    """(system, server_ctx, [client_ctxs]) with a name service on the server."""
    sys_ = repro.make_system(seed=99)
    server = sys_.add_node("server").create_context("main")
    clients = [sys_.add_node(f"client{i}").create_context("main")
               for i in range(3)]
    install_name_service(server)
    return sys_, server, clients


@pytest.fixture
def pair(star):
    """(system, server_ctx, one_client_ctx)."""
    sys_, server, clients = star
    return sys_, server, clients[0]


class MutationLog:
    """A mutation hook (see ``ExportEntry.mutation_hooks``) that remembers
    what it was told."""

    def __init__(self):
        self.fired = []

    def after(self, verb, args, kwargs):
        self.fired.append((verb, tuple(args), kwargs))


@pytest.fixture
def mutation_log():
    """A fresh recording mutation hook to append to an export entry."""
    return MutationLog()


@pytest.fixture
def hooked():
    """``hooked(entry) -> MutationLog``: a fresh recording hook appended to
    one export entry (for tests that tell several entries apart)."""
    def hook(entry):
        log = MutationLog()
        entry.mutation_hooks.append(log)
        return log
    return hook
