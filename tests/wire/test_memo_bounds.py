"""The marshaller's string memo: bounded size, visible counters.

The memo is process-global, so it must be bounded (FIFO eviction at
``_MEMO_MAX_ENTRIES``) and observable — the hit/size counters surface
through :func:`repro.wire.marshal.memo_stats`.
"""

from __future__ import annotations

import pytest

from repro.wire import marshal
from repro.wire.marshal import (
    Marshaller,
    clear_memos,
    memo_stats,
    reset_memo_stats,
)


@pytest.fixture(autouse=True)
def _fresh_memos():
    """Cold caches and zeroed counters around every test here."""
    clear_memos()
    reset_memo_stats()
    yield
    clear_memos()
    reset_memo_stats()


def test_string_memo_counts_misses_then_hits():
    plain = Marshaller()
    plain.encode("motd")
    first = memo_stats()
    assert first["str_enc_misses"] == 1
    assert first["str_enc_hits"] == 0
    plain.encode("motd")
    second = memo_stats()
    assert second["str_enc_hits"] == 1
    assert second["str_enc_size"] == 1


def test_memos_stay_bounded_under_churn():
    cap = marshal._MEMO_MAX_ENTRIES
    plain = Marshaller()
    for i in range(cap + 500):
        plain.encode(f"churn-key-{i}")
    stats = memo_stats()
    assert stats["str_enc_size"] <= cap
    assert stats["evictions"] >= 500
    assert stats["max_entries"] == cap


def test_eviction_is_fifo_oldest_first():
    cap = marshal._MEMO_MAX_ENTRIES
    plain = Marshaller()
    plain.encode("the-first-key")
    for i in range(cap):  # push exactly past capacity
        plain.encode(f"filler-{i}")
    assert "the-first-key" not in marshal._STR_ENC
    assert f"filler-{cap - 1}" in marshal._STR_ENC


def test_reset_zeroes_counters_but_keeps_entries():
    plain = Marshaller()
    plain.encode("sticky")
    reset_memo_stats()
    stats = memo_stats()
    assert stats["str_enc_misses"] == 0
    assert stats["str_enc_size"] == 1  # the cache itself survives


def test_clear_empties_every_memo():
    plain = Marshaller()
    plain.encode("gone")
    clear_memos()
    stats = memo_stats()
    assert stats["str_enc_size"] == 0


def test_reading_stats_never_warms_the_caches():
    before = memo_stats()
    after = memo_stats()
    assert before == after
    assert after["str_enc_size"] == 0
