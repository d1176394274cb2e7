"""Per-call deadlines: an absolute virtual-time budget that travels.

A :class:`Deadline` is the resilience layer's answer to retry amplification:
without one, a chain of proxies each retrying on its own clock multiplies
the root caller's wait by the depth of the chain.  With one,

* the client stamps the expiry into the request frame's headers
  (:data:`DEADLINE_HEADER`), so the budget crosses the wire;
* the server skips dispatch entirely when the request arrives past its
  expiry (the caller has given up — executing would waste server time and
  can no longer help anyone);
* while a request *is* dispatched, the dispatcher parks the deadline on the
  serving context (``context.current_deadline``), so any nested outbound
  call the handler makes inherits the tightest enclosing budget.

Deadlines are absolute virtual times, not durations: every context clock in
the simulation advances on the same timeline, so an absolute expiry needs no
translation between caller and server (the 1986 equivalent would assume
loosely synchronised clocks; gRPC ships absolute deadlines the same way).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..kernel.errors import DeadlineExceeded, ProtocolError

#: Frame-header key under which a deadline crosses the wire.
DEADLINE_HEADER = "deadline"


@dataclass(frozen=True)
class Deadline:
    """An absolute virtual-time expiry for one call tree.

    Attributes:
        expires_at: virtual time after which the work is worthless.
    """

    expires_at: float

    @classmethod
    def after(cls, now: float, budget: float) -> "Deadline":
        """A deadline ``budget`` seconds from ``now``."""
        return cls(now + budget)

    def remaining(self, now: float) -> float:
        """Budget left at ``now`` (negative once expired)."""
        return self.expires_at - now

    def expired(self, now: float) -> bool:
        """Whether the budget is spent at ``now``."""
        return now >= self.expires_at

    def clamp(self, when: float) -> float:
        """``when``, cut back to the expiry — a wait must not outlive it."""
        return min(when, self.expires_at)

    def check(self, now: float, what: str = "call") -> None:
        """Raise :class:`DeadlineExceeded` when the budget is spent."""
        if self.expired(now):
            raise DeadlineExceeded(
                f"{what}: deadline passed {now - self.expires_at:.6f}s ago")

    @staticmethod
    def merge(*deadlines: "Deadline | None") -> "Deadline | None":
        """The tightest of the given deadlines (``None`` entries ignored)."""
        tightest: Deadline | None = None
        for deadline in deadlines:
            if deadline is None:
                continue
            if tightest is None or deadline.expires_at < tightest.expires_at:
                tightest = deadline
        return tightest

    @staticmethod
    def from_headers(headers: dict | None) -> "Deadline | None":
        """Recover a deadline from frame headers (``None`` when absent,
        :class:`ProtocolError` when malformed: :func:`header_time`)."""
        expires_at = header_time(headers, DEADLINE_HEADER)
        return None if expires_at is None else Deadline(expires_at)

    def to_headers(self, headers: dict) -> dict:
        """Stamp this deadline into a frame-header dict; returns it."""
        headers[DEADLINE_HEADER] = self.expires_at
        return headers

    def __repr__(self) -> str:
        return f"Deadline(expires_at={self.expires_at:.6f})"


def header_time(headers: dict | None, key: str) -> float | None:
    """The virtual time a frame header carries under ``key`` (``None``
    when absent).  A value that is not a time — not an ``int`` or
    ``float`` (a bool is neither), NaN, an ``int`` no float holds — raises
    :class:`ProtocolError`.  ±inf is a time: never, or always late."""
    if not headers:
        return None
    value = headers.get(key)
    if value is None:
        return None
    try:
        if type(value) in (int, float) and value == value:
            return float(value)
    except OverflowError:
        pass
    raise ProtocolError(f"malformed {key!r} header {value!r}")
