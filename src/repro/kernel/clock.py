"""Virtual time.

The whole system runs in *virtual time*: a float number of seconds that is
advanced explicitly by the layers that model work (network transmission,
marshalling, dispatching, service compute).  Nothing in the library reads the
wall clock, which makes every experiment deterministic and replayable.

Each single-threaded *activity* (in practice: each context) owns a
:class:`Clock` cursor.  Interactions between activities — a request arriving
at a busy server, for instance — are mediated by :class:`BusyLine`, which
models a serially-reusable resource in the style of an M/D/1 queue: work
arriving at time ``t`` begins at ``max(t, busy_until)``.
"""

from __future__ import annotations

from .errors import SimulationError


class Clock:
    """A monotonic virtual-time cursor for one activity.

    The cursor can only move forward; attempting to move it backwards raises
    :class:`~repro.kernel.errors.SimulationError`, which catches the most
    common way a cost model goes wrong.
    """

    __slots__ = ("now",)

    def __init__(self, start: float = 0.0):
        #: Current virtual time in seconds.  A plain attribute (not a
        #: property): it is read on every hop of the invoke path, and all
        #: writes go through the methods below, which enforce monotonicity
        #: — except the dispatcher's rebase of a serving context to a
        #: request's start and back, a slot write of a float.
        self.now = float(start)

    def advance(self, delta: float) -> float:
        """Move the cursor forward by ``delta`` seconds and return the new time."""
        if delta < 0:
            raise SimulationError(f"cannot advance clock by negative delta {delta!r}")
        self.now += delta
        return self.now

    def advance_to(self, when: float) -> float:
        """Move the cursor forward to ``when`` (no-op if already past it)."""
        if when > self.now:
            self.now = when
        return self.now

    def reset(self, when: float = 0.0) -> None:
        """Set the cursor unconditionally (may rewind).

        For test/bench setup and for the one sanctioned runtime use: the
        promise layer rewinding a client to its request's send time to model
        asynchronous overlap (:mod:`repro.rpc.promises`).
        """
        self.now = float(when)

    def __repr__(self) -> str:
        return f"Clock(now={self.now:.9f})"


class BusyLine:
    """A serially-reusable resource with FIFO occupancy in virtual time.

    Models a single-threaded server object (a *monitor* in 1986 terms): each
    piece of work occupies the line for its duration, and work arriving while
    the line is busy queues.  ``occupy`` returns the interval actually used.
    """

    __slots__ = ("busy_until", "total_busy", "jobs")

    def __init__(self):
        #: Virtual time at which the line becomes free (plain attribute for
        #: the same hot-path reason as :attr:`Clock.now`; writes go through
        #: :meth:`occupy` and :meth:`reset`).
        self.busy_until = 0.0
        self.total_busy = 0.0
        self.jobs = 0

    def occupy(self, arrive: float, duration: float) -> tuple[float, float]:
        """Occupy the line for ``duration`` starting no earlier than ``arrive``.

        Returns ``(start, end)`` in virtual time, where ``start`` includes any
        queueing delay behind previously-accepted work.
        """
        if duration < 0:
            raise SimulationError(f"negative service duration {duration!r}")
        start = max(arrive, self.busy_until)
        end = start + duration
        self.busy_until = end
        self.total_busy += duration
        self.jobs += 1
        return start, end

    def reset(self) -> None:
        """Clear occupancy (test/bench setup only)."""
        self.busy_until = 0.0
        self.total_busy = 0.0
        self.jobs = 0

    def __repr__(self) -> str:
        return f"BusyLine(busy_until={self.busy_until:.9f}, jobs={self.jobs})"
