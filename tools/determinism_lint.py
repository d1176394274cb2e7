#!/usr/bin/env python3
"""Determinism lint: no ambient entropy or wall clock in the library.

The whole simulation rests on two invariants: every random draw flows from
:class:`repro.kernel.randomness.SeedSequence`, and every timestamp flows
from :class:`repro.kernel.clock.Clock`.  One stray ``random.random()`` or
``time.time()`` silently breaks seed replay — the worst kind of breakage,
because everything still *works*, just not twice in a row.

This lint greps ``src/`` for module-level entropy draws (``random.choice``
etc. — explicitly-seeded ``random.Random(seed)`` instances are fine) and
wall-clock reads (``time.time``, ``datetime.now``, ...), excluding the two
kernel modules that legitimately wrap them.

Usage::

    python tools/determinism_lint.py [root]

Exits 1 and lists ``file:line: offending call`` on any hit.
"""

from __future__ import annotations

import pathlib
import re
import sys

#: Files allowed to touch the primitives they encapsulate.
ALLOWED = {
    "src/repro/kernel/randomness.py",   # wraps random.Random seeding
    "src/repro/kernel/clock.py",        # the virtual clock itself
}

#: Module-level entropy draws (process-global RNG state — unseedable per run).
ENTROPY = re.compile(
    r"\brandom\.(random|randrange|randint|choice|choices|shuffle|sample"
    r"|uniform|triangular|gauss|normalvariate|expovariate|betavariate"
    r"|vonmisesvariate|paretovariate|weibullvariate|lognormvariate"
    r"|getrandbits|randbytes|seed)\s*\(")

#: Wall-clock reads (real time leaking into virtual time).
WALLCLOCK = re.compile(
    r"\btime\.(time|time_ns|monotonic|monotonic_ns|perf_counter"
    r"|perf_counter_ns|process_time)\s*\("
    r"|\bdatetime\.(now|utcnow|today)\s*\("
    r"|\bdate\.today\s*\(")


def lint(root: pathlib.Path) -> list[str]:
    """All violations under ``root/src``, as ``path:line: text`` strings."""
    problems: list[str] = []
    for path in sorted((root / "src").rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if rel in ALLOWED:
            continue
        for lineno, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), start=1):
            code = line.split("#", 1)[0]
            if ENTROPY.search(code) or WALLCLOCK.search(code):
                problems.append(f"{rel}:{lineno}: {line.strip()}")
    return problems


def main(argv: list[str]) -> int:
    root = pathlib.Path(argv[1]) if len(argv) > 1 else pathlib.Path(".")
    problems = lint(root)
    if problems:
        print("determinism lint: ambient entropy / wall clock in src/:")
        for problem in problems:
            print(f"  {problem}")
        print(f"{len(problems)} violation(s). Route randomness through "
              "SeedSequence streams and time through the virtual Clock.")
        return 1
    print("determinism lint: clean")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
