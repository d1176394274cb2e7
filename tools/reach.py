#!/usr/bin/env python3
"""Which ``src/repro`` functions no product path enters.

Usage::

    python tools/reach.py

Runs the product surface in one interpreter under ``sys.setprofile``,
started before ``import repro`` so that import-time code counts:

- ``repro list``, ``repro all``, CI's ``repro run e7b|e7c|e8|e9 --seed 31
  --json`` and the six ``repro bench $b --json`` records;
- every ``repro simtest`` command CI runs, the corpus replays included;
- ``repro demo`` and the examples;
- one round of each ``benchmarks/perf`` workload, the policy workloads at
  1/20 of their operations.

Then it compares the outermost ``def``s under ``src/repro`` (module-level
functions and methods of module-level classes) that were never entered
with ``REACH.txt``.  That file has one line per such function::

    path:qualname  tag  note

``path`` is relative to ``src/repro`` and ``tag`` is one of
:data:`TAGS`; lines starting with ``#`` are comments.  Exits 1 and prints
every difference: a never-entered function the file does not list, a
listed function that was entered or no longer exists, an unknown tag.
"""

from __future__ import annotations

import ast
import contextlib
import glob
import io
import os
import pathlib
import runpy
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
LEDGER = ROOT / "REACH.txt"

#: Why a never-entered function stays.
TAGS = {
    "pinned": "named by benchmarks/perf",
    "recovery": "a recovery site the batteries are to reach",
    "refusal": "raises on a call no product path makes",
    "format": "a rendering or conversion only a reader calls",
    "debug": "an inspection aid",
    "claim": "the question a paper claim asks; waits for the claims report",
    "next": "reached by tests only: the next deletion",
}

#: ``repro`` command lines, as CI runs them (``.github/workflows/ci.yml``).
COMMANDS = [
    "list",
    "all",
    *(f"run {e} --seed 31 --json" for e in ("e7b", "e7c", "e8", "e9")),
    *(f"bench {b} --json"
      for b in ("e10", "e18", "e19", "e20", "e21", "simwall")),
    "simtest --seeds 20 --ops 24 --no-minimize",
    "simtest --seeds 20 --no-minimize",
    "simtest --seed 0 --policy dirtycache --service kv --ops 30",
    "simtest --seeds 40 --ops 24 --policy replicated --no-minimize",
    "simtest --seeds 12 --ops 30 --policy underquorum",
    "simtest --seeds 4 --ops 40 --service counter --policy splitbrain",
    "simtest --seeds 40 --ops 24 --policy sharded --no-minimize",
    "simtest --seeds 10 --ops 30 --policy staleshard",
    "simtest --seeds 20 --policy shedless --no-minimize",
    "simtest --seeds 40 --ops 24 --policy regional --no-minimize",
    "simtest --seeds 40 --ops 24 --policy resilient --no-minimize",
    "simtest --seeds 40 --ops 24 --policy composite --no-minimize",
    "simtest --seeds 40 --ops 24 --policy txn2pc --no-minimize",
    "simtest --seeds 40 --ops 24 --policy saga --no-minimize",
    "simtest --seeds 10 --ops 30 --policy sagaskip --no-minimize",
    "simtest --replay tests/simtest/regressions/*.json --no-minimize",
    "simtest --seed 3 --policy resilient --json --no-minimize",
    "simtest --seed 7 --policy dirtycache --service kv --ops 24 "
    "--consistency read-your-writes --json --no-minimize",
    "simtest --seed 7 --policy replicated --service kv --ops 24 "
    "--consistency causal --json --no-minimize",
    "demo",
]

#: The perf workloads' policy rounds run this fraction of their operations.
PERF_DIVISOR = 20


def outermost_defs(package: pathlib.Path) -> dict:
    """``{(path, first line): qualname}`` for every module-level function
    and every method of a module-level class (nested classes included).

    The first line is the code object's: the first decorator's, if any.
    A property's setter or deleter is named ``Class.name.setter``.
    """
    found = {}

    def visit(body, prefix, path):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] +
                            [d.lineno for d in node.decorator_list])
                name = prefix + node.name
                for d in node.decorator_list:
                    if isinstance(d, ast.Attribute) and \
                            isinstance(d.value, ast.Name) and \
                            d.value.id == node.name:
                        name += "." + d.attr
                found[(path, first)] = name
            elif isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.", path)

    for file in sorted(package.rglob("*.py")):
        path = file.relative_to(package).as_posix()
        visit(ast.parse(file.read_text(encoding="utf-8")).body, "", path)
    return found


class Profile:
    """The code objects entered while it is active."""

    def __init__(self):
        self.codes = set()

    def __enter__(self):
        add = self.codes.add

        def hook(frame, event, arg):
            if event == "call":
                add(frame.f_code)

        sys.setprofile(hook)
        return self

    def __exit__(self, *exc):
        sys.setprofile(None)

    def entered(self, package: pathlib.Path) -> set:
        """``{(path, first line)}`` of the entered code under ``package``."""
        prefix = str(package) + os.sep
        return {(pathlib.Path(code.co_filename).relative_to(package)
                 .as_posix(), code.co_firstlineno)
                for code in self.codes
                if code.co_filename.startswith(prefix)}


def run_surface() -> None:
    """Run every product path once (see the module docstring)."""
    from repro.cli import main

    os.chdir(ROOT)
    for command in COMMANDS:
        argv = []
        for word in command.split():
            argv.extend(sorted(glob.glob(word)) if "*" in word else [word])
        main(argv)
    for script in sorted((ROOT / "examples").glob("*.py")):
        runpy.run_path(str(script), run_name="__main__")

    sys.path.insert(0, str(ROOT / "benchmarks" / "perf"))
    import perf_workloads as perf
    for workload in perf.WORKLOADS.values():
        if workload.policy is None:
            perf.run_battery_round(perf.battery_cases(11))
        else:
            small = perf.scaled(workload, PERF_DIVISOR)
            perf.run_round(small, 11, perf.make_stream(small, 11))


def read_ledger(text: str) -> tuple[dict, list]:
    """``({"path:qualname": tag}, problems)`` from a ledger's text."""
    listed, problems = {}, []
    for number, line in enumerate(text.splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split(None, 2)
        if len(fields) < 2 or ":" not in fields[0]:
            problems.append(f"line {number}: not 'path:qualname  tag  note'")
        elif fields[1] not in TAGS:
            problems.append(f"line {number}: unknown tag {fields[1]!r}")
        elif fields[0] in listed:
            problems.append(f"line {number}: {fields[0]} listed twice")
        else:
            listed[fields[0]] = fields[1]
    return listed, problems


def compare(defs: dict, entered: set, text: str) -> list:
    """Every difference between the never-entered ``defs`` and the ledger
    ``text``, one line each; empty when they agree."""
    listed, problems = read_ledger(text)
    names = {f"{key[0]}:{qualname}": key for key, qualname in defs.items()}
    unreached = {name for name, key in names.items() if key not in entered}
    for name in sorted(unreached - listed.keys()):
        problems.append(f"never entered, not listed: {name}")
    for name in sorted(listed.keys() - unreached):
        why = "entered" if name in names else "no such def"
        problems.append(f"listed, but {why}: {name}")
    return problems


def main() -> int:
    with Profile() as profile:
        sys.path.insert(0, str(ROOT / "src"))
        with contextlib.redirect_stdout(io.StringIO()):
            run_surface()
    defs = outermost_defs(PACKAGE)
    entered = profile.entered(PACKAGE)
    problems = compare(defs, entered,
                       LEDGER.read_text(encoding="utf-8")
                       if LEDGER.exists() else "")
    reached = sum(key in entered for key in defs)
    print(f"{reached} of {len(defs)} outermost defs entered")
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
