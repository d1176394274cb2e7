#!/usr/bin/env python3
"""Architecture rules: one table, run by CI and by tier-1.

The paper's structural claims -- the proxy is the only access path to an
object, and a policy reaches its members through the protocol -- and the
invariants the PRs built on them are kept by the rules in :data:`RULES`.
Each row names the rule and the PR that set it, says why in one line,
lists the paths it reads, holds the check (a line regex, a syntax-tree
check, or a regex on tracked file names), the number of lines allowed to
match, and a fixture: a snippet of the code the rule was written against.

A new rule is a row here, with a fixture, not a CI step.
``tests/test_arch_lint.py`` runs the table on the tree and every row
against its fixture, so a broken rule shows in tier-1, and a rule that no
longer matches anything (a renamed file, a pattern that cannot fire) is
seen as dead.

A regex row reads files as ``grep`` does: a directory path reads every
file under it, whatever its type; ``dir/*.py`` reads one directory, as a
shell glob; ``include`` is ``grep --include`` and ``exclude`` drops a
``path:line:text`` hit, as ``grep -v`` does.  A row refuses the tree when
the number of matching lines is not exactly ``allowed``, or when one of
its paths matches no tracked file.

Usage::

    python tools/arch_lint.py [root]

Reads the files git checks out under ``root`` (tracked, plus untracked
files that are not ignored).  Exits 1 and prints each refused rule's
name, PR and hits.
"""

from __future__ import annotations

import ast
import fnmatch
import pathlib
import posixpath
import re
import subprocess
import sys
from typing import Callable, Iterable, NamedTuple

#: This file spells every banned name, so no rule reads it.
SELF = "tools/arch_lint.py"


class Grep(NamedTuple):
    """A line regex, read as ``grep -E`` reads it: one hit per line."""

    pattern: str

    def hits(self, path: str, read: Callable[[], str]):
        rx = re.compile(self.pattern, re.ASCII)
        return [(n, line) for n, line in enumerate(read().split("\n"), 1)
                if rx.search(line)]


class Tree(NamedTuple):
    """A check on a module's syntax tree: it yields refused line numbers."""

    lines: Callable[[ast.Module], Iterable[int]]

    def hits(self, path: str, read: Callable[[], str]):
        text = read()
        try:
            tree = ast.parse(text, path)
        except SyntaxError as exc:
            return [(exc.lineno or 1, "does not parse")]
        source = text.split("\n")
        return [(n, source[n - 1]) for n in sorted(set(self.lines(tree)))]


class Tracked(NamedTuple):
    """A regex on a tracked file's path: the file itself is the hit."""

    pattern: str

    def hits(self, path: str, read: Callable[[], str]):
        return [(0, path)] if re.search(self.pattern, path) else []


class Rule(NamedTuple):
    """One row of the table (see the module docstring)."""

    name: str
    pr: int
    why: str
    paths: tuple[str, ...]
    match: Grep | Tree | Tracked
    fixture: str  # for a Tracked row, the path of the artefact
    allowed: int = 0
    include: str | None = None
    exclude: str | None = None
    passes: tuple[str, ...] = ()  # code the rule must let through


def _named(node: ast.AST) -> str:
    """The name a node spells last: ``x`` for both ``x`` and ``a.x``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


def _is_list(node: ast.AST) -> bool:
    return isinstance(node, (ast.List, ast.ListComp))


_ENVELOPE_KEY = re.compile(
    r"(H_(READ|ASSIGN|APPLY|TERM|EPOCH|CONTROL)|K_(TERM|FENCED|EXC))$")
_CONTROL_CALL = re.compile(r"(_control_call|call_peer)$")


def _envelope_lists(tree: ast.Module) -> Iterable[int]:
    """A list display or comprehension as an envelope key's value, or
    anywhere in a control call's arguments (a subscript is not a list)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if (key is not None and _is_list(value)
                        and _ENVELOPE_KEY.search(_named(key))):
                    yield value.lineno
        elif (isinstance(node, ast.Call)
                and _CONTROL_CALL.search(_named(node.func))):
            for arg in (*node.args, *(kw.value for kw in node.keywords)):
                yield from (n.lineno for n in ast.walk(arg) if _is_list(n))


#: The two kernel modules that wrap the primitives they encapsulate.
ALLOWED = ("src/repro/kernel/randomness.py", "src/repro/kernel/clock.py")

#: Process-global entropy draws (``random.Random(seed)`` instances are
#: fine) and wall-clock reads, keyed by the name they are read through.
AMBIENT = {
    "random": {
        "random", "randrange", "randint", "choice", "choices", "shuffle",
        "sample", "uniform", "triangular", "gauss", "normalvariate",
        "expovariate", "betavariate", "vonmisesvariate", "paretovariate",
        "weibullvariate", "lognormvariate", "getrandbits", "randbytes",
        "seed"},
    "time": {
        "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
        "perf_counter_ns", "process_time"},
    "datetime": {"now", "utcnow", "today"},
    "date": {"today"},
}


def _ambient_reads(tree: ast.Module) -> Iterable[int]:
    """``random.choice`` and ``time.time`` as spelled, through an alias
    (``import time as t``), or imported bare (``from time import time``)."""
    alias = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                if name.asname:
                    alias[name.asname] = name.name.rpartition(".")[2]
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").rpartition(".")[2]
            for name in node.names:
                if name.name in AMBIENT.get(module, ()):
                    yield node.lineno
                if name.asname:
                    alias[name.asname] = name.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            reader = _named(node.value)
            if (node.attr in AMBIENT.get(reader, ())
                    or node.attr in AMBIENT.get(alias.get(reader), ())):
                yield node.lineno


_GROUPS = ("src/repro/core/policies", "src/repro/resilience")
_REPLICATING = "src/repro/core/policies/replicating.py"
_SHARDING = "src/repro/core/policies/sharding.py"

DETERMINISM = Rule(
    "Determinism lint (no ambient entropy / wall clock in src)", 3,
    "Every draw flows from a SeedSequence stream and every timestamp from "
    "the virtual Clock, or seed replay silently breaks.",
    ("src",), Tree(_ambient_reads),
    "import random, time\n"
    "def jitter():\n"
    "    return random.random() + time.time()\n",
    include="*.py",
    exclude="^(" + "|".join(map(re.escape, ALLOWED)) + "):",
    passes=("rng = random.Random(42)\nx = rng.random()\n",))

RULES = (
    Rule("No compiled bytecode is tracked", 12,
         "Bytecode is what running leaves behind; a checkout carries none.",
         (".",), Tracked(r"\.pyc$"),
         "src/repro/__pycache__/cli.cpython-312.pyc"),
    Rule("No build artefact is tracked", 30,
         "An egg-info directory is what building leaves behind.",
         (".",), Tracked(r"\.egg-info/"), "src/repro.egg-info/PKG-INFO"),
    DETERMINISM,
    Rule("One fault timeline", 30,
         "A fault timeline is a ChaosSchedule; a WAN is built of regions.",
         ("src", "tests", "examples", "benchmarks"),
         Grep(r"CrashPlan|build_sites|\bSite\b"),
         "from ...failures.injectors import CrashPlan"),
    Rule("Policies reach export entries through the protocol only", 13,
         "Locality is the protocol's business: no policy reads an export "
         "table.",
         ("src/repro/core/policies",), Grep(r"rpc.dispatcher"),
         "from ...rpc.dispatcher import ensure_dispatcher"),
    Rule("Operations are performed in one place", 15,
         "The dispatcher's run step is the one getattr(obj, verb) on an "
         "exported object.",
         ("src/repro",), Grep(r"getattr\([a-z_.]*obj, *(verb|frame\.verb)"),
         "method = getattr(self._entry.obj, verb)", allowed=1),
    Rule("No policy calls a verb on an object it holds", 17,
         "Policies hold bindings, they do not perform operations.",
         _GROUPS, Grep(r"getattr\([a-z_]+, *verb\)\("),
         "return getattr(replica, verb)(*args, **kwargs)"),
    Rule("No policy asks whether a member is a proxy", 17,
         "A group proxy reaches every member one way, through its binding.",
         _GROUPS, Grep(r"isinstance\([^)]*, Proxy\)"),
         "if not isinstance(replica, Proxy):"),
    Rule("A policy resolves an operation through its proxy's cache", 36,
         "Every policy resolves a verb through proxy_operation's memo.",
         _GROUPS, Grep(r"proxy_interface\.operation\("),
         "op = self.proxy_interface.operation(verb)"),
    Rule("A one-way frame has one way out", 19,
         "A one-way message leaves when it is sent: no staging, no reply "
         "window.",
         ("src/repro",),
         Grep(r"reply_batching|reply_window|_maybe_stage|_flush_staged"
              r"|def reliable"),
         "if rpc is not None and rpc.reply_batching:"),
    Rule("A group is reached through its proxy (no stand-in object)", 20,
         "A group entry holds no object; its proxy is the only access path.",
         ("src/repro",),
         Grep(r"make_delegate|delegate_class|_delegate_target"),
         "from ...iface.adapters import make_delegate"),
    Rule("A group is reached through its proxy (no forwarding fallback)", 20,
         "A group entry holds no object; its proxy is the only access path.",
         (_REPLICATING, _SHARDING), Grep(r"return self\.proxy_remote\("),
         "return self.proxy_remote(verb, args, kwargs)"),
    Rule("Reflection has one home", 22,
         "An operation's signature is read once: iface/interface.py "
         "reflects, and the CLI probes run's keywords.",
         ("src/repro",), Grep(r"inspect\.signature"),
         "sig = inspect.signature(func)", allowed=2),
    Rule("A context's identity has one writer (context_id)", 24,
         "A context's id is a slot written once, in Context.__init__ (the "
         "other write is OidMinter's own field).",
         ("src/repro",), Grep(r"\.context_id = "),
         "self.context_id = context_id", allowed=2),
    Rule("A context's identity has one writer (no shadow slot)", 24,
         "A fact fixed at construction is an attribute, not a property over "
         "a shadow slot.",
         ("src/repro/kernel/context.py",),
         Grep(r"_context_id|def context_id|def charge"),
         'self._context_id = f"{node.name}/{name}"'),
    Rule("A context's identity has one writer (charge)", 24,
         "A context's charge is its clock's bound advance, set in "
         "kernel/context.py alone.",
         ("src/repro",), Grep(r"\.charge = "),
         "ctx.charge = ctx.clock.advance",
         include="*.py", exclude=r"kernel/context.py"),
    Rule("The decoder has one string arm (no memo)", 25,
         "The decoder is one walk with no memo.",
         ("src/repro",), Grep(r"_STR_DEC"), "_STR_DEC: dict[bytes, str] = {}"),
    Rule("The decoder has one string arm (_utf8 sites)", 25,
         "A wire string is decoded in two arms, the s tag and a ref's "
         "fields (plus _utf8's own def).",
         ("src/repro/wire/marshal.py",), Grep(r"_utf8\("),
         "value = _utf8(raw)", allowed=3),
    Rule("A frame's size is read once (nbytes)", 26,
         "A message's size is its nbytes field, counted when the frame is "
         "encoded.",
         ("src/repro/rpc/*.py",), Grep(r"len\((data|reply_data)\)"),
         "ctx.charge(costs.marshal_fixed"
         " + len(data) * costs.marshal_byte_cost)"),
    Rule("A frame's size is read once (one envelope arm)", 26,
         "The enveloped arm picks its wire module in one place.",
         ("src/repro",), Grep(r"has_envelope"),
         "wire = versions if versions.has_envelope(headers) else shards"),
    Rule("A plain frame is sized, not written", 27,
         "The RPC layer never reads a message's bytes; what the replay "
         "cache keeps is the wire module's choice.",
         ("src/repro/rpc/*.py",), Grep(r"\.(head|segments)\b"),
         "self._replay[dedup_key] = reply_data.head"),
    Rule("A frame is written only for a peer that must decode it", 28,
         "Pure frames are sized, so nothing memoises a frame or an int, and "
         "the encoder is one arm per type.",
         ("src/repro",),
         Grep(r"_TMPL_ENC|_typed_key|_FAST_ENCODERS|_INT_ENC|_encode_general"),
         "_TMPL_ENC: dict[tuple, tuple] = {}"),
    Rule("An envelope is built from tuples", 33,
         "A q.*/s.* spec and a reply's term, fence and error are tuples, so "
         "an enveloped frame is pure: sized and shared, never copied.",
         ("src/repro",), Tree(_envelope_lists),
         "header = {versions.H_TERM: [self._term, self._leader]}\n"
         'pulled = self._control_call(source, ["pull", key, since], ())\n',
         include="*.py",
         passes=("reply = self._control_call(state.refs[source],\n"
                 '                           ("handoff", point, target))\n',)),
    Rule("An RPC builds a frame only where one is received", 37,
         "An RPC crosses the protocol, the transport and the dispatcher "
         "once each way; a reply is encoded from its fields.",
         ("src/repro",),
         Grep(r"def (_attempt|_handle_at|_dispatch)\b|\.reply_to\("),
         "def _dispatch(self, frame: Frame) -> Frame:"),
    Rule("An envelope is parsed once", 38,
         "A q.*/s.* shape is declared once, in its module's SHAPES, and one "
         "parse checks it.",
         ("src/repro/wire", "src/repro/failures/election.py"),
         Grep(r"def (_parse_control|_term_of)\b"
              r"|int\((control|spec|item)\["),
         "return self._vote(int(control[1]), int(control[2]), now, log)"),
    Rule("A carried message is read as its fields (no frame)", 39,
         "The dispatcher reads a request's fields and builds no frame from "
         "them.",
         ("src/repro/rpc/dispatcher.py",),
         Grep(r"Frame\.decode_message|decode_frame\("),
         "frame = Frame.decode_message(data, decoder)"),
    Rule("A carried message is read as its fields (one literal)", 39,
         "A q.* envelope is one dict literal, not a merge.",
         (_REPLICATING,), Grep(r"\*\*self\._term_header"),
         "{versions.H_READ: (key,), **self._term_header()})"),
    Rule("A shard route is built once per epoch (stored reference)", 40,
         "A routed call passes the reference stored when the ring changed.",
         (_SHARDING,), Grep(r"ObjectRef\(\*spec\), verb"),
         "return self.proxy_protocol.call(context, ObjectRef(*spec), verb,"),
    Rule("A shard route is built once per epoch (map tuple)", 40,
         "A map is the epoch's stored tuple, not a list built per read.",
         ("src/repro/wire/shards.py",), Grep(r"return \[self\.epoch"),
         "return [self.epoch, [list(entry) for entry in self.ring],"),
    Rule("A swizzle hook is called only by the marshaller's two walks "
         "and the carried copy", 45,
         "A reference becomes a ref on the way out and a proxy on the way "
         "in, at the writer, the sizing walk, the decoder and the carried "
         "copy, each in the decoder's order; no other code swizzles.",
         ("src/repro",), Grep(r"(encoder|decoder)_hook\("),
         "fields = [ctx.decoder_hook(ref) for ref in refs]",
         allowed=4, include="*.py"),
    Rule("A bench record has no wall column", 29,
         "Every bench record is exact and gated by diff; host wall time is "
         "benchmarks/perf's alone.",
         ("src/repro", "tools", "tests"),
         Grep(r"CalibrationBracket|calibration_rate|norm_(ops|fast|rate)"
              r"|wall_clock|perf_gate"),
         "from ..timing import wall_clock"),
    Rule("A written frame is one contiguous image", 46,
         "Every frame the product sends is carried; one the carry cannot "
         "take is written whole, so no raw segments ride beside a head.",
         ("src/repro",),
         Grep(r"RAW_THRESHOLD|_TAG_RAW|_ORD_RAW|\.segments\b|\.freeze\("),
         "reply_data = reply_data.freeze()"),
    Rule("A request is encoded from its fields", 47,
         "A round trip builds no frame to encode: the caller writes its "
         "request, the dispatcher its reply or refusal, from the fields.",
         ("src/repro/rpc/protocol.py", "src/repro/rpc/dispatcher.py"),
         Grep(r"\bFrame\("),
         "frame = Frame(REQUEST, msg_id, src.context_id, ref.context_id)"),
)


def tracked(root: pathlib.Path) -> list[str]:
    """The files git checks out under ``root``, as posix paths."""
    out = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others",
         "--exclude-standard"],
        cwd=root, capture_output=True, check=True).stdout.decode()
    return sorted({path for path in out.split("\0")
                   if path and (root / path).is_file()})


def selects(spec: str, path: str) -> bool:
    """Whether a row's path ``spec`` reads ``path``."""
    if spec == ".":
        return True
    folder, glob = posixpath.split(spec)
    if "*" in glob:
        name = posixpath.basename(path)
        return (posixpath.dirname(path) == folder
                and not name.startswith(".")
                and fnmatch.fnmatchcase(name, glob))
    return path == spec or path.startswith(spec + "/")


def _reads(rule: Rule, files: Iterable[str], spec: str | None = None):
    specs = rule.paths if spec is None else (spec,)
    return [path for path in files
            if path != SELF
            and (rule.include is None or fnmatch.fnmatchcase(
                posixpath.basename(path), rule.include))
            and any(selects(s, path) for s in specs)]


def unmatched(rule: Rule, files: list[str]) -> list[str]:
    """The row's paths that match no tracked file it would read."""
    return [spec for spec in rule.paths if not _reads(rule, files, spec)]


def scan(rule: Rule, root: pathlib.Path, files: list[str],
         texts: dict[str, str] | None = None) -> list[str]:
    """Every hit of the row's check, as ``path:line: text``."""
    texts = {} if texts is None else texts

    def read():  # the file the loop below is at, read once per check
        if path not in texts:
            texts[path] = (root / path).read_text(
                encoding="utf-8", errors="replace")
        return texts[path]

    hits = []
    for path in _reads(rule, files):
        for n, line in rule.match.hits(path, read):
            if rule.exclude and re.search(rule.exclude, f"{path}:{n}:{line}"):
                continue
            hits.append(f"{path}:{n}: {line.strip()}" if n else path)
    return hits


def refusals(rule: Rule, root: pathlib.Path, files: list[str],
             texts: dict[str, str] | None = None) -> list[str]:
    """Why the row refuses the tree; empty when it holds."""
    problems = [f"{spec}: matches no tracked file"
                for spec in unmatched(rule, files)]
    hits = scan(rule, root, files, texts)
    if len(hits) != rule.allowed:
        if rule.allowed:
            problems.append(f"{len(hits)} lines match, {rule.allowed} "
                            "allowed")
        problems += hits
    return problems


def check(root: pathlib.Path, files: list[str] | None = None,
          rules: Iterable[Rule] = RULES) -> list[str]:
    """Every refusal under ``root``, as ``rule (PR n): problem``."""
    files = tracked(root) if files is None else files
    texts: dict[str, str] = {}
    return [f"{rule.name} (PR {rule.pr}): {problem}"
            for rule in rules
            for problem in refusals(rule, root, files, texts)]


def main(argv: list[str]) -> int:
    root = pathlib.Path(argv[1]) if len(argv) > 1 else pathlib.Path(".")
    files = tracked(root)
    texts: dict[str, str] = {}
    refused = 0
    for rule in RULES:
        problems = refusals(rule, root, files, texts)
        if problems:
            refused += 1
            print(f"refused: {rule.name} (PR {rule.pr}) -- {rule.why}")
            for problem in problems:
                print(f"  {problem}")
    if refused:
        print(f"arch lint: {refused} of {len(RULES)} rules refused")
        return 1
    print(f"arch lint: {len(RULES)} rules hold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
