"""The reach report's comparison, on a fixture module instead of the
product surface (``python tools/reach.py`` runs that, in CI's ``reach``
job): a never-entered function is reported until the ledger lists it, a
listed function that was entered is stale, and a tag outside the fixed set
is refused."""

import importlib.util
import pathlib
import re

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location(
    "reach", REPO_ROOT / "tools" / "reach.py")
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)

FIXTURE = '''
def used():
    return 1


def planted():
    return 2


class Box:
    @property
    def size(self):
        return 3

    @size.setter
    def size(self, value):
        pass
'''


@pytest.fixture
def measured(tmp_path):
    """``(defs, entered)`` of a fixture package whose ``used`` and
    ``Box.size`` getter run, and nothing else."""
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(FIXTURE, encoding="utf-8")
    spec = importlib.util.spec_from_file_location(
        "reach_fixture", package / "mod.py")
    module = importlib.util.module_from_spec(spec)
    with reach.Profile() as profile:
        spec.loader.exec_module(module)
        module.used()
        module.Box().size
    return reach.outermost_defs(package), profile.entered(package)


def test_a_planted_def_is_reported_until_listed(measured):
    defs, entered = measured
    assert sorted(defs.values()) == [
        "Box.size", "Box.size.setter", "planted", "used"]
    assert reach.compare(defs, entered, "") == [
        "never entered, not listed: mod.py:Box.size.setter",
        "never entered, not listed: mod.py:planted"]
    ledger = ("# a comment\n"
              "mod.py:planted  next  the fixture's dead def\n"
              "mod.py:Box.size.setter  debug  a setter\n")
    assert reach.compare(defs, entered, ledger) == []


def test_a_line_naming_an_entered_function_is_stale(measured):
    defs, entered = measured
    ledger = ("mod.py:planted  next\n"
              "mod.py:Box.size.setter  debug\n"
              "mod.py:used  next  it ran\n"
              "mod.py:gone  next  deleted\n")
    assert reach.compare(defs, entered, ledger) == [
        "listed, but no such def: mod.py:gone",
        "listed, but entered: mod.py:used"]


def test_an_unknown_tag_is_refused(measured):
    defs, entered = measured
    ledger = ("mod.py:planted  someday  not a tag\n"
              "mod.py:Box.size.setter  debug\n"
              "mod.py:Box.size.setter  debug\n"
              "no-colon  next\n")
    assert reach.compare(defs, entered, ledger) == [
        "line 1: unknown tag 'someday'",
        "line 3: mod.py:Box.size.setter listed twice",
        "line 4: not 'path:qualname  tag  note'",
        "never entered, not listed: mod.py:planted"]


def test_the_committed_ledger_parses_and_names_real_defs():
    listed, problems = reach.read_ledger(
        reach.LEDGER.read_text(encoding="utf-8"))
    assert problems == []
    names = {f"{path}:{qualname}"
             for (path, _), qualname in reach.outermost_defs(
                 reach.PACKAGE).items()}
    assert listed.keys() <= names


def test_the_surface_runs_every_repro_command_ci_runs():
    ci = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text(
        encoding="utf-8")
    loop = re.search(r"for b in ([^;]+); do", ci).group(1).split()
    commands = set()
    for line in ci.splitlines():
        found = re.search(r"python -m repro (.+?)"
                          r"(?: \| diff .*| \|\| code=\$\?| > \S+)?$", line)
        if found:
            # A command without ``$b`` is the same string for every b.
            commands.update(found.group(1).replace("$b", b) for b in loop)
    assert commands and commands <= set(reach.COMMANDS)
