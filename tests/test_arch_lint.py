"""The architecture rules hold on this tree, and every rule is live: it
refuses the code it was written against, and each path it reads exists.

The fixtures live in the table (``tools/arch_lint.py``), so this file
spells none of the names the rules ban.
"""

import importlib.util
import pathlib
import subprocess

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location(
    "arch_lint", REPO_ROOT / "tools" / "arch_lint.py")
arch_lint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(arch_lint)

RULES = {rule.name: rule for rule in arch_lint.RULES}
ENVELOPE = RULES["An envelope is built from tuples"]


def plant(rule, root, text):
    """Write ``text`` into a file under the rule's first path; return the
    file's path (for a tracked-artefact row, ``text`` is the path)."""
    if isinstance(rule.match, arch_lint.Tracked):
        path, text = text, ""
    elif rule.paths[0].endswith(".py"):
        path = rule.paths[0].replace("*", "planted")
    else:
        path = f"{rule.paths[0]}/planted.py"
    (root / path).parent.mkdir(parents=True, exist_ok=True)
    (root / path).write_text(text, encoding="utf-8")
    return path


def test_the_tree_keeps_every_rule():
    assert arch_lint.check(REPO_ROOT) == []


def test_rule_names_are_unique():
    assert len(RULES) == len(arch_lint.RULES)


@pytest.mark.parametrize("name", RULES)
def test_every_path_a_rule_reads_is_tracked(name):
    files = arch_lint.tracked(REPO_ROOT)
    assert arch_lint.unmatched(RULES[name], files) == []


@pytest.mark.parametrize("name", RULES)
def test_a_rule_refuses_its_fixture(tmp_path, name):
    # A count row gets one line past its allowance.
    rule = RULES[name]
    text = "\n".join([rule.fixture] * (rule.allowed + 1))
    path = plant(rule, tmp_path, text)
    hits = arch_lint.scan(rule, tmp_path, [path])
    assert len(hits) > rule.allowed
    assert all(hit.startswith(path) for hit in hits)
    assert arch_lint.refusals(rule, tmp_path, [path])


@pytest.mark.parametrize("name", [
    name for name, rule in RULES.items() if rule.passes])
def test_a_rule_lets_its_passes_through(tmp_path, name):
    rule = RULES[name]
    for text in rule.passes:
        path = plant(rule, tmp_path, text)
        assert arch_lint.scan(rule, tmp_path, [path]) == []


def test_the_envelope_rule_convicts_a_list_spec_not_a_subscript(tmp_path):
    # The fixture is two list specs as PR 33 found them, one an envelope
    # key's value and one a control call's argument; the pass is PR 40's
    # handoff, whose only bracket indexes the stored references.
    path = plant(ENVELOPE, tmp_path, ENVELOPE.fixture)
    hits = arch_lint.scan(ENVELOPE, tmp_path, [path])
    assert [hit.split(": ")[0] for hit in hits] == [f"{path}:1", f"{path}:2"]
    assert "state.refs[source]" in ENVELOPE.passes[0]


def test_the_envelope_rule_reads_a_call_across_lines(tmp_path):
    path = plant(ENVELOPE, tmp_path,
                 "reply = self._control_call(\n"
                 '    index, ["renew", term, leader], ())\n')
    assert arch_lint.scan(ENVELOPE, tmp_path, [path]) == [
        f'{path}:2: index, ["renew", term, leader], ())']


def test_a_module_that_does_not_parse_is_refused(tmp_path):
    path = plant(ENVELOPE, tmp_path, "def broken(:\n")
    assert arch_lint.scan(ENVELOPE, tmp_path, [path]) == [
        f"{path}:1: does not parse"]


def test_a_renamed_file_disarms_no_rule():
    # A row that names one file refuses when the file is gone, instead of
    # reading nothing and passing.
    sharding = "src/repro/core/policies/sharding.py"
    renamed = [path.replace(sharding, sharding[:-3] + "2.py")
               for path in arch_lint.tracked(REPO_ROOT)]
    readers = [rule for rule in arch_lint.RULES if sharding in rule.paths]
    assert len(readers) == 2
    for rule in readers:
        assert arch_lint.unmatched(rule, renamed) == [sharding]
        problems = arch_lint.check(REPO_ROOT, renamed, [rule])
        assert problems == [f"{rule.name} (PR {rule.pr}): {sharding}: "
                            "matches no tracked file"]


def test_a_count_row_refuses_too_few_lines(tmp_path):
    rule = RULES["Reflection has one home"]
    path = plant(rule, tmp_path, rule.fixture)
    assert arch_lint.refusals(rule, tmp_path, [path]) == [
        "1 lines match, 2 allowed", f"{path}:1: {rule.fixture}"]


def test_the_command_names_each_refused_rule(tmp_path, capsys):
    subprocess.run(["git", "init", "-q"], cwd=tmp_path, check=True)
    rule = RULES["One fault timeline"]
    path = plant(rule, tmp_path, rule.fixture)
    assert arch_lint.main(["arch_lint.py", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert f"refused: {rule.name} (PR {rule.pr})" in out
    assert f"  {path}:1: {rule.fixture}" in out


def test_the_command_passes_this_tree(capsys):
    assert arch_lint.main(["arch_lint.py", str(REPO_ROOT)]) == 0
    assert capsys.readouterr().out == (
        f"arch lint: {len(arch_lint.RULES)} rules hold\n")
