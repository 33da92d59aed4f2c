"""The README's examples run as written: its "Library use" Python blocks
execute in order in one namespace, every ``ghz-sim`` line of its shell
blocks runs through ``cli.main``, and every result table is the one
``scripts/tables.py`` generates, so none can drift from the program."""

import importlib.util
import re
import shlex
from collections import Counter
from pathlib import Path

import pytest

from ghz_sim.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
spec = importlib.util.spec_from_file_location("tables",
                                              ROOT / "scripts" / "tables.py")
tables = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tables)


def library_use_blocks() -> list[str]:
    """Each Python block of the "Library use" section, padded with blank
    lines so that a traceback names its line in the README."""
    text = README.read_text(encoding="utf-8")
    start = text.index("\n## Library use\n")
    end = text.find("\n## ", start + 1)
    return ["\n" * text.count("\n", 0, block.start(1)) + block.group(1)
            for block in re.finditer(r"```python\n(.*?)```",
                                     text[:end] if end >= 0 else text,
                                     flags=re.DOTALL)
            if block.start() > start]


def test_library_use_examples_run_in_order():
    blocks = library_use_blocks()
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def shell_examples() -> list[list[str]]:
    """The arguments of each ``ghz-sim`` command in the README's shell
    blocks, comments dropped."""
    text = README.read_text(encoding="utf-8")
    return [shlex.split(line, comments=True)[1:]
            for block in re.findall(r"```sh\n(.*?)```", text, flags=re.DOTALL)
            for line in block.splitlines() if line.startswith("ghz-sim ")]


def test_readme_has_shell_examples_of_every_subcommand():
    assert {argv[0] for argv in shell_examples()} == \
        {"validate", "ghz", "sweep"}


@pytest.mark.parametrize("argv", shell_examples(), ids=shlex.join)
def test_shell_example_runs(argv, tmp_path, monkeypatch):
    # outputs land in tmp_path; validate exits 1 by design, its two
    # factor-2 checks being acceptance criteria 03 and 04
    monkeypatch.chdir(tmp_path)
    assert main(argv) == (1 if argv == ["validate"] else 0)


def test_every_table_has_one_marker_pair():
    # a table whose markers went missing would drop out of the check below
    marks = Counter(re.findall(r"<!-- (/?)table:(\w+) -->",
                               README.read_text(encoding="utf-8")))
    names = {name for _, name in marks} | set(tables.TABLES)
    assert sorted(name for name in names if name not in tables.TABLES
                  or marks["", name] != 1 or marks["/", name] != 1) == []


@pytest.mark.parametrize("name", tables.TABLES)
def test_readme_table_is_regenerated(name):
    text = README.read_text(encoding="utf-8")
    assert tables.rewrite(text, name, tables.TABLES[name]()) == text
