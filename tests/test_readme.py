"""The README's examples run as written: its "Library use" Python blocks
execute in order in one namespace, and every ``ghz-sim`` line of its shell
blocks runs through ``cli.main``, so neither can drift from the program."""

import re
import shlex
from pathlib import Path

import pytest

from ghz_sim.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


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
