"""The README's "Library use" examples run as written: its Python blocks
execute in order in one namespace, so they cannot drift from the API."""

import re
from pathlib import Path

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
