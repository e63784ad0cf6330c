"""The package's docstrings and comments, and the README, state reasons and invariants, not measurements.

Timings and memory figures depend on the machine and go stale with the
code; they are recorded in CHANGES.md with the hardware they came from.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

import anchorkit

# a number followed by a time, throughput or memory unit: "3.4 ms", "59 MB", "4.0 images/s"
MEASURED = re.compile(r"\d\s*(?:ms|us|µs|MB|images/s)\b")


def prose(source: str):
    """Yield (line, text) for every comment and docstring of a module's source."""
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            yield tok.start[0], tok.string
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            doc = ast.get_docstring(node, clean=False)
            if doc is not None:
                yield node.body[0].lineno, doc


def test_pattern_finds_figures():
    found = [text for _, text in prose('"""Took 3.4 ms, peaked at 59 MB."""\n# 4.0 images/s\nx = 1  # 1 MiB blocks\n')]
    assert [bool(MEASURED.search(text)) for text in found] == [True, False, True]


def test_no_measured_figures_in_docstrings_or_comments():
    root = Path(anchorkit.__file__).parent
    found = [
        f"{path.name}:{line}: {match.group(0)!r}"
        for path in sorted(root.glob("*.py"))
        for line, text in prose(path.read_text())
        for match in MEASURED.finditer(text)
    ]
    assert not found, "measured figures belong in CHANGES.md:\n" + "\n".join(found)


def test_no_measured_figures_in_readme():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    found = [
        f"README.md:{line}: {match.group(0)!r}"
        for line, text in enumerate(readme.read_text().splitlines(), 1)
        for match in MEASURED.finditer(text)
    ]
    assert not found, "measured figures belong in CHANGES.md:\n" + "\n".join(found)
