"""Every top-level function and class in the package has a use somewhere."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _words(text: str) -> Counter:
    return Counter(re.findall(r"\w+", text))


def test_every_top_level_definition_is_named_outside_itself():
    words = Counter()
    for folder in ("src", "tests", "demos"):
        for path in (ROOT / folder).rglob("*.py"):
            words += _words(path.read_text())
    unused = []
    for path in sorted((ROOT / "src" / "fqtcount").glob("*.py")):
        lines = path.read_text().splitlines(keepends=True)
        for node in ast.parse("".join(lines)).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            start = min([node.lineno] + [d.lineno for d in node.decorator_list])
            own = _words("".join(lines[start - 1 : node.end_lineno]))
            if words[node.name] == own[node.name]:
                unused.append(f"{path.name}:{node.name}")
    assert unused == []
