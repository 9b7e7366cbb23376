"""Every top-level function, class and assigned name in the package has a use somewhere.

A public name may be used by tests or demos alone; a private one (a
leading underscore) must be used by the package itself, so a helper kept
only for a test does not pass.  The reference modules under tests/ (the
ones not named test_*) keep replaced forms for the tests to compare
against, so each of their top-level functions and classes must be named
in some test file.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _words(text: str) -> Counter:
    return Counter(re.findall(r"\w+", text))


def test_every_top_level_definition_is_named_outside_itself():
    words, src_words = Counter(), Counter()
    for folder in ("src", "tests", "demos"):
        for path in (ROOT / folder).rglob("*.py"):
            found = _words(path.read_text())
            words += found
            if folder == "src":
                src_words += found
    unused = []
    for path in sorted((ROOT / "src" / "fqtcount").glob("*.py")):
        lines = path.read_text().splitlines(keepends=True)
        for node in ast.parse("".join(lines)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for target in targets for t in ast.walk(target)
                         if isinstance(t, ast.Name) and not re.fullmatch(r"__\w+__", t.id)]
            else:
                continue
            start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            own = _words("".join(lines[start - 1 : node.end_lineno]))
            unused += [f"{path.name}:{name}" for name in names
                       if (src_words if name.startswith("_") else words)[name] == own[name]]
    assert unused == []


def test_every_reference_in_tests_is_named_by_a_test():
    tests = ROOT / "tests"
    test_words = Counter()
    for path in tests.glob("test_*.py"):
        test_words += _words(path.read_text())
    unused = [f"{path.name}:{node.name}"
              for path in sorted(tests.glob("*.py")) if not path.name.startswith("test_")
              for node in ast.parse(path.read_text()).body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and not test_words[node.name]]
    assert unused == []


def test_every_import_in_the_package_is_used():
    # __init__ imports to re-export, and __future__ imports switch on features
    unused = []
    for path in sorted((ROOT / "src" / "fqtcount").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = [
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
            for alias in node.names
        ]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{name}" for name in imported if name not in used]
    assert unused == []
