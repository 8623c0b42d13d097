"""One error text, one raise site.

Each input rule of the package has one body, which holds the rule's test and
its one message. A second ``raise`` with the same text is a second copy of
the rule, which a change to the rule would have to find and keep in step.
This scan reads the package's sources with ``ast`` and fails for any error
text raised from two places.
"""

from __future__ import annotations

import ast
import re
from collections import defaultdict
from pathlib import Path

import starq

SRC = Path(starq.__file__).resolve().parent


def template(node: ast.expr) -> str | None:
    """The text of a string literal or f-string with each placeholder
    written ``{}``; None for any other expression."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(v.value if isinstance(v, ast.Constant) else "{}" for v in node.values)
    return None


def raise_texts(tree: ast.AST):
    """``(line, text)`` for each ``raise E(text, ...)`` whose first argument
    is a literal text with a word of its own. A text of placeholders and
    punctuation alone, such as ``{path}: {exc}``, only prefixes another
    error's text and is not a rule's message."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args:
            text = template(node.exc.args[0])
            if text is not None and re.search(r"[A-Za-z]", text.replace("{}", "")):
                yield node.lineno, text


def sites_by_text(paths) -> dict[str, list[str]]:
    sites = defaultdict(list)
    for path in paths:
        for line, text in sorted(raise_texts(ast.parse(path.read_text(encoding="utf-8")))):
            sites[text].append(f"{path.name}:{line}")
    return sites


def test_each_error_text_has_one_raise_site():
    shared = {text: where for text, where in sites_by_text(sorted(SRC.glob("*.py"))).items()
              if len(where) > 1}
    assert shared == {}


def test_scan_finds_a_repeated_text(tmp_path):
    # The scan itself: placeholders are normalized, literal and f-string
    # texts compare equal, and a pure prefix wrapper is not counted.
    source = tmp_path / "twins.py"
    source.write_text(
        "def f(n, exc, path):\n"
        "    if n:\n"
        "        raise ValueError(f'line {n}: {exc}')\n"
        "    raise ValueError(f'line {n + 1}: {exc!r}')\n"
        "def g(path, exc):\n"
        "    raise ValueError(f'{path}: {exc}')\n"
        "def h(path, exc):\n"
        "    raise ValueError(f'{path}: {exc}')\n"
        "def k():\n"
        "    raise ValueError('line {}: {}')\n",
        encoding="utf-8",
    )
    assert sites_by_text([source]) == {"line {}: {}": ["twins.py:3", "twins.py:4", "twins.py:10"]}
