"""The library holds only what the command line reaches.

Every top-level ``def`` and ``class`` in ``src/cosynth/*.py`` must be reached
by following names from ``cosynth.cli.main`` (the console script) or from a
short list of kept entries, each with its reason.  A definition that only
the tests call belongs in ``tests/conftest.py``.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cosynth"

ROOT = "main"  # cosynth.cli:main, the console script

# Each kept entry with its reason.  The set shrinks when the modular mission
# check goes on the pipeline path (ROADMAP item 2).
KEPT = {
    "satisfies_modular": "the mission check without the monolithic mission, "
                         "which the pipeline is to adopt; it also keeps words_dfa",
    "environment_to_text": "writer of the .env format; its round-trip test pins the format",
    "labeling_to_text": "writer of the .pi format; its round-trip test pins the format",
}


def _definitions() -> tuple[dict[str, list[ast.AST]], list[ast.AST], dict[str, str]]:
    """Top-level definitions by name, the module-level statements that run
    on import, and the ``import … as`` aliases of every module."""
    defs: dict[str, list[ast.AST]] = {}
    on_import: list[ast.AST] = []
    aliases: dict[str, str] = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append(node)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    if alias.asname:
                        aliases[alias.asname] = alias.name.rsplit(".", 1)[-1]
            else:
                on_import.append(node)
    return defs, on_import, aliases


def _names(node: ast.AST, aliases: dict[str, str]) -> set[str]:
    """Every name *node* refers to, as a bare name or an attribute, with
    aliases resolved to the names they import."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out | {aliases[n] for n in out if n in aliases}


def unreached() -> list[str]:
    defs, on_import, aliases = _definitions()
    reached: set[str] = set()
    pending = [ROOT, *KEPT]
    for node in on_import:
        pending.extend(_names(node, aliases))
    while pending:
        name = pending.pop()
        if name in reached or name not in defs:
            continue
        reached.add(name)
        for node in defs[name]:
            pending.extend(_names(node, aliases))
    return sorted(set(defs) - reached)


def test_every_library_definition_is_reached_from_the_cli_or_a_kept_entry():
    assert unreached() == []


def test_the_kept_entries_exist():
    defs, _, _ = _definitions()
    assert ROOT in defs
    assert set(KEPT) <= set(defs)
