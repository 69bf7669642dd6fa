#!/usr/bin/env python
"""Doc-rot checker: verify that the documentation still points at things
that exist.

Checks, over README.md, ROADMAP.md, and docs/*.md:

1. every relative markdown link ``[text](path)`` resolves to an existing
   file (anchors ``#...`` are stripped; external ``http(s)://`` and
   ``mailto:`` links are skipped);
2. every repository path mentioned in backticks or tables
   (``src/repro/...py``, ``tests/...py``, ``benchmarks/...``, ``docs/...``,
   ``tools/...``, ``examples/...``) exists;
3. every dotted ``repro.*`` or ``tests.reference.*`` name resolves to an
   importable module, or an attribute of one
   (``repro.congest.router.route_rounds`` must import
   ``repro.congest.router`` and find ``route_rounds`` on it; a docstring
   pointer at a reference form, ``tests.reference.step2_sample_loops``,
   must find that function in ``tests/reference.py``).

Check 3 also runs over the library's own sources, ``src/**/*.py``, so a
docstring role such as ``:class:`~repro.congest.batch.MessageBatch``` or an
import of a deleted module is caught when the name it points at goes away.

Exit code 0 when clean; 1 with a per-finding report otherwise.  Run from
the repository root (CI does) — ``src/`` and the repository root are put
on ``sys.path`` automatically so the import checks work without
installation.
"""

from __future__ import annotations

import importlib
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOC_FILES = [ROOT / "README.md", ROOT / "ROADMAP.md", *sorted((ROOT / "docs").glob("*.md"))]
SOURCE_FILES = sorted((ROOT / "src").rglob("*.py"))

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
PATH_RE = re.compile(
    r"\b((?:src/repro|tests|benchmarks|docs|tools|examples)/[\w./\-]+)"
)
MODULE_RE = re.compile(r"\b(?:repro|tests\.reference)(?:\.\w+)+")

#: Dotted-name suffixes documentation may reference without them being
#: importable attributes (CLI flags rendered as repro options, etc.).
SKIP_MODULE_PREFIXES = ("repro.egg",)


def check_links(path: pathlib.Path, text: str) -> list[str]:
    problems = []
    for target in LINK_RE.findall(text):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        relative = target.split("#", 1)[0]
        if not relative:
            continue
        resolved = (path.parent / relative).resolve()
        if not resolved.exists():
            problems.append(f"{path.name}: broken link -> {target}")
    return problems


def check_paths(path: pathlib.Path, text: str) -> list[str]:
    problems = []
    for mention in set(PATH_RE.findall(text)):
        candidate = ROOT / mention.rstrip(".")
        # Allow glob/placeholder mentions like benchmarks/test_eN_*.py.
        if "*" in mention or "eN" in pathlib.PurePath(mention).name:
            continue
        if not candidate.exists():
            problems.append(f"{path.name}: missing path -> {mention}")
    return problems


def resolve_dotted(name: str) -> bool:
    """True iff ``name`` is an importable module or a chain of attributes
    hanging off one."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        module_name = ".".join(parts[:cut])
        try:
            obj = importlib.import_module(module_name)
        except ImportError:
            continue
        try:
            for attr in parts[cut:]:
                obj = getattr(obj, attr)
        except AttributeError:
            return False
        return True
    return False


def check_modules(path: pathlib.Path, text: str) -> list[str]:
    problems = []
    where = path.relative_to(ROOT) if path.is_relative_to(ROOT) else path.name
    for name in sorted(set(MODULE_RE.findall(text))):
        if name.startswith(SKIP_MODULE_PREFIXES):
            continue
        if not resolve_dotted(name):
            problems.append(f"{where}: unresolvable name -> {name}")
    return problems


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    problems: list[str] = []
    for doc in DOC_FILES:
        if not doc.exists():
            problems.append(f"missing documentation file: {doc}")
            continue
        text = doc.read_text()
        problems += check_links(doc, text)
        problems += check_paths(doc, text)
        problems += check_modules(doc, text)
    for source in SOURCE_FILES:
        problems += check_modules(source, source.read_text())
    if problems:
        print(f"{len(problems)} documentation problem(s):")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print(
        f"docs clean: {len(DOC_FILES)} files checked, "
        f"{len(SOURCE_FILES)} source files' dotted names resolved"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
