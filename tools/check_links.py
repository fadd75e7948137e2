#!/usr/bin/env python3
"""Check that relative markdown links, and markdown files cited from code, exist.

Usage::

    python tools/check_links.py [file-or-dir ...]

Defaults to ``README.md``, ``docs/``, ``src/`` and ``tests/`` of the
checkout holding this script.  Two checks run over what the paths hold:

* markdown files: every repository-relative link target must exist
  (external ``http(s)``/``mailto`` URLs and pure ``#fragment`` anchors
  are skipped — CI must not depend on the network);
* Python files: every ``*.md`` name a docstring or comment cites
  (``EXPERIMENTS.md``, ``docs/SERVICE.md``) must exist at the checkout's
  root or under its ``docs/``.  Names inside URLs and globs are skipped.

Exit status 1 lists every broken link and every dangling citation.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

#: Inline markdown links: [text](target) — images included via the
#: leading '!', which needs no special casing for existence checks.
_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
_SKIP_PREFIXES = ("http://", "https://", "mailto:", "#")
#: A cited markdown file name; the look-behind skips names inside URLs,
#: paths and glob patterns (``https://host/x.md``, ``*.md``).
_CITE_RE = re.compile(r"(?<![\w./:*-])([\w./-]+\.md)\b")


def iter_files(paths: list[Path], suffix: str):
    """Yield every file with ``suffix`` under the given files/directories."""
    for path in paths:
        if path.is_dir():
            yield from sorted(path.rglob(f"*{suffix}"))
        elif path.suffix == suffix:
            yield path


def broken_links(md_file: Path, repo_root: Path) -> list[str]:
    """Relative link targets in ``md_file`` that do not exist on disk."""
    bad = []
    for match in _LINK_RE.finditer(md_file.read_text(encoding="utf-8")):
        target = match.group(1)
        if target.startswith(_SKIP_PREFIXES):
            continue
        # Strip an anchor; the file part is what must exist.
        file_part = target.split("#", 1)[0]
        if not file_part:
            continue
        resolved = (
            repo_root / file_part.lstrip("/")
            if file_part.startswith("/")
            else md_file.parent / file_part
        )
        if not resolved.exists():
            bad.append(target)
    return bad


def dangling_citations(py_file: Path, repo_root: Path) -> list[tuple[int, str]]:
    """``(line, name)`` of each ``*.md`` name in ``py_file`` that exists
    neither under ``repo_root`` nor under ``repo_root / "docs"``."""
    text = py_file.read_text(encoding="utf-8")
    bad = []
    for match in _CITE_RE.finditer(text):
        name = match.group(1)
        if not any((base / name).is_file() for base in (repo_root, repo_root / "docs")):
            bad.append((text.count("\n", 0, match.start()) + 1, name))
    return bad


def main(argv: list[str]) -> int:
    """Check all given paths; print what is broken and return the status."""
    repo_root = Path(__file__).resolve().parent.parent
    paths = (
        [Path(a) for a in argv]
        if argv
        else [repo_root / name for name in ("README.md", "docs", "src", "tests")]
    )
    failures = 0
    n_md = n_py = 0
    for md_file in iter_files(paths, ".md"):
        n_md += 1
        for target in broken_links(md_file, repo_root):
            print(f"{md_file}: broken link -> {target}")
            failures += 1
    for py_file in iter_files(paths, ".py"):
        n_py += 1
        for line, name in dangling_citations(py_file, repo_root):
            print(f"{py_file}:{line}: dangling citation -> {name}")
            failures += 1
    print(
        f"checked {n_md} markdown and {n_py} Python file(s), "
        f"{failures} broken link(s) or citation(s)"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
