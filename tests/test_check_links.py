"""The link checker flags markdown files cited from code that do not exist."""

import shutil
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "check_links.py"
# Markdown names are assembled at run time: written out literally, the
# names of the temporary tree would be dangling citations of this file.
MD = ".md"


def _check(root: Path) -> subprocess.CompletedProcess:
    """Run the checker as ``root/tools/check_links.py``: it checks ``root``."""
    return subprocess.run(
        [sys.executable, str(root / "tools" / "check_links.py")],
        capture_output=True,
        text=True,
    )


def _tree(root: Path) -> None:
    """A minimal repository: README, docs/, the checker, one module citing docs."""
    (root / "tools").mkdir()
    shutil.copy(SCRIPT, root / "tools")
    (root / "docs").mkdir()
    (root / "docs" / f"GUIDE{MD}").write_text("# Guide\n")
    (root / f"README{MD}").write_text(f"See [the guide](docs/GUIDE{MD}).\n")
    pkg = root / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "mod.py").write_text(
        f'"""Tuned as GUIDE{MD} and docs/GUIDE{MD} explain; see NOTES{MD}.\n\n'
        f"Names in URLs (https://example.org/x/OTHER{MD}) and globs (*{MD})\n"
        'are not citations.\n"""\n'
    )
    (root / "tests").mkdir()


def test_dangling_citation_fails_and_fixed_tree_passes(tmp_path):
    _tree(tmp_path)
    broken = _check(tmp_path)
    assert broken.returncode == 1
    assert f"mod.py:1: dangling citation -> NOTES{MD}" in broken.stdout
    assert broken.stdout.count("dangling citation") == 1

    (tmp_path / f"NOTES{MD}").write_text("# Notes\n")
    fixed = _check(tmp_path)
    assert fixed.returncode == 0, fixed.stdout


def test_citation_in_tests_is_checked(tmp_path):
    _tree(tmp_path)
    (tmp_path / f"NOTES{MD}").write_text("# Notes\n")
    (tmp_path / "tests" / "test_x.py").write_text(f"# numbers live in RESULTS{MD}\n")
    result = _check(tmp_path)
    assert result.returncode == 1
    assert f"test_x.py:1: dangling citation -> RESULTS{MD}" in result.stdout
