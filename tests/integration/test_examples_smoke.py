"""Smoke tests: the fast example scripts must run end to end.

Only the sub-second examples run here (the simulation-heavy ones are
exercised through the same engine APIs elsewhere); each is executed
in-process via runpy so coverage tools see them.
"""

import runpy
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str, capsys) -> str:
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return capsys.readouterr().out


@pytest.mark.skipif(not EXAMPLES.exists(), reason="examples directory missing")
class TestFastExamples:
    def test_reputation_design(self, capsys):
        out = run_example("reputation_design.py", capsys)
        assert "best response" in out
        assert "saturation" in out.lower()

    def test_tft_vs_reputation(self, capsys):
        out = run_example("tft_vs_reputation.py", capsys)
        assert "ordered pairs with any direct history" in out
        assert "shared-history reputation covers 100%" in out

    def test_experiment_store(self, capsys):
        out = run_example("experiment_store.py", capsys)
        assert "first sweep" in out
        assert "'hits': 0" in out.split("second sweep")[0]
        assert "'misses': 0" in out.split("second sweep")[1]

    def test_examples_have_docstrings_and_main(self):
        for path in EXAMPLES.glob("*.py"):
            text = path.read_text()
            assert '"""' in text.split("\n", 2)[1] or text.startswith(
                "#!/usr/bin/env python"
            ), f"{path.name} lacks a header"
            assert 'if __name__ == "__main__":' in text, f"{path.name} lacks main"
