"""Doc-sync gate: every fenced python block in the docs, and every
``examples/*.py`` script, must run.

Delegates to ``scripts/check_docs_examples.py`` (the CI entry point)
and also unit-tests its block extraction and example runner, so a
silently-matching-nothing regex or a swallowed exit code cannot fake
a green check.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_ROOT / "scripts"))

import check_docs_examples  # noqa: E402


class TestBlockExtraction:
    def test_finds_python_blocks(self):
        text = ("prose\n```python\nx = 1\n```\nmore\n"
                "```bash\necho hi\n```\n"
                "```python\ny = x + 1\n```\n")
        blocks = check_docs_examples.python_blocks(text)
        assert blocks == ["x = 1", "y = x + 1"]

    def test_ignores_unterminated_fence(self):
        assert check_docs_examples.python_blocks(
            "```python\nx = 1\n") == []

    def test_docs_actually_contain_blocks(self):
        """The regex must match the real docs, not just the fixture."""
        documents = check_docs_examples.default_documents()
        assert len(documents) >= 4  # index, api, architecture, queries
        total = sum(len(check_docs_examples.python_blocks(
            path.read_text(encoding="utf-8"))) for path in documents)
        assert total >= 10


class TestExecution:
    def test_failing_block_reported(self, tmp_path):
        bad = tmp_path / "bad.md"
        bad.write_text("```python\nraise ValueError('boom')\n```\n")
        count, failures = check_docs_examples.run_document(bad)
        assert count == 1
        assert len(failures) == 1
        assert "boom" in failures[0]

    def test_blocks_share_a_namespace(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text("```python\nvalue = 41\n```\n"
                       "```python\nassert value + 1 == 42\n```\n")
        count, failures = check_docs_examples.run_document(doc)
        assert count == 2 and not failures

    def test_missing_document_fails(self, capsys):
        assert check_docs_examples.main(["/nonexistent/doc.md"]) == 1


class TestExamples:
    def test_every_example_is_covered(self):
        covered = {path.name for path
                   in check_docs_examples.default_documents()
                   if path.suffix == ".py"}
        assert "quickstart.py" in covered and len(covered) >= 5

    def test_failing_example_reported(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("print('partial')\nraise SystemExit(3)\n")
        (failure,) = check_docs_examples.run_example(bad)
        assert "exited with 3" in failure and "partial" in failure

    def test_hung_example_times_out(self, tmp_path):
        slow = tmp_path / "slow.py"
        slow.write_text("import time\ntime.sleep(30)\n")
        (failure,) = check_docs_examples.run_example(slow, timeout=0.5)
        assert "timed out" in failure

    def test_example_sees_the_package(self, tmp_path):
        ok = tmp_path / "ok.py"
        ok.write_text("import repro\n")
        assert check_docs_examples.run_example(ok) == []


def test_all_docs_execute_cleanly(capsys):
    """The acceptance gate: the real docs, end to end."""
    assert check_docs_examples.main() == 0
    out = capsys.readouterr().out
    assert "executed cleanly" in out
