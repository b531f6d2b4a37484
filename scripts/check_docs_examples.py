#!/usr/bin/env python3
"""Doc-sync check: execute every fenced ``python`` block and example.

Documentation that drifts from the code is worse than no
documentation, so this script *runs* the docs: every fenced

    ```python
    ...
    ```

block in ``docs/*.md`` (plus ``README.md``) is executed, top to
bottom.  Blocks within one file share a namespace — later examples may
build on earlier ones, exactly as a reader would run them.  Any
exception fails the check with the offending file, block number and
traceback.

Every ``examples/*.py`` script runs too, each in its own subprocess
(with ``src/`` on its path and a scratch working directory) under a
timeout of :data:`EXAMPLE_TIMEOUT_SECONDS`; a nonzero exit or a
timeout fails the check with the script's output.

Usage::

    python scripts/check_docs_examples.py            # docs + examples
    python scripts/check_docs_examples.py docs/api.md  # one file
    python scripts/check_docs_examples.py examples/quickstart.py

Exit code 0 when every block and example runs cleanly, 1 otherwise.  Wired into
the test suite as ``tests/test_docs_examples.py`` so ``pytest`` gates
on doc freshness.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from typing import Iterable, List, Tuple

_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_ROOT / "src"))

_FENCE = re.compile(r"^```python[ \t]*$(.*?)^```[ \t]*$",
                    re.MULTILINE | re.DOTALL)

#: Wall-clock budget per example script (the five take ~11 s in all).
EXAMPLE_TIMEOUT_SECONDS = 120.0


def default_documents() -> List[Path]:
    """Every document and example the check covers, in a stable order."""
    documents = sorted((_ROOT / "docs").glob("*.md"))
    readme = _ROOT / "README.md"
    if readme.exists():
        documents.append(readme)
    return documents + sorted((_ROOT / "examples").glob("*.py"))


def python_blocks(text: str) -> List[str]:
    """The fenced ``python`` blocks of one markdown document."""
    return [match.group(1).strip("\n")
            for match in _FENCE.finditer(text)]


def _display(path: Path) -> str:
    """Repo-relative rendering when possible, absolute otherwise."""
    try:
        return str(path.relative_to(_ROOT))
    except ValueError:
        return str(path)


def run_document(path: Path) -> Tuple[int, List[str]]:
    """Execute one document's blocks; returns (count, failures)."""
    blocks = python_blocks(path.read_text(encoding="utf-8"))
    namespace: dict = {"__name__": f"docs:{path.name}"}
    failures: List[str] = []
    for number, block in enumerate(blocks, start=1):
        label = f"{_display(path)} block {number}"
        try:
            code = compile(block, label, "exec")
            exec(code, namespace)  # noqa: S102 - the point of the check
        except Exception:
            failures.append(
                f"{label} failed:\n{traceback.format_exc()}")
            # Later blocks build on this one's namespace; running them
            # would only bury the root cause under cascade failures.
            skipped = len(blocks) - number
            if skipped:
                failures.append(
                    f"{_display(path)}: skipped {skipped} later "
                    "block(s) that depend on the failed one")
            break
    return len(blocks), failures


def run_example(path: Path,
                timeout: float = EXAMPLE_TIMEOUT_SECONDS) -> List[str]:
    """Run one example script in a subprocess; returns its failures."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(_ROOT / "src"), env.get("PYTHONPATH")]))
    label = _display(path)
    with tempfile.TemporaryDirectory() as scratch:
        try:
            done = subprocess.run([sys.executable, str(path)], cwd=scratch,
                                  env=env, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            return [f"{label} timed out after {timeout:g}s"]
    if done.returncode != 0:
        return [f"{label} exited with {done.returncode}:\n"
                f"{done.stdout}{done.stderr}"]
    return []


def main(argv: Iterable[str] = ()) -> int:
    arguments = list(argv)
    documents = ([Path(arg).resolve() for arg in arguments]
                 if arguments else default_documents())
    total_blocks = examples = 0
    all_failures: List[str] = []
    for path in documents:
        if not path.exists():
            all_failures.append(f"{path}: no such document")
            continue
        if path.suffix == ".py":
            failures = run_example(path)
            examples += 1
            what = "example"
        else:
            count, failures = run_document(path)
            total_blocks += count
            what = f"{count} python block(s)"
        status = "OK" if not failures else "FAIL"
        print(f"{_display(path)}: {what} {status}")
        all_failures.extend(failures)
    if all_failures:
        print(f"\n{len(all_failures)} failure(s):", file=sys.stderr)
        for failure in all_failures:
            print(f"\n{failure}", file=sys.stderr)
        return 1
    print(f"\nall {total_blocks} fenced python blocks and {examples} "
          f"examples executed cleanly")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
