"""Benchmark-suite plumbing: report printing, markers, shared fixtures.

The ``smoke`` marker tags a fast subset of the paper benches — one
second or less each — so CI can gate merges on
``pytest -m smoke benchmarks`` in seconds while the full paper-table
suite stays opt-in.  Performance is measured by ``benchmarks/perf/``
(see ``BENCHMARK.json``); the modules here reproduce the paper.
"""

from __future__ import annotations

from pathlib import Path

from repro.bench.report import Report

_RESULTS = Path(__file__).parent / "results" / "report.txt"


def pytest_configure(config):
    """Register the smoke marker for standalone benchmark runs."""
    config.addinivalue_line(
        "markers",
        "smoke: fast engine-regression subset of the benchmark suite",
    )


def pytest_terminal_summary(terminalreporter):
    """Print every collected table after the pytest-benchmark output."""
    rendered = Report.render()
    if not rendered.strip():
        return
    terminalreporter.ensure_newline()
    terminalreporter.section("paper tables and figures (reproduction)")
    for line in rendered.splitlines():
        terminalreporter.write_line(line)
    Report.dump(_RESULTS)
    terminalreporter.write_line("")
    terminalreporter.write_line(f"(also written to {_RESULTS})")
