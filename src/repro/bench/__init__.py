"""Benchmark support: size metrics and the report collector.

The pytest-benchmark suite in ``benchmarks/`` regenerates every table
and figure of the paper's evaluation; this subpackage holds the size
accounting (bpe as defined in section IV) and small helpers the bench
modules share.
"""

from repro.bench.corpora import SMOKE_CORPORA
from repro.bench.metrics import baseline_sizes, bits_per_edge, grepair_bytes
from repro.bench.report import Report

__all__ = [
    "Report",
    "SMOKE_CORPORA",
    "baseline_sizes",
    "bits_per_edge",
    "grepair_bytes",
]
