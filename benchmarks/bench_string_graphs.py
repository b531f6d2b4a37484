"""Section VI — gRePair on string graphs vs classic string RePair.

The paper's conclusion: "gRePair over string- and tree-graphs obtains
similar compression ratios as the original specialized versions for
strings and trees [15], [16]."

We embed repetitive and random strings as labeled path graphs,
compress them with gRePair, and compare grammar sizes against our
string RePair (Larsson-Moffat).  "Similar ratio" at graph scale means:
on highly repetitive input both reach logarithmic size; on random
input neither compresses.
"""

import random

import pytest

from repro.bench import Report
from repro.baselines.strrepair import string_repair
from repro.core.pipeline import compress
from repro.datasets.strings import repeated_string, string_to_graph

_SECTION = "Section VI: string graphs vs string RePair (grammar size)"


@pytest.mark.smoke
def test_string_graph_compression(benchmark):
    cases = {
        "(ab)^128": repeated_string("ab", 128),
        "(abcd)^64": repeated_string("abcd", 64),
        "(abc)^8^2": repeated_string(repeated_string("abc", 8), 8),
    }
    rng = random.Random(5)
    cases["random256"] = "".join(rng.choice("abcd") for _ in range(256))

    def run():
        rows = {}
        for name, text in cases.items():
            graph, alphabet = compress_input = string_to_graph(text)
            graph_result = compress(graph, alphabet, validate=False)
            symbols = [ord(c) for c in text]
            string_grammar = string_repair(symbols)
            rows[name] = (len(text), graph_result.grammar.size,
                          string_grammar.size)
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    for name, (length, graph_size, string_size) in rows.items():
        Report.add(_SECTION,
                   f"{name:12s} |w|={length:4d}  gRePair |G|="
                   f"{graph_size:4d}  string RePair={string_size:4d}")
    # Repetitive strings: both compress far below the input length.
    for name in ("(ab)^128", "(abcd)^64", "(abc)^8^2"):
        length, graph_size, string_size = rows[name]
        assert graph_size < length
        assert string_size < length
        # Similar ratio: within a constant factor (graphs also pay for
        # node bookkeeping, so allow a generous constant).
        assert graph_size <= 8 * string_size
    # Random strings: neither helps much.
    length, graph_size, string_size = rows["random256"]
    assert string_size > length * 0.5
