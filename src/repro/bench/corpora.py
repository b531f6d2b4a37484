"""Smoke corpora shared by the test suite and the bench suite.

One small, seeded instance per dataset family — large enough for the
engines' behavior to be representative, small enough that the whole
sweep runs in seconds.  The differential test lanes (sharded vs
unsharded, served vs in-process, every query kind vs networkx on the
handle's own decompression) run over them.

Keep the definitions stable: tests pin answers computed over them.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.core.alphabet import Alphabet
from repro.core.hypergraph import Hypergraph
from repro.datasets.rdf import (
    identica_graph,
    properties_graph,
    star_burst_graph,
    types_graph,
)
from repro.datasets.synthetic import (
    coauthorship_graph,
    communication_graph,
    copy_model_graph,
    random_graph,
)
from repro.datasets.versions import (
    dblp_version_graph,
    fig13_base_graph,
    identical_copies,
)

Builder = Callable[[], Tuple[Hypergraph, Alphabet]]

#: name -> builder, insertion order is the canonical report order.
SMOKE_CORPORA: Dict[str, Builder] = {
    "er-random": lambda: random_graph(200, 600, seed=41),
    "coauthorship": lambda: coauthorship_graph(150, seed=42),
    "communication": lambda: communication_graph(250, 750, seed=43),
    "copy-model": lambda: copy_model_graph(200, seed=44),
    "rdf-types": lambda: types_graph(500, seed=45),
    "rdf-properties": lambda: properties_graph(120, seed=46),
    "rdf-starburst": lambda: star_burst_graph(6, 50, seed=47),
    "rdf-identica": lambda: identica_graph(120, seed=48),
    "version-copies": lambda: identical_copies(fig13_base_graph(), 128),
    "version-dblp": lambda: dblp_version_graph(4, 12, seed=49),
}


def build(name: str) -> Tuple[Hypergraph, Alphabet]:
    """Materialize one smoke corpus by name."""
    return SMOKE_CORPORA[name]()
