"""Layering rules the reach-is-RPQ merge established, checked on the AST.

* The sharded handle holds no byte layouts: ``repro/sharding.py`` does
  not import ``repro.util.varint`` (every "GRPS" layout lives in
  ``repro.encoding.container``).
* The serving layer builds sharded handles through the public
  constructors: nothing under ``repro/serving/`` imports an underscore
  name from ``repro.sharding``.
* There is one boundary closure: ``repro.partition`` exports exactly
  one class whose name ends in ``Closure``.
* There is one query surface: every handle and client exposes exactly
  one method per :class:`~repro.serving.QueryKind`, defined once on
  :class:`~repro.serving.GraphService`, and none of the former
  spellings or front doors survives.
* There is one implementation per mechanism: JSON is the only wire
  codec (no serving constructor, ``ServerLoop`` or CLI verb takes a
  codec), ``InlineExecutor`` and ``ThreadExecutor`` are the only
  executors, and gRePair has one engine (``GRePairSettings`` has no
  ``engine`` field).
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import inspect
from pathlib import Path

import pytest

import repro
import repro.partition
import repro.queries
import repro.serving
from repro import CompressedGraph, GRePairSettings, ShardedCompressedGraph
from repro.cli import _build_parser
from repro.serving import (
    ClusterManifest,
    Executor,
    GraphClient,
    GraphServer,
    GraphService,
    ReplicatedShard,
    ServerLoop,
    ShardHost,
    connect,
    serve,
)
from repro.serving import protocol
from repro.serving.protocol import KIND_METHODS

SRC = Path(repro.__file__).parent


def _imports(path):
    """``(module, name)`` for every import in a source file; ``name`` is
    ``None`` for a plain ``import module``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found.extend((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.extend((node.module, alias.name)
                         for alias in node.names)
    return found


def test_sharded_handle_imports_no_varint_codec():
    modules = {module if name is None else f"{module}.{name}"
               for module, name in _imports(SRC / "sharding.py")}
    assert not {m for m in modules
                if m.startswith("repro.util.varint")}


def test_serving_imports_no_private_sharding_names():
    private = [(path.name, name)
               for path in sorted((SRC / "serving").glob("*.py"))
               for module, name in _imports(path)
               if module == "repro.sharding" and name
               and name.startswith("_")]
    assert private == []


def test_partition_exports_one_closure_class():
    closures = [name for name in repro.partition.__all__
                if name.endswith("Closure")
                and inspect.isclass(getattr(repro.partition, name))]
    assert closures == ["BoundaryClosure"]


#: The one spelling of each query kind.
_QUERY_NAMES = set(KIND_METHODS.values())

#: Spellings the single surface replaced.
_FORMER_NAMES = {"out_neighbors", "in_neighbors", "neighbors",
                 "reachable", "connected_components", "degrees"}

_SURFACES = [CompressedGraph, ShardedCompressedGraph, GraphClient,
             ReplicatedShard]


@pytest.mark.parametrize("surface", _SURFACES,
                         ids=lambda surface: surface.__name__)
def test_every_surface_exposes_exactly_the_query_names(surface):
    public = {name for name in dir(surface) if not name.startswith("_")}
    assert len(_QUERY_NAMES) == 12 and _QUERY_NAMES <= public
    assert not public & _FORMER_NAMES
    # Every other public callable is a constructor, persistence,
    # transport or introspection member, not another query spelling.
    assert not {name for name in public - _QUERY_NAMES
                if name.startswith(("out", "in_", "reach", "neighbo",
                                    "component", "degree"))}


@pytest.mark.parametrize("surface", _SURFACES,
                         ids=lambda surface: surface.__name__)
def test_query_methods_are_defined_once_on_graph_service(surface):
    assert _QUERY_NAMES <= set(vars(GraphService))
    for klass in surface.__mro__:
        if klass is not GraphService:
            assert not _QUERY_NAMES & set(vars(klass)), klass


@pytest.mark.parametrize("surface", _SURFACES,
                         ids=lambda surface: surface.__name__)
def test_batch_surface_keeps_the_graph_service_signature(surface):
    """A surface may ship ``execute``/``batch`` its own way, but takes
    the same arguments, so the surfaces stay interchangeable."""
    for name in ("execute", "batch"):
        assert (list(inspect.signature(getattr(surface, name)).parameters)
                == list(inspect.signature(
                    getattr(GraphService, name)).parameters)), name


def test_no_second_front_door_or_alias_table():
    # repro.queries exports the grammar evaluators, no query front door.
    assert sorted(name for name in repro.queries.__all__
                  if name.endswith("Queries")) == [
        "ComponentQueries", "DegreeQueries", "NeighborhoodQueries",
        "ReachabilityQueries"]
    # One shard link, one kind table.
    assert [name for name in repro.serving.__all__
            if name.endswith("Shard")] == ["ReplicatedShard"]
    assert [name for name in dir(protocol)
            if name.startswith("KIND_")] == ["KIND_METHODS"]


@pytest.mark.parametrize("entry", [connect, serve, GraphClient,
                                   ReplicatedShard, ShardHost,
                                   GraphServer, ServerLoop],
                         ids=lambda entry: entry.__name__)
def test_no_serving_entry_point_takes_a_codec(entry):
    assert "codec" not in inspect.signature(entry).parameters


def test_no_cli_verb_takes_a_codec_or_an_engine():
    parser = _build_parser()
    (verbs,) = [action for action in parser._actions
                if isinstance(action, argparse._SubParsersAction)]
    flags = {verb: {option for action in sub._actions
                    for option in action.option_strings}
             for verb, sub in verbs.choices.items()}
    assert {"serve", "shard-serve", "manifest", "connect",
            "compress"} <= set(flags)
    assert not {verb for verb, options in flags.items()
                if {"--codec", "--engine"} & options}
    assert "codec" not in {field.name for field in
                           dataclasses.fields(ClusterManifest)}


def test_two_executors():
    executors = sorted(name for name in repro.serving.__all__
                       if inspect.isclass(getattr(repro.serving, name))
                       and issubclass(getattr(repro.serving, name),
                                      Executor)
                       and name != "Executor")
    assert executors == ["InlineExecutor", "ThreadExecutor"]
    assert not {"ProcessExecutor", "SocketExecutor", "EXECUTORS",
                "make_executor"} & set(dir(repro.serving))


def test_one_grepair_engine():
    assert "engine" not in {field.name for field in
                            dataclasses.fields(GRePairSettings)}
    assert not {"ENGINES", "GRePairStats"} & set(dir(repro))
