"""Tests for the command-line interface."""

from pathlib import Path

import pytest

from repro.cli import main


@pytest.fixture
def edge_list(tmp_path):
    path = tmp_path / "graph.tsv"
    lines = ["# a theta graph plus a tail"]
    for mid in (3, 4, 5):
        lines.append(f"1\t{mid}\ta")
        lines.append(f"{mid}\t2\tb")
    lines.append("2\t6\tc")
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture
def compressed(tmp_path, edge_list):
    out = tmp_path / "graph.grpr"
    assert main(["compress", str(edge_list), str(out)]) == 0
    return out


class TestCompress:
    def test_creates_container(self, compressed):
        assert compressed.exists()
        assert compressed.read_bytes()[:4] == b"GRPR"

    def test_options(self, tmp_path, edge_list, capsys):
        out = tmp_path / "custom.grpr"
        code = main(["compress", str(edge_list), str(out),
                     "--max-rank", "2", "--order", "bfs",
                     "--no-prune", "--no-names"])
        assert code == 0
        assert "bpe" in capsys.readouterr().out

    def test_no_validate(self, tmp_path, edge_list, capsys):
        out = tmp_path / "novalidate.grpr"
        code = main(["compress", str(edge_list), str(out),
                     "--no-validate"])
        assert code == 0
        assert out.exists()
        # Same container either way: validation is a check, not a step.
        checked = tmp_path / "checked.grpr"
        assert main(["compress", str(edge_list), str(checked)]) == 0
        assert out.read_bytes() == checked.read_bytes()

    def test_missing_input(self, tmp_path, capsys):
        code = main(["compress", str(tmp_path / "nope.tsv"),
                     str(tmp_path / "out.grpr")])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestDecompress:
    def test_roundtrip(self, tmp_path, edge_list, compressed, capsys):
        out = tmp_path / "roundtrip.tsv"
        assert main(["decompress", str(compressed), str(out)]) == 0
        original = {tuple(line.split()) for line in
                    edge_list.read_text().splitlines()
                    if line and not line.startswith("#")}
        restored = {tuple(line.split()) for line in
                    out.read_text().splitlines() if line}
        # Same number of edges and same label multiset (node IDs are
        # renumbered deterministically, per the paper).
        assert len(original) == len(restored)
        assert sorted(e[2] for e in original) == \
            sorted(e[2] for e in restored)


class TestStats:
    def test_reports_sizes(self, compressed, capsys):
        assert main(["stats", str(compressed)]) == 0
        out = capsys.readouterr().out
        assert "rules:" in out
        assert "derived graph:" in out
        assert "bpe:" in out


class TestQuery:
    def test_components(self, compressed, capsys):
        assert main(["query", str(compressed), "components"]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_counts(self, compressed, capsys):
        assert main(["query", str(compressed), "nodes"]) == 0
        assert capsys.readouterr().out.strip() == "6"
        assert main(["query", str(compressed), "edges"]) == 0
        assert capsys.readouterr().out.strip() == "7"

    def test_reach_exit_codes(self, compressed, capsys):
        assert main(["query", str(compressed), "reach", "1", "2"]) == 0
        assert main(["query", str(compressed), "reach", "2", "1"]) == 1

    def test_neighbors(self, compressed, capsys):
        assert main(["query", str(compressed), "out", "1"]) == 0
        first = capsys.readouterr().out.split()
        assert len(first) == 3  # three middles

    def test_bad_arity(self, compressed, capsys):
        assert main(["query", str(compressed), "reach", "1"]) == 2
        assert "error" in capsys.readouterr().err

    def test_path(self, compressed, capsys):
        assert main(["query", str(compressed), "path", "1", "6"]) == 0
        hops = capsys.readouterr().out.split()
        assert hops[0] == "1" and hops[-1] == "6"
        assert main(["query", str(compressed), "path", "6", "1"]) == 1
        assert capsys.readouterr().out.strip() == "none"

    def test_degree(self, compressed, capsys):
        assert main(["query", str(compressed), "degree", "1"]) == 0
        assert "out=3" in capsys.readouterr().out
        assert main(["query", str(compressed), "degree"]) == 0
        out = capsys.readouterr().out
        assert "max_out:" in out and "min_in:" in out

    def test_neighborhood(self, compressed, capsys):
        assert main(["query", str(compressed), "neighborhood",
                     "2"]) == 0
        # Node 2: three middles point in, one tail edge points out.
        assert len(capsys.readouterr().out.split()) == 4

    def test_rpq_exit_codes_and_output(self, compressed, capsys):
        assert main(["query", str(compressed), "rpq", "a b",
                     "1", "2"]) == 0
        out = capsys.readouterr().out
        assert out.strip() == "rpq('a b', 1, 2) = True"
        # The compressed numbering keeps the hub at 1 and puts the
        # c-tail at 3 (deterministic renumbering, per the paper).
        assert main(["query", str(compressed), "rpq", "a b c",
                     "1", "3"]) == 0
        capsys.readouterr()
        # No c-labeled path back out of the tail.
        assert main(["query", str(compressed), "rpq", "c",
                     "3", "1"]) == 1
        assert capsys.readouterr().out.strip().endswith("False")

    def test_rpq_malformed_pattern(self, compressed, capsys):
        assert main(["query", str(compressed), "rpq", "a(b",
                     "1", "2"]) == 2
        err = capsys.readouterr().err
        assert "error" in err and "malformed pattern" in err

    def test_rpq_arity_and_node_types(self, compressed, capsys):
        assert main(["query", str(compressed), "rpq", "a b"]) == 2
        assert "rpq needs a pattern" in capsys.readouterr().err
        assert main(["query", str(compressed), "rpq", "a b",
                     "1", "two"]) == 2
        assert "integer" in capsys.readouterr().err

    def test_pattern_count(self, compressed, capsys):
        # Three a-edges out of the hub, one c-edge to the tail.
        for name, expected in (("a", "3"), ("b", "3"), ("c", "1"),
                               ("nope", "0")):
            assert main(["query", str(compressed), "pattern-count",
                         "label", name]) == 0
            assert capsys.readouterr().out.strip() == expected
        # Each middle has one a in and one b out.
        assert main(["query", str(compressed), "pattern-count",
                     "digram", "a", "b"]) == 0
        assert capsys.readouterr().out.strip() == "3"
        # Exactly one node fans out three a-edges.
        assert main(["query", str(compressed), "pattern-count",
                     "star", "a", "3"]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_pattern_count_errors(self, compressed, capsys):
        assert main(["query", str(compressed), "pattern-count"]) == 2
        assert "sub-kind" in capsys.readouterr().err
        assert main(["query", str(compressed), "pattern-count",
                     "triangle", "a"]) == 2
        assert "error" in capsys.readouterr().err

    def test_out_edges(self, compressed, capsys):
        assert main(["query", str(compressed), "out-edges", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        # Labels print as numeric IDs — the wire answer a remote
        # `connect` client sees, where no alphabet is available.
        assert all(line.startswith("1 ") for line in lines)


@pytest.fixture
def sharded(tmp_path, edge_list):
    out = tmp_path / "graph.grps"
    assert main(["compress", str(edge_list), str(out),
                 "--shards", "3"]) == 0
    return out


class TestSharded:
    def test_creates_sharded_container(self, sharded):
        assert sharded.read_bytes()[:4] == b"GRPS"

    def test_parallel_build_identical_output(self, tmp_path, edge_list,
                                             sharded):
        out = tmp_path / "parallel.grps"
        assert main(["compress", str(edge_list), str(out),
                     "--shards", "3", "--parallel"]) == 0
        assert out.read_bytes() == sharded.read_bytes()

    def test_connectivity_partitioner(self, tmp_path, edge_list,
                                      capsys):
        out = tmp_path / "conn.grps"
        assert main(["compress", str(edge_list), str(out),
                     "--shards", "2", "--partitioner",
                     "connectivity"]) == 0
        # One connected component -> it stays whole on one shard.
        assert main(["stats", str(out)]) == 0
        assert "boundary edges: 0" in capsys.readouterr().out

    def test_shards_zero_rejected(self, tmp_path, edge_list, capsys):
        assert main(["compress", str(edge_list),
                     str(tmp_path / "x.grps"), "--shards", "0"]) == 2
        assert "error" in capsys.readouterr().err

    def test_stats_shows_shards_and_cache(self, sharded, capsys):
        assert main(["stats", str(sharded)]) == 0
        out = capsys.readouterr().out
        assert "shards:         3" in out
        assert "boundary edges:" in out
        assert "shard 0:" in out
        assert "query cache:" in out

    def test_stats_shows_partition_and_closure(self, sharded, capsys):
        assert main(["stats", str(sharded)]) == 0
        out = capsys.readouterr().out
        assert "partitioner:    hash" in out
        assert "cut ratio:" in out
        assert "shard balance:" in out
        assert "closure:        absent" in out

    def test_stats_timing_reports_materialization(self, sharded,
                                                  capsys):
        assert main(["stats", "--timing", str(sharded)]) == 0
        out = capsys.readouterr().out
        assert "cold open:" in out
        assert "warm open:" in out
        assert "full open)" in out
        assert "shard0=" in out  # per-section byte breakdown
        # A shard-0-only lazy open copies strictly less than the full
        # open (the other shard blobs stay inside the mmap).
        assert "shard 0 only:" in out
        full_line = next(line for line in out.splitlines()
                         if line.startswith("materialized:"))
        lazy_line = next(line for line in out.splitlines()
                         if "shard 0 only:" in line)
        full_bytes = int(full_line.split()[1].split("/")[0])
        lazy_bytes = int(lazy_line.split()[3].split("/")[0])
        assert lazy_bytes < full_bytes

    @pytest.mark.parametrize("partitioner", ["bfs", "label"])
    def test_edge_cut_partitioners(self, tmp_path, edge_list,
                                   partitioner, capsys):
        out = tmp_path / f"{partitioner}.grps"
        assert main(["compress", str(edge_list), str(out),
                     "--shards", "2", "--partitioner",
                     partitioner]) == 0
        assert main(["stats", str(out)]) == 0
        assert f"partitioner:    {partitioner}" in \
            capsys.readouterr().out

    def test_closure_flag_persists_closure(self, tmp_path, edge_list,
                                           capsys):
        out = tmp_path / "closed.grps"
        assert main(["compress", str(edge_list), str(out),
                     "--shards", "2", "--partitioner", "bfs",
                     "--closure"]) == 0
        assert main(["stats", str(out)]) == 0
        stats_out = capsys.readouterr().out
        assert "closure:        persisted" in stats_out
        assert "closure=" in stats_out  # the section breakdown line
        # Queries on the closure-backed container still route fine.
        assert main(["query", str(out), "reach", "1", "2"]) in (0, 1)

    def test_closure_needs_shards(self, tmp_path, edge_list, capsys):
        assert main(["compress", str(edge_list),
                     str(tmp_path / "x.grpr"), "--closure"]) == 2
        assert "--shards" in capsys.readouterr().err

    def test_stats_shows_cache_for_single_too(self, compressed,
                                              capsys):
        assert main(["stats", str(compressed)]) == 0
        assert "query cache:" in capsys.readouterr().out

    def test_stats_timing_on_single_grammar(self, compressed, capsys):
        assert main(["stats", "--timing", str(compressed)]) == 0
        out = capsys.readouterr().out
        assert "cold open:" in out
        assert "warm open:" in out
        assert "decode eagerly" in out

    def test_queries_route_through_sharded_container(self, sharded,
                                                     capsys):
        assert main(["query", str(sharded), "components"]) == 0
        assert capsys.readouterr().out.strip() == "1"
        assert main(["query", str(sharded), "nodes"]) == 0
        assert capsys.readouterr().out.strip() == "6"
        assert main(["query", str(sharded), "edges"]) == 0
        assert capsys.readouterr().out.strip() == "7"
        assert main(["query", str(sharded), "degree"]) == 0
        out = capsys.readouterr().out
        assert "max_out:" in out and "min_in:" in out

    def test_decompress_sharded_roundtrip(self, tmp_path, edge_list,
                                          sharded, capsys):
        out = tmp_path / "roundtrip.tsv"
        assert main(["decompress", str(sharded), str(out)]) == 0
        original = {tuple(line.split()) for line in
                    edge_list.read_text().splitlines()
                    if line and not line.startswith("#")}
        restored = {tuple(line.split()) for line in
                    out.read_text().splitlines() if line}
        assert len(original) == len(restored)
        assert sorted(e[2] for e in original) == \
            sorted(e[2] for e in restored)

    def test_sharded_reach_exit_codes(self, sharded):
        # Some source reaches some target; exit codes mirror answers.
        codes = {main(["query", str(sharded), "reach", "1", str(t)])
                 for t in range(1, 7)}
        assert codes <= {0, 1} and 0 in codes


class TestErrorConsistency:
    """Every subcommand: ReproError/IO -> stderr + exit code 2."""

    def test_query_out_of_range_node(self, compressed, capsys):
        assert main(["query", str(compressed), "out", "999"]) == 2
        assert "error" in capsys.readouterr().err

    def test_stats_on_garbage(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.grpr"
        bogus.write_bytes(b"definitely not a container")
        for command in (["stats", str(bogus)],
                        ["decompress", str(bogus),
                         str(tmp_path / "out.tsv")],
                        ["query", str(bogus), "components"]):
            assert main(command) == 2
            assert "error" in capsys.readouterr().err

    def test_missing_container(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.grpr")
        for command in (["stats", missing],
                        ["decompress", missing,
                         str(tmp_path / "out.tsv")],
                        ["query", missing, "nodes"]):
            assert main(command) == 2
            assert "error" in capsys.readouterr().err


class TestServeAndConnect:
    """The socket deployment through the CLI surface."""

    @pytest.fixture
    def server(self, sharded):
        from repro.serving import serve

        with serve(sharded) as running:
            yield running

    def test_connect_matches_query_output(self, sharded, server,
                                          capsys):
        """`query FILE ...` and `connect ENDPOINT ...` must print
        byte-identical answers for the same graph."""
        for request in (["components"], ["nodes"], ["edges"],
                        ["degree"], ["degree", "2"], ["out", "1"],
                        ["in", "2"], ["neighborhood", "2"],
                        ["reach", "1", "2"], ["path", "1", "2"],
                        ["rpq", "a b", "1", "2"],
                        ["rpq", "(a|b)+ c?", "1", "6"],
                        ["pattern-count", "label", "a"],
                        ["pattern-count", "digram", "a", "b"],
                        ["pattern-count", "star", "a", "2"],
                        ["out-edges", "1"]):
            local_code = main(["query", str(sharded)] + request)
            local_out = capsys.readouterr().out
            remote_code = main(["connect", server.endpoint] + request)
            remote_out = capsys.readouterr().out
            assert remote_code == local_code, request
            assert remote_out == local_out, request

    def test_connect_info(self, server, capsys):
        assert main(["connect", server.endpoint, "--info"]) == 0
        out = capsys.readouterr().out
        assert "type: sharded" in out
        assert "shards: 3" in out

    def test_connect_without_kind_errors(self, server, capsys):
        assert main(["connect", server.endpoint]) == 2
        assert "query kind" in capsys.readouterr().err

    def test_connect_refused(self, capsys):
        assert main(["connect", "127.0.0.1:1", "nodes"]) == 2
        assert "error" in capsys.readouterr().err

    def test_connect_out_of_range_node(self, server, capsys):
        assert main(["connect", server.endpoint, "out", "999"]) == 2
        assert "error" in capsys.readouterr().err

    def test_serve_subcommand_end_to_end(self, sharded, tmp_path):
        """The real thing: `repro serve` in a child process, queried
        through `repro connect`, shut down with SIGTERM."""
        import os
        import signal
        import subprocess
        import sys
        import time

        ready = tmp_path / "endpoint"
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", str(sharded),
             "--pipeline", "4", "--ready-file", str(ready)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            deadline = time.time() + 60
            # The file exists a moment before its line is written.
            while not (ready.exists()
                       and ready.read_text().endswith("\n")) \
                    and time.time() < deadline:
                assert process.poll() is None, \
                    process.stderr.read().decode()
                time.sleep(0.05)
            endpoint = ready.read_text().strip()
            assert main(["connect", endpoint, "nodes"]) == 0
        finally:
            process.send_signal(signal.SIGTERM)
            process.wait(timeout=30)
