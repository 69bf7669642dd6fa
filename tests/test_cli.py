"""Tests for the command-line interface (direct main() calls + one
subprocess smoke test for the ``python -m repro`` entry point)."""

import re
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.cli import main
from repro.graphs import io as graph_io


class TestApspCommand:
    def test_generated_instance(self, capsys):
        code = main(["apsp", "--n", "8", "--seed", "3", "--backend", "dolev"])
        out = capsys.readouterr().out
        assert code == 0
        assert "exact=True" in out

    def test_quantum_backend(self, capsys):
        code = main(
            ["apsp", "--n", "6", "--seed", "1", "--backend", "quantum", "--scale", "0.5"]
        )
        assert code == 0
        assert "exact=True" in capsys.readouterr().out

    def test_graph_file_and_distances_out(self, tmp_path, capsys):
        graph = repro.random_digraph_no_negative_cycle(7, density=0.5, rng=2)
        graph_path = tmp_path / "g.npz"
        graph_io.save_npz(graph, graph_path)
        out_path = tmp_path / "dist.npz"
        code = main(
            [
                "apsp",
                "--graph",
                str(graph_path),
                "--backend",
                "reference",
                "--out",
                str(out_path),
            ]
        )
        assert code == 0
        with np.load(out_path) as data:
            assert np.array_equal(data["distances"], repro.floyd_warshall(graph))

    def test_verbose_prints_ledger(self, capsys):
        code = main(
            ["apsp", "--n", "6", "--seed", "1", "--backend", "dolev", "--verbose"]
        )
        assert code == 0
        assert "TOTAL" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["apsp", "serve-batch"])
    def test_has_no_rng_contract_option(self, command, capsys):
        # Step 3 draws from one batch generator; there is nothing to pick.
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--rng-contract", "v1"])
        assert excinfo.value.code == 2
        assert "--rng-contract" in capsys.readouterr().err

    def test_rejects_undirected_input(self, tmp_path):
        graph = repro.random_undirected_graph(6, rng=1)
        path = tmp_path / "g.npz"
        graph_io.save_npz(graph, path)
        with pytest.raises(SystemExit):
            main(["apsp", "--graph", str(path)])


class TestFindEdgesCommand:
    def test_reference(self, capsys):
        code = main(["find-edges", "--n", "12", "--seed", "2", "--backend", "reference"])
        assert code == 0
        assert "false_positives=0" in capsys.readouterr().out

    def test_quantum(self, capsys):
        code = main(
            ["find-edges", "--n", "16", "--seed", "2", "--backend", "quantum",
             "--scale", "0.5", "--verbose"]
        )
        assert code == 0


class TestOtherCommands:
    def test_diameter(self, capsys):
        code = main(["diameter", "--n", "6", "--seed", "4"])
        out = capsys.readouterr().out
        assert "diameter=" in out

    def test_generate_roundtrip(self, tmp_path, capsys):
        out_path = tmp_path / "gen.txt"
        code = main(
            ["generate", "--kind", "undirected", "--n", "9", "--seed", "5",
             "--out", str(out_path)]
        )
        assert code == 0
        loaded = graph_io.load_edge_list(out_path)
        assert loaded.num_vertices == 9

    def test_generate_planted_prints_pairs(self, tmp_path, capsys):
        out_path = tmp_path / "gen.npz"
        code = main(
            ["generate", "--kind", "planted", "--n", "10", "--seed", "5",
             "--out", str(out_path)]
        )
        assert code == 0
        assert "planted pairs" in capsys.readouterr().out

    def test_validate_accepts_and_rejects(self, tmp_path, capsys):
        graph = repro.random_digraph_no_negative_cycle(6, density=0.6, rng=3)
        graph_path = tmp_path / "g.npz"
        graph_io.save_npz(graph, graph_path)
        truth = repro.floyd_warshall(graph)
        good = tmp_path / "good.npz"
        np.savez(good, distances=truth)
        assert main(["validate", "--graph", str(graph_path), "--distances", str(good)]) == 0
        bad_matrix = truth.copy()
        bad_matrix[0, 0] = -3
        bad = tmp_path / "bad.npz"
        np.savez(bad, distances=bad_matrix)
        assert main(["validate", "--graph", str(graph_path), "--distances", str(bad)]) == 1

    def test_model(self, capsys):
        code = main(["model", "--min-exp", "4", "--max-exp", "12", "--step", "4"])
        assert code == 0
        assert "2^4" in capsys.readouterr().out

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert f"repro {repro.__version__}" in capsys.readouterr().out

    def test_unsupported_extension_is_rejected(self, tmp_path):
        target = tmp_path / "graph.json"
        target.write_text("{}")
        with pytest.raises(ValueError, match="supported extensions"):
            main(["apsp", "--graph", str(target)])
        with pytest.raises(ValueError, match="supported extensions"):
            main(["generate", "--n", "6", "--out", str(tmp_path / "out.csv")])


class TestServiceCommands:
    @pytest.fixture
    def graph_file(self, tmp_path):
        graph = repro.random_digraph_no_negative_cycle(10, density=0.5, rng=8)
        path = tmp_path / "g.npz"
        graph_io.save_npz(graph, path)
        return graph, path

    def test_query_defaults_to_diameter(self, graph_file, capsys):
        graph, path = graph_file
        code = main(["query", "--graph", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "diameter:" in out
        assert "1 solve(s)" in out

    def test_query_dist_and_path(self, graph_file, capsys):
        graph, path = graph_file
        code = main(
            ["query", "--graph", str(path), "--dist", "0", "4", "--path", "0", "4"]
        )
        out = capsys.readouterr().out
        assert code == 0
        truth = repro.floyd_warshall(graph)
        assert f"dist 0 -> 4: {truth[0, 4]:g}" in out

    def test_query_cache_dir_persists_across_runs(self, graph_file, tmp_path, capsys):
        _, path = graph_file
        cache = tmp_path / "cache"
        assert main(["query", "--graph", str(path), "--diameter",
                     "--cache-dir", str(cache)]) == 0
        capsys.readouterr()
        assert main(["query", "--graph", str(path), "--diameter",
                     "--cache-dir", str(cache)]) == 0
        assert "0 solve(s)" in capsys.readouterr().out

    def test_serve_batch_generated(self, capsys):
        code = main(
            ["serve-batch", "--count", "3", "--n", "8",
             "--solver", "floyd-warshall"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "3 job(s), 0 failed" in out

    def test_serve_batch_parallel_files(self, tmp_path, capsys):
        paths = []
        for seed in range(3):
            graph = repro.random_digraph_no_negative_cycle(8, rng=seed)
            path = tmp_path / f"g{seed}.npz"
            graph_io.save_npz(graph, path)
            paths.append(str(path))
        code = main(
            ["serve-batch", "--graphs", *paths, "--workers", "2",
             "--solver", "floyd-warshall"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("done") == 3

    def test_serve_batch_rejects_negative_workers(self, capsys):
        with pytest.raises(SystemExit, match="--workers"):
            main(["serve-batch", "--count", "2", "--n", "8", "--workers", "-3"])
        assert "job(s)" not in capsys.readouterr().out

    def test_serve_batch_reports_failures(self, tmp_path, capsys):
        bad = repro.WeightedDigraph.from_edges(3, [(0, 1, -5), (1, 0, 2)])
        path = tmp_path / "bad.npz"
        graph_io.save_npz(bad, path)
        code = main(
            ["serve-batch", "--graphs", str(path), "--solver", "reference"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "NegativeCycleError" in out


@pytest.mark.faults
class TestServeBatchFallback:
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_timed_out_primary_degrades_to_fallback(self, workers):
        # A fresh interpreter: pooled rounds fork their workers, and the
        # fork time of a large parent would count against the 0.05 s budget.
        # At n = 16 a quantum solve takes well over that budget (about
        # 0.13 s on a 2-core host); at n = 8 it could finish inside it.
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve-batch", "--solver", "quantum",
             "--n", "16", "--count", "2", "--timeout", "0.05",
             "--fallback", "floyd-warshall", "--workers", workers],
            stdout=subprocess.PIPE,
            text=True,
        )
        out, _ = process.communicate(timeout=120)
        lines = [line for line in out.splitlines() if line.startswith("job-")]
        assert process.returncode == 0, out
        assert len(lines) == 2
        for line in lines:
            assert re.search(r" done solver=floyd-warshall degraded\(from=quantum\) ", line)
        pids = {int(re.search(r" pid=(\d+)", line).group(1)) for line in lines}
        if workers == "1":
            assert pids == {process.pid}
        else:  # pooled fallback attempts run in the workers
            assert process.pid not in pids


class TestTelemetryCli:
    @pytest.fixture
    def graph_file(self, tmp_path):
        graph = repro.random_digraph_no_negative_cycle(10, density=0.5, rng=8)
        path = tmp_path / "g.npz"
        graph_io.save_npz(graph, path)
        return graph, path

    def test_query_trace_roundtrips_through_stats(
        self, graph_file, tmp_path, capsys
    ):
        _, path = graph_file
        trace = tmp_path / "trace.json"
        code = main(
            ["query", "--graph", str(path), "--diameter", "--trace", str(trace)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert f"telemetry trace written to {trace}" in out
        assert out.index("diameter:") < out.index("telemetry trace")

        import json

        snapshot = json.loads(trace.read_text())
        assert snapshot["schema"] == "repro.telemetry/v1"
        span_names = {span["name"] for span in snapshot["spans"]}
        assert "solver.solve" in span_names
        assert "queries.ensure_solved" in span_names

        assert main(["stats", str(trace)]) == 0
        stats_out = capsys.readouterr().out
        assert "solver.solve" in stats_out
        assert "rng:" in stats_out

    def test_stats_json_prints_phase_breakdown(self, graph_file, tmp_path, capsys):
        _, path = graph_file
        trace = tmp_path / "trace.json"
        assert main(
            ["query", "--graph", str(path), "--trace", str(trace)]
        ) == 0
        capsys.readouterr()
        assert main(["stats", str(trace), "--json"]) == 0

        import json

        breakdown = json.loads(capsys.readouterr().out)
        assert breakdown["schema"] == "repro.telemetry/v1"
        assert "solver.solve" in breakdown["phases"]

    def test_stats_rejects_missing_and_invalid_files(self, tmp_path):
        with pytest.raises(SystemExit, match="no such trace file"):
            main(["stats", str(tmp_path / "absent.json")])
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "other/v9"}')
        with pytest.raises(SystemExit, match="not a telemetry trace"):
            main(["stats", str(bad)])

    def test_query_verbose_summary_line(self, graph_file, capsys):
        _, path = graph_file
        code = main(["query", "--graph", str(path), "--diameter", "--verbose"])
        out = capsys.readouterr().out
        assert code == 0
        assert "telemetry: store hits=0 misses=1" in out
        assert "rng draws=" in out

    def test_serve_batch_verbose_shows_wait_and_run(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        code = main(
            ["serve-batch", "--count", "2", "--n", "8",
             "--solver", "floyd-warshall", "--verbose", "--trace", str(trace)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("wait=") == 2
        assert out.count("run=") == 2
        assert "telemetry:" in out
        assert trace.exists()

    def test_no_flags_means_no_telemetry_output(self, graph_file, capsys):
        _, path = graph_file
        assert main(["query", "--graph", str(path), "--diameter"]) == 0
        out = capsys.readouterr().out
        assert "telemetry" not in out


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "repro", "model", "--min-exp", "4", "--max-exp", "8"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0
    assert "analytic round model" in result.stdout


class TestNegativeCycleQueries:
    @pytest.fixture
    def bad_graph_file(self, tmp_path):
        bad = repro.WeightedDigraph.from_edges(3, [(0, 1, -5), (1, 0, 2)])
        path = tmp_path / "bad.npz"
        graph_io.save_npz(bad, path)
        return path

    def test_negative_cycle_with_dist_prints_undefined(self, bad_graph_file, capsys):
        code = main(
            ["query", "--graph", str(bad_graph_file),
             "--dist", "0", "1", "--negative-cycle"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "negative-cycle: True" in out
        assert "dist 0 -> 1: undefined" in out

    def test_negative_cycle_without_flag_exits_cleanly(self, bad_graph_file):
        with pytest.raises(SystemExit, match="query failed"):
            main(["query", "--graph", str(bad_graph_file), "--dist", "0", "1"])
