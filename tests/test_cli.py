"""Command-line interface behavior."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from degreesearch import BaConfig, cli, generate_ba, load_edge_list, topology
from degreesearch.cli import main
from degreesearch.experiment import sample_pairs
from degreesearch.graphs import components, pair_distance


def test_generate_writes_loadable_file(tmp_path, capsys):
    out = tmp_path / "g.txt"
    code = main(
        ["generate", "--nodes", "50", "--m-attach", "2", "--seed", "1", "--out", str(out)]
    )
    assert code == 0
    assert "wrote 50 nodes, 97 edges" in capsys.readouterr().out
    g, _ = load_edge_list(out)
    assert g.node_count == 50
    assert g.edge_count == 3 + 2 * 47


@pytest.mark.parametrize(
    "options, edges",
    [
        # The default seed clique has max(3, m) nodes: C(3, 2) + 1 * 57.
        (["--m-attach", "1"], 60),
        (["--m-attach", "2", "--seed-size", "6"], 15 + 2 * 54),
        (["--m-attach", "5"], 10 + 5 * 55),
    ],
    ids=["m1", "m2-seed-size6", "m5"],
)
def test_generate_seed_clique_size(tmp_path, capsys, options, edges):
    out = tmp_path / "g.txt"
    assert main(["generate", "--nodes", "60", *options, "--out", str(out)]) == 0
    assert f"wrote 60 nodes, {edges} edges" in capsys.readouterr().out
    loaded = load_edge_list(out)[0]
    assert loaded.edge_count == edges
    # The CLI adds no rule of its own: the file is the library's default graph.
    m, *seed_size = map(int, options[1::2])
    assert loaded.adjacency == generate_ba(BaConfig(60, m, *seed_size)).adjacency


def test_generate_deterministic_bytes(tmp_path):
    paths = [tmp_path / "a.txt", tmp_path / "b.txt"]
    for p in paths:
        assert main(["generate", "--nodes", "60", "--seed", "9", "--out", str(p)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_run_on_generated_graph(tmp_path, capsys):
    out_dir = tmp_path / "results"
    code = main(
        [
            "run",
            "--ba",
            "120,2",
            "--h",
            "2",
            "--refine",
            "--pairs",
            "30",
            "--rounds",
            "2",
            "--seed",
            "3",
            "--out-dir",
            str(out_dir),
        ]
    )
    assert code == 0
    captured = capsys.readouterr().out
    assert "h2+refine: " in captured
    assert "mean refined length" in captured
    for name in ("searches.csv", "summary.json", "histogram.csv"):
        assert (out_dir / name).exists()
    stored = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    assert stored[0]["variant"] == "h2+refine"
    assert stored[0]["total_searches"] == 60


def test_run_twice_same_seed_same_bytes(tmp_path):
    dirs = [tmp_path / "r1", tmp_path / "r2"]
    for d in dirs:
        code = main(
            [
                "run",
                "--ba",
                "100,2",
                "--pairs",
                "20",
                "--rounds",
                "2",
                "--seed",
                "8",
                "--out-dir",
                str(d),
            ]
        )
        assert code == 0
    for name in ("searches.csv", "summary.json", "histogram.csv"):
        first = (dirs[0] / name).read_bytes()
        assert first
        assert first == (dirs[1] / name).read_bytes(), name


def test_run_on_topology_file(tmp_path, capsys):
    graph_file = tmp_path / "g.txt"
    main(["generate", "--nodes", "80", "--seed", "2", "--out", str(graph_file)])
    capsys.readouterr()
    code = main(
        [
            "run",
            "--topology",
            str(graph_file),
            "--h",
            "1",
            "--pairs",
            "10",
            "--rounds",
            "1",
            "--out-dir",
            str(tmp_path / "out"),
        ]
    )
    assert code == 0
    assert "h1: " in capsys.readouterr().out


@pytest.mark.parametrize("nodes, m_attach, seed", [(300, 3, 4), (500, 2, 9), (150, 5, 1)])
def test_generated_file_runs_like_ba(tmp_path, nodes, m_attach, seed):
    # Saving, loading (label order, giant component) and the file branch of
    # the cli must hand the harness the graph --ba builds in memory.
    graph_file = tmp_path / "g.txt"
    generate = ["generate", "--nodes", str(nodes), "--m-attach", str(m_attach)]
    assert main([*generate, "--seed", str(seed), "--out", str(graph_file)]) == 0
    search = ["--h", "2", "--consult", "5", "--refine", "--pairs", "40", "--rounds", "2"]
    sources = {"file": ["--topology", str(graph_file)], "ba": ["--ba", f"{nodes},{m_attach}"]}
    for name, source in sources.items():
        out_dir = str(tmp_path / name)
        assert main(["run", *source, *search, "--seed", str(seed), "--out-dir", out_dir]) == 0
    for name in ("searches.csv", "summary.json", "histogram.csv"):
        assert (tmp_path / "file" / name).read_bytes() == (tmp_path / "ba" / name).read_bytes()


def test_run_missing_topology_is_clean_error(tmp_path, capsys):
    code = main(
        [
            "run",
            "--topology",
            str(tmp_path / "nope.txt"),
            "--out-dir",
            str(tmp_path / "out"),
        ]
    )
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_run_rejects_consult_without_h2(tmp_path, capsys):
    code = main(
        [
            "run",
            "--ba",
            "50,2",
            "--h",
            "3",
            "--consult",
            "5",
            "--out-dir",
            str(tmp_path / "out"),
        ]
    )
    assert code == 2
    assert "error: " in capsys.readouterr().err


def test_generate_into_missing_directory_names_the_path(tmp_path, capsys):
    out = tmp_path / "nodir" / "x.txt"
    assert main(["generate", "--nodes", "50", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert repr(str(out)) in err
    assert ".tmp" not in err
    assert list(tmp_path.iterdir()) == []


def test_generate_failed_replace_leaves_no_temp_file(tmp_path, capsys):
    out = tmp_path / "taken"
    out.mkdir()
    assert main(["generate", "--nodes", "50", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert repr(str(out)) in err
    assert ".tmp" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]


def _refuse_to_run(plan):
    raise AssertionError("the experiment ran before its output settings were checked")


def test_run_rejects_bad_bin_width_before_running(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_experiment", _refuse_to_run)
    out_dir = tmp_path / "o"
    code = main(
        ["run", "--ba", "300,2", "--pairs", "5", "--rounds", "1", "--bin-width", "0", "--out-dir", str(out_dir)]
    )
    assert code == 2
    assert "--bin-width" in capsys.readouterr().err
    assert not out_dir.exists()


def test_run_rejects_out_dir_that_is_a_file_before_running(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_experiment", _refuse_to_run)
    out_dir = tmp_path / "o"
    out_dir.write_text("keep\n", encoding="utf-8")
    code = main(["run", "--ba", "300,2", "--pairs", "5", "--rounds", "1", "--out-dir", str(out_dir)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert out_dir.read_text(encoding="utf-8") == "keep\n"
    assert [p.name for p in tmp_path.iterdir()] == ["o"]


def test_bad_ba_argument_exits_via_argparse(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--ba", "abc", "--out-dir", str(tmp_path)])
    assert exc.value.code == 2


def test_stats_reports_topology(tmp_path, capsys):
    graph_file = tmp_path / "g.txt"
    main(["generate", "--nodes", "200", "--seed", "4", "--out", str(graph_file)])
    capsys.readouterr()
    code = main(["stats", "--topology", str(graph_file), "--pairs", "50"])
    assert code == 0
    out = capsys.readouterr().out
    assert "nodes: 200" in out
    assert "edges: 594" in out
    assert "min degree: 3" in out
    assert "giant component: 200 nodes (100.0%), 1 component(s)" in out
    assert "mean shortest path (50 sampled pairs):" in out
    assert "degree histogram:" in out


def test_stats_counts_components(tmp_path, capsys):
    graph_file = tmp_path / "two.txt"
    graph_file.write_text("0 1\n2 3\n3 4\n", encoding="utf-8")
    code = main(["stats", "--topology", str(graph_file), "--pairs", "10"])
    assert code == 0
    out = capsys.readouterr().out
    assert "nodes: 5" in out
    assert "giant component: 3 nodes (60.0%), 2 component(s)" in out


def test_stats_reads_topology_once(tmp_path, capsys, monkeypatch):
    calls = []

    def counting_load(*args, **kwargs):
        calls.append((args, kwargs))
        return load_edge_list(*args, **kwargs)

    monkeypatch.setattr(cli, "load_edge_list", counting_load)
    graph_file = tmp_path / "two.txt"
    graph_file.write_text("0 1\n2 3\n3 4\n", encoding="utf-8")
    assert main(["stats", "--topology", str(graph_file), "--pairs", "10"]) == 0
    assert len(calls) == 1
    out = capsys.readouterr().out
    assert "giant component: 3 nodes (60.0%), 2 component(s)" in out
    assert "mean shortest path (10 sampled pairs):" in out


def test_stats_finds_components_once(tmp_path, capsys, monkeypatch):
    graph_file = tmp_path / "two.txt"
    graph_file.write_text("0 1\n2 3\n3 4\n", encoding="utf-8")
    argv = ["stats", "--topology", str(graph_file), "--pairs", "10"]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    calls = []

    def counting_components(g):
        calls.append(g.node_count)
        return components(g)

    monkeypatch.setattr(cli, "components", counting_components)
    monkeypatch.setattr(topology, "components", counting_components)
    assert main(argv) == 0
    assert calls == [5]
    assert capsys.readouterr().out == expected
    assert expected.splitlines()[5:7] == [
        "giant component: 3 nodes (60.0%), 2 component(s)",
        "mean shortest path (10 sampled pairs): 1.400",
    ]


def test_stats_samples_the_giant_component_topology_picks(tmp_path, capsys):
    # Two 4-node components tie: a star on 0-3 and a path on 5-8.  Their
    # mean distances differ, so the printed mean shows which one was sampled.
    graph_file = tmp_path / "tie.txt"
    graph_file.write_text("0 1\n0 2\n0 3\n5 6\n6 7\n7 8\n", encoding="utf-8")
    assert main(["stats", "--topology", str(graph_file), "--pairs", "40", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "giant component: 4 nodes (50.0%), 2 component(s)" in out
    giant, id_map = topology.giant_component(*load_edge_list(graph_file, take_giant_component=False))
    assert id_map.internal_to_external == ["0", "1", "2", "3"]
    pairs = sample_pairs(giant, 40, 2)
    mean = sum(pair_distance(giant, s, t) for s, t in pairs) / len(pairs)
    assert f"mean shortest path (40 sampled pairs): {mean:.3f}" in out


def test_stats_rejects_negative_pairs(tmp_path, capsys):
    graph_file = tmp_path / "g.txt"
    graph_file.write_text("0 1\n1 2\n", encoding="utf-8")
    assert main(["stats", "--topology", str(graph_file), "--pairs", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --pairs must be >= 0, got -3\n"
    assert "Traceback" not in captured.err
    assert captured.out == ""
    # Zero still means: skip the mean shortest path.
    assert main(["stats", "--topology", str(graph_file), "--pairs", "0"]) == 0
    out = capsys.readouterr().out
    assert "nodes: 3" in out
    assert "mean shortest path" not in out


def test_stats_non_utf8_topology_is_clean_error(tmp_path, capsys):
    graph_file = tmp_path / "bad.txt"
    graph_file.write_bytes(b"0 1\n1 \xff\xfe\n")
    assert main(["stats", "--topology", str(graph_file)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {graph_file}:2: ")


def test_module_entry_point(tmp_path):
    # The child imports the package this process imported, installed or not.
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "degreesearch.cli",
            "generate",
            "--nodes",
            "10",
            "--m-attach",
            "1",
            "--out",
            str(tmp_path / "g.txt"),
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0
    assert "wrote 10 nodes" in result.stdout
