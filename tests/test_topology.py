"""Edge-list file loading, component filtering, and round-trips."""

import contextlib
import copy
import gc
import os
import pickle
import random
import subprocess
import sys
import threading
import time
import tracemalloc

import pytest

from degreesearch import (
    BaConfig,
    EdgeListError,
    generate_ba,
    load_edge_list,
    save_edge_list,
)
from degreesearch import cli, topology
from degreesearch.topology import giant_component

from helpers import reference_load_edge_list, traced


def write(tmp_path, text, name="edges.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_load_triangle_with_comment(tmp_path):
    g, idmap = load_edge_list(write(tmp_path, "0 1\n1 2\n# comment\n2 0\n"))
    assert g.node_count == 3
    assert g.adjacency == ((1, 2), (0, 2), (0, 1))
    assert idmap.external_to_internal == {"0": 0, "1": 1, "2": 2}
    assert list(idmap.internal_to_external) == ["0", "1", "2"]


def test_load_accepts_crlf_and_blank_lines(tmp_path):
    g, _ = load_edge_list(write(tmp_path, "0 1\r\n\r\n1 2\r\n"))
    assert g.node_count == 3
    assert g.edge_count == 2


def test_load_drops_duplicates_and_self_loops(tmp_path):
    g, _ = load_edge_list(write(tmp_path, "0 1\n1 0\n0 1\n2 2\n1 2\n"))
    assert g.edge_count == 2


def test_load_malformed_line_reports_position(tmp_path):
    path = write(tmp_path, "0 1\n1 2 3\n")
    with pytest.raises(EdgeListError) as exc:
        load_edge_list(path)
    assert exc.value.line_no == 2
    assert str(path) in str(exc.value)
    assert ":2:" in str(exc.value)


def test_load_empty_file_is_error(tmp_path):
    for text in ("# nothing here\n", "# 1 2\n3 3\n\n0\t0\n"):
        with pytest.raises(EdgeListError) as exc:
            load_edge_list(write(tmp_path, text))
        assert "no usable edges" in str(exc.value)


def test_giant_component_kept(tmp_path):
    g, idmap = load_edge_list(write(tmp_path, "0 1\n2 3\n3 4\n"))
    assert g.node_count == 3
    assert g.edge_count == 2
    assert sorted(idmap.external_to_internal) == ["2", "3", "4"]


def test_component_size_tie_prefers_smallest_label(tmp_path):
    g, idmap = load_edge_list(write(tmp_path, "5 6\n0 1\n"))
    assert g.node_count == 2
    assert sorted(idmap.external_to_internal) == ["0", "1"]


def test_giant_labels_ordered_among_themselves(tmp_path):
    # "a" forces string order on the whole file; without it the giant's
    # labels are all numeric and sort by value.
    g, idmap = load_edge_list(write(tmp_path, "a b\n10 9\n9 8\n"))
    assert idmap.internal_to_external == ["8", "9", "10"]
    assert idmap.external_to_internal == {"8": 0, "9": 1, "10": 2}
    assert g.adjacency == ((1,), (0, 2), (1,))


def test_giant_component_of_connected_graph_is_unchanged(tmp_path):
    g, idmap = load_edge_list(write(tmp_path, "0 1\n1 2\n"), take_giant_component=False)
    giant, giant_map = giant_component(g, idmap)
    assert giant is g
    assert giant_map is idmap


def _random_components(rng):
    kind = rng.choice(["numeric", "string", "mixed"])
    pool = [str(i) for i in rng.sample(range(1000), 60)]
    if kind != "numeric":
        names = [rng.choice("abxyz") + str(i) for i in range(60)]
        pool = names if kind == "string" else pool[:40] + names[:20]
    rng.shuffle(pool)
    comps = []
    for _ in range(rng.randrange(1, 6)):
        size = rng.choice([2, 2, 3, 3, 5])
        comps.append([pool.pop() for _ in range(size)])
    return comps


def _edge_lines(rng, comp):
    # A random spanning tree keeps the component connected; extra random
    # pairs add cycles, duplicates and self-loops.
    lines = [f"{comp[i]} {comp[rng.randrange(i)]}" for i in range(1, len(comp))]
    lines += [f"{rng.choice(comp)} {rng.choice(comp)}" for _ in range(len(comp))]
    return lines


def test_giant_component_matches_loading_only_the_giant(tmp_path):
    for seed in range(120):
        rng = random.Random(seed)
        comps = _random_components(rng)
        lines_by_comp = [_edge_lines(rng, comp) for comp in comps]
        lines = [line for comp_lines in lines_by_comp for line in comp_lines]
        rng.shuffle(lines)
        path = write(tmp_path, "\n".join(lines) + "\n", f"g{seed}.txt")

        full, full_map = load_edge_list(path, take_giant_component=False)
        loaded = load_edge_list(path)
        assert loaded == giant_component(full, full_map)

        # Largest component; on a size tie, the one holding the label that
        # comes first in the full file's order.
        rank = full_map.external_to_internal
        best = min(
            range(len(comps)),
            key=lambda i: (-len(comps[i]), min(rank[label] for label in comps[i])),
        )
        alone = write(tmp_path, "\n".join(lines_by_comp[best]) + "\n", f"alone{seed}.txt")
        assert loaded == load_edge_list(alone, take_giant_component=False)


def test_load_non_utf8_is_edge_list_error(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"# header\n0 1\n1 \xff\xfe\n2 3\n")
    with pytest.raises(EdgeListError) as exc:
        load_edge_list(path)
    assert exc.value.line_no == 3
    assert str(path) in str(exc.value)
    assert "UTF-8" in str(exc.value)


def test_load_skips_utf8_bom(tmp_path):
    # A byte-order mark is not part of the first label: a phantom "\ufeff0"
    # would also switch this numeric file to string order.
    body = b"0 1\n1 2\n2 0\n10 0\n"
    bom = tmp_path / "bom.txt"
    bom.write_bytes(b"\xef\xbb\xbf" + body)
    plain = tmp_path / "plain.txt"
    plain.write_bytes(body)
    assert load_edge_list(bom) == load_edge_list(plain)
    assert load_edge_list(bom)[1].internal_to_external == ["0", "1", "2", "10"]
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xef\xbb\xbf0 1\n1 \xff\n")
    with pytest.raises(EdgeListError) as exc:
        load_edge_list(bad)
    assert exc.value.line_no == 2


def test_flag_off_keeps_everything(tmp_path):
    g, idmap = load_edge_list(
        write(tmp_path, "0 1\n2 3\n3 4\n"), take_giant_component=False
    )
    assert g.node_count == 5
    assert len(idmap.external_to_internal) == 5


def test_string_labels(tmp_path):
    g, idmap = load_edge_list(write(tmp_path, "a b\nb c"))
    assert g.node_count == 3
    assert g.edge_count == 2
    assert idmap.external_to_internal == {"a": 0, "b": 1, "c": 2}
    # "b" bridges the other two.
    assert g.degree(idmap.external_to_internal["b"]) == 2


def test_numeric_labels_sorted_by_value(tmp_path):
    _, idmap = load_edge_list(write(tmp_path, "10 2\n2 1\n"))
    assert list(idmap.internal_to_external) == ["1", "2", "10"]


def test_labels_equal_in_value_ordered_by_string(tmp_path):
    g, idmap = load_edge_list(write(tmp_path, "1 01\n01 +1\n"))
    assert idmap.internal_to_external == ["+1", "01", "1"]
    assert g.adjacency == ((1,), (0, 2), (1,))


@pytest.mark.parametrize("extra", [[], ["x"]], ids=["numeric", "one-string"])
def test_label_order_matches_value_then_string_key(tmp_path, extra):
    # Spellings int() accepts beside plain labels of equal value: the two
    # stable sorts must give the (int(s), s) order, and a single label that
    # is not an integer must switch the whole file to string order.
    labels = ["+1", "1", "01", "1_0", "10", "-0", "0", "007", "7", "\u0663", "3", "-3"]
    labels += extra
    giant, small = labels[:8] + extra, labels[8:]
    lines = [f"{a} {b}" for comp in (giant, small) for a, b in zip(comp, comp[1:])]
    path = write(tmp_path, "\n".join(reversed(lines)) + "\n")
    for flag in (True, False):
        assert load_edge_list(path, flag) == reference_load_edge_list(path, flag), flag
    _, idmap = load_edge_list(path, take_giant_component=False)
    if extra:
        assert idmap.internal_to_external == sorted(labels)
    else:
        assert idmap.internal_to_external == [
            "-3", "-0", "0", "+1", "01", "1", "3", "\u0663", "007", "7", "10", "1_0"
        ]


def test_load_insensitive_to_order_and_direction(tmp_path):
    g1, m1 = load_edge_list(write(tmp_path, "0 1\n1 2\n2 0\n", "a.txt"))
    g2, m2 = load_edge_list(write(tmp_path, "2 1\n0 2\n1 0\n", "b.txt"))
    assert g1 == g2
    assert m1.external_to_internal == m2.external_to_internal


def test_save_triangle_exact_bytes(tmp_path):
    g, _ = load_edge_list(write(tmp_path, "2 0\n1 2\n0 1\n"))
    out = tmp_path / "out.txt"
    save_edge_list(g, out)
    assert out.read_text(encoding="utf-8") == "0 1\n0 2\n1 2\n"


def test_save_empty_edge_graph_writes_empty_file(tmp_path):
    from degreesearch import build_graph

    out = tmp_path / "out.txt"
    save_edge_list(build_graph([], 3), out)
    assert out.read_text(encoding="utf-8") == ""


def test_round_trip_ba_graph(tmp_path):
    g = generate_ba(BaConfig(n=1000, m_attach=3, seed_size=3, rng_seed=17))
    path = tmp_path / "ba.txt"
    save_edge_list(g, path)
    loaded, idmap = load_edge_list(path)
    assert loaded == g
    assert list(idmap.internal_to_external) == [str(i) for i in range(1000)]


_SEPARATORS = (" ", "  ", "\t", "\u00a0", " \t ")


def _messy_edge_file(rng):
    """Edge-list text exercising every parsing rule."""
    kind = rng.choice(["numeric", "string", "mixed", "equal-value"])
    numeric = [str(i) for i in rng.sample(range(300), 30)]
    strings = [rng.choice("abxyz") + str(i) for i in range(30)]
    pool = {
        "numeric": numeric,
        "string": strings,
        "mixed": numeric[:20] + strings[:10],
        "equal-value": ["1", "01", "+1", "001", "2", "02", "-3", "-03"] + numeric[:12],
    }[kind]
    rng.shuffle(pool)
    edges = []
    while len(pool) >= 2:
        comp = [pool.pop() for _ in range(min(len(pool), rng.choice([2, 3, 5, 8])))]
        edges += [(comp[i], comp[rng.randrange(i)]) for i in range(1, len(comp))]
        edges += [(rng.choice(comp), rng.choice(comp)) for _ in range(len(comp))]
        if rng.random() < 0.5:
            break
    # Duplicates in both orientations.
    edges += [rng.choice(edges)[:: rng.choice([1, -1])] for _ in range(len(edges) // 3)]
    # A label seen only in a self-loop must not become a node; a string one
    # would also switch a numeric file to string order.
    edges.append(("lonely", "lonely"))
    rng.shuffle(edges)

    def pad():
        return rng.choice(["", "", " ", "\t", "\u00a0"])

    lines = [f"{pad()}{a}{rng.choice(_SEPARATORS)}{b}{pad()}" for a, b in edges]
    for _ in range(rng.randrange(4)):
        extra = rng.choice(["# c", "  # 1 2 3", "\t#x y", "\u00a0#", "#", "", "   ", "\u00a0"])
        lines.insert(rng.randrange(len(lines) + 1), extra)
    newline = rng.choice(["\n", "\r\n"])
    text = newline.join(lines)
    return text if rng.random() < 0.5 else text + newline


def _load_outcome(load, path, take_giant_component):
    try:
        return load(path, take_giant_component)
    except EdgeListError as exc:
        return ("EdgeListError", exc.line_no)


def test_load_matches_string_pair_reference(tmp_path):
    seen = {"multi-component": 0, "error": 0, "equal-value": 0}
    for seed in range(200):
        rng = random.Random(seed)
        text = _messy_edge_file(rng)
        if rng.random() < 0.2:
            lines = text.split("\n")
            bad = rng.choice(["solo", "a b c", "1\u00a02\t3", "x # y"])
            lines.insert(rng.randrange(len(lines) + 1), bad)
            text = "\n".join(lines)
        if rng.random() < 0.2:
            text = "\ufeff" + text
        path = tmp_path / f"g{seed}.txt"
        path.write_bytes(text.encode("utf-8"))
        for flag in (True, False):
            got = _load_outcome(load_edge_list, path, flag)
            assert got == _load_outcome(reference_load_edge_list, path, flag), (seed, flag)
        if got[0] == "EdgeListError":
            seen["error"] += 1
            continue
        _, idmap = got
        assert "lonely" not in idmap.external_to_internal
        seen["multi-component"] += load_edge_list(path) != got
        seen["equal-value"] += "01" in idmap.external_to_internal
    assert min(seen.values()) >= 5, seen


def test_shuffled_string_labelled_graph_loads_as_the_reference(tmp_path):
    # The loader's provisional IDs follow first appearance, which here is
    # unrelated to the final label order: nearly every row is finished at
    # another index than the ID it ends at.
    rng = random.Random(22)
    g = generate_ba(BaConfig(n=2_000, m_attach=2, rng_seed=22))
    names = [f"n{i:x}" for i in rng.sample(range(10**6), g.node_count + 3)]
    edges = [(names[u], names[v]) for u, v in _edges(g)]
    edges += [(names[-3], names[-2]), (names[-2], names[-1])]
    edges += [pair[::-1] for pair in rng.sample(edges, 500)] + rng.sample(edges, 500)
    edges += [(a, a) for a, _ in rng.sample(edges, 50)]
    lines = [f"{a} {b}" for a, b in edges] + ["# comment", "#x y", ""] * 10
    rng.shuffle(lines)
    path = write(tmp_path, "\n".join(lines) + "\n")
    for flag in (True, False):
        assert load_edge_list(path, flag) == reference_load_edge_list(path, flag), flag
    assert load_edge_list(path)[0].node_count == g.node_count


@pytest.fixture
def line_parses(monkeypatch):
    """The paths read by the line-by-line parse during the test."""
    paths = []
    parse = topology._load_labels

    def spy(path):
        paths.append(path)
        return parse(path)

    monkeypatch.setattr(topology, "_load_labels", spy)
    return paths


@pytest.fixture
def no_line_parse(monkeypatch):
    """Fail any load that reaches the line-by-line parse."""

    def refuse(path):
        raise AssertionError(f"line-by-line parse of {path}")

    monkeypatch.setattr(topology, "_load_labels", refuse)


def _messy_integer_edge_file(rng):
    """Canonical integer labels laid out with every rule the parse follows."""
    kind = rng.choice(["zero-based", "one-based", "gappy"])
    labels = {
        "zero-based": range(30),
        "one-based": range(1, 31),
        "gappy": sorted(rng.sample(range(60), 30)),
    }[kind]
    pool = [str(v) for v in labels]
    rng.shuffle(pool)
    # Two components, whose sizes sometimes tie; the rest of the pool is
    # left out, so some labels are seen only in a self-loop.
    giant_size = rng.choice([3, 5, 8])
    comps = [pool[:giant_size], pool[giant_size : giant_size + rng.choice([2, 3, 5])]]
    edges = []
    for comp in comps:
        edges += [(comp[i], comp[rng.randrange(i)]) for i in range(1, len(comp))]
        edges += [(rng.choice(comp), rng.choice(comp)) for _ in range(len(comp))]
    # Duplicates in both orientations, and enough lines that the file can
    # hold every label.
    repeats = max(len(edges) // 2, 30 - len(edges))
    edges += [rng.choice(edges)[:: rng.choice([1, -1])] for _ in range(repeats)]
    lonely = [str(max(labels) + 1 + rng.randrange(3)), pool[-1]]
    edges += [(label, label) for label in lonely]
    rng.shuffle(edges)
    separators = _SEPARATORS + ("\x0b",)

    def pad():
        return rng.choice(["", "", " ", "\t", "\u00a0", "\x0b"])

    lines = [f"{pad()}{a}{rng.choice(separators)}{b}{pad()}" for a, b in edges]
    extras = ["# 1 2", "#3 4", "  # 5 6 7", "\t#0", "\u00a0# 8 9", "", "   ", "\u00a0"]
    for _ in range(rng.randrange(1, 5)):
        extra = rng.choice(extras)
        lines.insert(rng.randrange(len(lines) + 1), extra)
    newline = rng.choice(["\n", "\r\n"])
    text = newline.join(lines)
    if rng.random() < 0.5:
        text += newline
    return text if rng.random() < 0.7 else "\ufeff" + text


def test_integer_files_load_as_the_reference_without_the_line_parse(tmp_path, no_line_parse):
    seen = {"multi-component": 0, "one-based": 0, "gappy": 0, "bom": 0, "crlf": 0}
    for seed in range(200):
        rng = random.Random(seed)
        text = _messy_integer_edge_file(rng)
        path = tmp_path / f"g{seed}.txt"
        path.write_bytes(text.encode("utf-8"))
        for flag in (True, False):
            got = load_edge_list(path, flag)
            assert got == reference_load_edge_list(path, flag), (seed, flag)
        full, giant = got, load_edge_list(path)
        labels = full[1].internal_to_external
        seen["multi-component"] += full != giant
        seen["one-based"] += labels[0] == "1"
        seen["gappy"] += int(labels[-1]) >= len(labels) + 2
        seen["bom"] += text.startswith("\ufeff")
        seen["crlf"] += "\r\n" in text
    assert min(seen.values()) >= 10, seen


def _edges(g):
    return [(u, v) for u in range(g.node_count) for v in g.adjacency[u] if u < v]


def _ba_edges():
    g = generate_ba(BaConfig(n=5_000, m_attach=3, rng_seed=11))
    return g, _edges(g)


def test_shuffled_gappy_integer_file_over_many_blocks_loads_as_the_reference(
    tmp_path, no_line_parse
):
    # A 1-based giant and a second component with gappy labels, shuffled,
    # with duplicates, self-loops, integer comments and CRLF line ends:
    # several read blocks, each holding a bit of every rule.
    rng = random.Random(23)
    g, edges = _ba_edges()
    lines = [f"{u + 1}\t{v + 1}" for u, v in edges]
    lines += [f"{v + 1} {u + 1}" for u, v in rng.sample(edges, 2_000)]
    lines += [f"{u + 1} {u + 1}" for u, _ in rng.sample(edges, 200)]
    lines += ["20001 20005", "20005 20100", "  # 1 2", "", "#9 10 11"] * 40
    rng.shuffle(lines)
    path = tmp_path / "g.txt"
    path.write_bytes(("\r\n".join(lines)).encode("utf-8"))
    assert path.stat().st_size > 2 * 2**16
    for flag in (True, False):
        assert load_edge_list(path, flag) == reference_load_edge_list(path, flag), flag
    loaded, idmap = load_edge_list(path)
    assert loaded == g
    assert idmap.internal_to_external == [str(u + 1) for u in range(g.node_count)]


def test_saved_edge_list_never_takes_the_line_parse(tmp_path, no_line_parse):
    g = generate_ba(BaConfig(n=20_000, m_attach=3, rng_seed=7))
    path = tmp_path / "ba.txt"
    save_edge_list(g, path)
    loaded, idmap = load_edge_list(path)
    assert loaded == g
    assert idmap.internal_to_external == [str(u) for u in range(g.node_count)]
    assert idmap.external_to_internal == {str(u): u for u in range(g.node_count)}


@pytest.mark.parametrize(
    "label", ["01", "+1", "-3", "1_0", "\u0663", "9" * 5_000, "x"],
    ids=["zero-led", "plus", "negative", "underscore", "arabic-digit", "5000-digits", "string"],
)
def test_one_late_non_canonical_label_takes_the_line_parse(tmp_path, line_parses, label):
    # int() reads every one of these except "x", but str() of its value
    # would not give the label back.  It comes in the file's last block.
    _, edges = _ba_edges()
    lines = [f"{u} {v}" for u, v in edges] + [f"{label} 17", "# 1 2"]
    path = write(tmp_path, "\n".join(lines) + "\n")
    assert path.stat().st_size > 2 * 2**16
    for flag in (True, False):
        assert load_edge_list(path, flag) == reference_load_edge_list(path, flag), flag
    assert line_parses == [path, path]
    assert label in load_edge_list(path, take_giant_component=False)[1].external_to_internal


@pytest.mark.parametrize("bad", [b"1 2 3", b"7", b"1 \xff", b"\xfe 2"])
def test_error_after_integer_blocks_reports_the_line(tmp_path, bad):
    _, edges = _ba_edges()
    lines = [b"# header", b""] + [b"%d %d" % edge for edge in edges] + [bad, b"5 6"]
    path = tmp_path / "g.txt"
    path.write_bytes(b"\r\n".join(lines) + b"\r\n")
    with pytest.raises(EdgeListError) as exc:
        load_edge_list(path)
    assert exc.value.line_no == len(lines) - 1
    if bad.isascii():
        assert _load_outcome(load_edge_list, path, True) == _load_outcome(
            reference_load_edge_list, path, True
        )


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_load_reads_a_pipe_once(tmp_path, monkeypatch):
    # The load waits at the pipe before the writer comes, then gets more
    # than a pipe buffer holds: a load that closed the pipe and opened it
    # again would lose the text and wait there for a second writer.  If it
    # reopened before the writer wrote, the text would survive, so the spy
    # counts the opens too.
    _, edges = _ba_edges()
    path = write(tmp_path, "".join(f"{u} {v}\n" for u, v in edges))
    assert path.stat().st_size > 2**16
    fifo = tmp_path / "edges.fifo"
    os.mkfifo(fifo)
    opened, outcome = [], []

    def spy(file, *args, **kwargs):
        opened.append(file)
        return open(file, *args, **kwargs)

    monkeypatch.setattr(topology, "open", spy, raising=False)
    loader = threading.Thread(
        target=lambda: outcome.append(_load_outcome(load_edge_list, fifo, True)), daemon=True
    )
    loader.start()
    time.sleep(0.2)
    copy = "import sys; open(sys.argv[2], 'wb').write(open(sys.argv[1], 'rb').read())"
    writer = subprocess.Popen([sys.executable, "-c", copy, path, fifo], stderr=subprocess.DEVNULL)
    loader.join(timeout=60)
    if loader.is_alive():
        # Be the second writer, so the thread ends before the test fails.
        with contextlib.suppress(OSError):
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
        loader.join(timeout=60)
    writer.wait(timeout=60)
    assert opened == [fifo]
    assert outcome == [load_edge_list(path)]


def _unread(id_map):
    # ``vars`` reads the instance dictionary without building any field.
    return "internal_to_external" not in vars(id_map)


def _two_component_integer_file(tmp_path):
    # A 1-based BA giant with gaps in its labels, and a second component.
    g, edges = _ba_edges()
    label = [3 * u + 1 for u in range(g.node_count)]
    lines = [f"{label[u]} {label[v]}" for u, v in edges] + ["20001 20005", "20005 20100"]
    return write(tmp_path, "\n".join(lines) + "\n")


_MAP_CHECKS = {
    "eq": lambda m, ref: m == ref,
    "eq-reflected": lambda m, ref: ref == m,
    "ne": lambda m, ref: not (m != ref) and not (ref != m),
    "repr": lambda m, ref: repr(m) == repr(ref),
    "copy": lambda m, ref: copy.copy(m) == ref,
    "deepcopy": lambda m, ref: copy.deepcopy(m) == ref and ref == copy.deepcopy(m),
    **{
        f"pickle-{protocol}": lambda m, ref, protocol=protocol: (
            pickle.loads(pickle.dumps(m, protocol)) == ref
        )
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    },
}


def test_id_map_read_from_a_second_thread_during_its_build():
    # The first read of a lazy map is held inside ``str`` of a value; a
    # read from another thread meanwhile must still find the fields.
    entered, release = threading.Event(), threading.Event()

    class Held:
        calls = 0

        def __str__(self):
            Held.calls += 1
            if Held.calls == 1:
                entered.set()
                release.wait(10)
            return "7"

    id_map = topology._value_map([Held()], [0])
    first = []
    thread = threading.Thread(target=lambda: first.append(id_map.internal_to_external))
    thread.start()
    try:
        assert entered.wait(10)
        assert id_map.internal_to_external == ["7"]
        assert id_map.external_to_internal == {"7": 0}
    finally:
        release.set()
        thread.join(10)
    assert first == [["7"]]


def test_id_map_read_from_a_second_thread_across_its_build():
    # A second thread misses the field and is held on entering
    # ``__getattr__`` until this thread has built the map: it must then
    # find the fields, though the values are gone.
    entered, built = threading.Event(), threading.Event()

    def hold(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "__getattr__":
            entered.set()
            built.wait(10)

    def read():
        sys.settrace(hold)
        try:
            second.append(id_map.internal_to_external)
        finally:
            sys.settrace(None)

    id_map = topology._value_map([7], [0])
    second = []
    thread = threading.Thread(target=read)
    thread.start()
    try:
        assert entered.wait(10)
        assert id_map.internal_to_external == ["7"] and not _unread(id_map)
    finally:
        built.set()
        thread.join(10)
    assert second == [["7"]]


@pytest.mark.parametrize("read_first", [False, True], ids=["unread", "read"])
def test_block_parse_id_map_behaves_as_the_reference(tmp_path, no_line_parse, read_first):
    # Each check gets a fresh map: the first one to read a field builds it.
    path = _two_component_integer_file(tmp_path)
    for flag in (True, False):
        ref = reference_load_edge_list(path, flag)[1]
        for check, holds in _MAP_CHECKS.items():
            id_map = load_edge_list(path, flag)[1]
            assert _unread(id_map)
            if read_first:
                assert id_map.internal_to_external == ref.internal_to_external
                assert not _unread(id_map)
            assert holds(id_map, ref), (check, flag)


def test_integer_giant_component_builds_no_labels(tmp_path, capsys, monkeypatch):
    # The block parse's IDs ascend with the labels, so the giant component
    # is taken by position.  The line parse's label ordering, ``_indexed``
    # and ``_label_order``, must not run, and no map may be read.
    path = _two_component_integer_file(tmp_path)
    argv = ["stats", "--topology", str(path), "--pairs", "20"]
    assert cli.main(argv) == 0
    expected = capsys.readouterr().out
    reference = reference_load_edge_list(path)

    def refuse(*args):
        raise AssertionError("labels ordered on the block parse")

    maps = []

    def recording_value_map(*args):
        maps.append(value_map(*args))
        return maps[-1]

    value_map = topology._value_map
    monkeypatch.setattr(topology, "_indexed", refuse)
    monkeypatch.setattr(topology, "_label_order", refuse)
    monkeypatch.setattr(topology, "_value_map", recording_value_map)
    loaded = load_edge_list(path)
    full = load_edge_list(path, take_giant_component=False)
    giant = giant_component(*full)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == expected
    assert "giant component: 5000 nodes" in expected
    # One map per parse and one per giant taken: two loads, the giant of
    # the second, and the parse and giant in ``stats``.
    assert len(maps) == 6 and all(map(_unread, maps))
    assert loaded == giant == reference
    # Read first, the map takes the label path to the same component.
    monkeypatch.undo()
    assert full[1].internal_to_external and not _unread(full[1])
    assert giant_component(*full) == reference


def test_unread_id_map_holds_no_labels(tmp_path):
    # The file of the memory test below.  Unread, the block parse's map
    # holds one list of the kept values, whose ints the graph shares: 42
    # bytes a node under CPython 3.11.  Read, it holds the label strings
    # and their dictionary instead: 116.
    path = tmp_path / "ba.txt"
    save_edge_list(generate_ba(BaConfig(n=20_000, m_attach=3, seed_size=3, rng_seed=5)), path)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        graph, id_map = load_edge_list(path)
        # A full collection also empties the free lists that keep the
        # graph's tuples.
        del graph
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert held < 64 * 20_000, held
    assert _unread(id_map)
    assert id_map.internal_to_external == [str(u) for u in range(20_000)]


def test_load_peak_memory_is_a_small_multiple_of_the_result(tmp_path):
    # Holding every edge as a pair of label strings peaked at 7.2x the
    # memory of the returned graph and map; integer edge IDs peaked at
    # 3.9x with a set per node in build_graph, 2.1x with a list per node.
    # Filing each edge straight into adjacency rows, which become the
    # graph's tuples in place, peaks at 1.4x, and at 1.2x when the rows are
    # indexed by the integer labels themselves.
    path = tmp_path / "ba.txt"
    save_edge_list(generate_ba(BaConfig(n=20_000, m_attach=3, seed_size=3, rng_seed=5)), path)
    loaded, peak, retained = traced(lambda: load_edge_list(path))
    assert loaded[0].node_count == 20_000
    assert peak < 2 * retained, (peak, retained)


@pytest.mark.parametrize("labelling", ["strings", "one-based", "sparse", "strings-giant"])
def test_load_peak_memory_stays_a_small_multiple_for_other_labels(
    tmp_path, line_parses, labelling
):
    # The same graph as above under four labellings: strings, read line
    # by line; labels from 1, whose rows close up after the parse; labels
    # spread over 20 times the node count, past the two labels per line
    # that the file can hold, read line by line rather than given a row
    # for every unused value; and strings with a second component, which
    # the giant component then drops.
    g = generate_ba(BaConfig(n=20_000, m_attach=3, seed_size=3, rng_seed=5))
    names = {
        "strings": [f"n{u}" for u in range(g.node_count)],
        "one-based": [str(u + 1) for u in range(g.node_count)],
        "sparse": list(map(str, sorted(random.Random(5).sample(range(400_000), g.node_count)))),
        "strings-giant": [f"n{u}" for u in range(g.node_count)],
    }[labelling]
    lines = [f"{names[u]} {names[v]}" for u, v in _edges(g)]
    # A label seen only in a self-loop, far past the others but within
    # what the file can hold, must not make rows either.
    lines.append("100000 100000")
    if labelling == "strings-giant":
        lines.append("x y")
    path = write(tmp_path, "\n".join(lines) + "\n")
    loaded, peak, retained = traced(lambda: load_edge_list(path))
    assert loaded[0].node_count == 20_000
    assert peak < 2 * retained, (peak, retained)
    assert len(line_parses) == (labelling != "one-based")
