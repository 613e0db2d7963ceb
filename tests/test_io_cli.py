"""File formats, DIMACS export, the command-line interface and the package namespace."""

import hashlib
import importlib
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import keller
from keller.cli import main
from keller.construction import VectorSet
from keller.core import (
    CubeVector,
    GraphVariant,
    KellerGraphSpec,
    has_edge,
    materialize,
    plain_degree,
    star_degree,
)
from keller.files import (
    CountMismatchError,
    DuplicateVectorError,
    HeaderFormatError,
    VectorLineError,
    export_dimacs,
    read_vector_set,
    write_vector_set,
)
from keller.verify import CellCoverStatus, verify_clique, verify_tiling_cells

STAR = GraphVariant.STAR
PLAIN = GraphVariant.PLAIN


# ---------------------------------------------------------------------------
# vector-set files
# ---------------------------------------------------------------------------

def test_round_trip_random_sets(tmp_path):
    rng = random.Random(606)
    for i in range(25):
        dim = rng.randint(1, 5)
        size = rng.randint(0, min(30, 4**dim))
        s = VectorSet(dim, (CubeVector.from_index(dim, j) for j in rng.sample(range(4**dim), size)))
        path = tmp_path / f"set{i}.txt"
        write_vector_set(path, s)
        assert read_vector_set(path) == s


def test_file_layout_header_and_sorted_body(tmp_path, s10):
    path = tmp_path / "s10.txt"
    write_vector_set(path, s10)
    lines = path.read_text().splitlines()
    assert lines[0] == "dim=10 count=1024"
    assert lines[1:] == sorted(lines[1:])
    assert len(lines) == 1025


@pytest.mark.parametrize("dim", [1, 12, 33])
def test_write_vector_set_matches_line_reference(tmp_path, dim):
    rng = random.Random(700 + dim)
    picks = {rng.randrange(4**dim) for _ in range(min(200, 4**dim))}
    s = VectorSet(dim, (CubeVector.from_index(dim, j) for j in picks))
    write_vector_set(tmp_path / "s.txt", s)
    want = "\n".join([f"dim={dim} count={len(s)}", *(str(v) for v in s)]) + "\n"
    assert (tmp_path / "s.txt").read_bytes() == want.encode()


def test_empty_set_file(tmp_path):
    path = tmp_path / "empty.txt"
    write_vector_set(path, VectorSet(3, ()))
    assert path.read_text() == "dim=3 count=0\n"
    assert read_vector_set(path) == VectorSet(3, ())


@pytest.mark.parametrize(
    "content,error",
    [
        ("", HeaderFormatError),
        ("dim=3\n", HeaderFormatError),
        ("dim=x count=1\n012\n", HeaderFormatError),
        ("dim=0 count=0\n", HeaderFormatError),
        ("dim=3 count=1\n0214\n", VectorLineError),
        ("dim=4 count=1\n0214\n", VectorLineError),
        ("dim=3 count=1\n02\n", VectorLineError),
        ("dim=3 count=2\n012\n012\n", DuplicateVectorError),
        ("dim=3 count=3\n012\n013\n", CountMismatchError),
        # only \n (or \r\n, \r) ends a line, and header digits are ASCII
        ("dim=2 count=3\n00\n22\x1c31\n", VectorLineError),
        ("dim=2 count=2\n00\x0c22\n", VectorLineError),
        ("dim=2 count=2\n00\x8522\n", VectorLineError),
        ("dim=2 count=2\n00\u202822\n", VectorLineError),
        ("dim=\u0662 count=1\n00\n", HeaderFormatError),
        # a byte that is not ASCII fails on its line, in any locale
        (b"dim=2 count=1\n0\xff\n", VectorLineError),
        (b"dim=2\xff count=1\n00\n", HeaderFormatError),
    ],
)
def test_read_errors_are_distinct(tmp_path, content, error):
    path = tmp_path / "bad.txt"
    path.write_bytes(content if isinstance(content, bytes) else content.encode())
    with pytest.raises(error):
        read_vector_set(path)


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_read_accepts_crlf_and_cr_line_ends(tmp_path, newline):
    path = tmp_path / "crlf.txt"
    path.write_bytes(newline.join(["dim=2 count=2", "00", "31", ""]).encode())
    assert read_vector_set(path) == VectorSet.from_strings(2, ["00", "31"])


def test_empty_set_cost_does_not_grow_with_its_dimension(tmp_path):
    # no vector means no digit to hold: reading and writing a million-
    # coordinate empty set allocates nothing per coordinate
    src, out = tmp_path / "empty.txt", tmp_path / "copy.txt"
    src.write_text("dim=1000000 count=0\n")
    tracemalloc.start()
    try:
        s = read_vector_set(src)
        write_vector_set(out, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (s.dim, len(s)) == (1_000_000, 0)
    assert out.read_bytes() == src.read_bytes()
    assert peak < 1 << 20




# ---------------------------------------------------------------------------
# DIMACS
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "dim,variant,header",
    [
        (2, STAR, "p edge 16 40"),
        (3, STAR, "p edge 64 1088"),
        (1, PLAIN, "p edge 4 2"),
    ],
)
def test_dimacs_headers(tmp_path, dim, variant, header):
    spec = KellerGraphSpec(dim, variant)
    out = export_dimacs(spec, tmp_path / "g.dimacs")
    text = (tmp_path / "g.dimacs").read_text()
    assert header in text.splitlines()
    degree = star_degree(dim) if variant is STAR else plain_degree(dim)
    assert out.num_edges == 4**dim * degree // 2
    assert out.num_edges == materialize(spec).num_edges


def test_dimacs_byte_identical_runs(tmp_path):
    spec = KellerGraphSpec(3, STAR)
    export_dimacs(spec, tmp_path / "a.dimacs")
    export_dimacs(spec, tmp_path / "b.dimacs")
    assert (tmp_path / "a.dimacs").read_bytes() == (tmp_path / "b.dimacs").read_bytes()


def test_dimacs_g5_star_digest(tmp_path):
    # the keller5-family export that the benchmark pipeline also checks
    export_dimacs(KellerGraphSpec(5, STAR), tmp_path / "keller5.clq")
    digest = hashlib.sha256((tmp_path / "keller5.clq").read_bytes()).hexdigest()
    assert digest == "bfbfe29161d7e3338cbcb11554d1277c2e46d30b90d6687156c4f6f9317d9486"


def test_dimacs_edges_one_based_and_sorted(tmp_path):
    export_dimacs(KellerGraphSpec(1, PLAIN), tmp_path / "g1.dimacs")
    lines = (tmp_path / "g1.dimacs").read_text().splitlines()
    edge_lines = [l for l in lines if l.startswith("e ")]
    assert edge_lines == ["e 1 3", "e 2 4"]  # 02 and 13 as 1-based ids


@pytest.mark.parametrize("variant", [PLAIN, STAR])
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_dimacs_matches_per_edge_reference(tmp_path, dim, variant):
    spec = KellerGraphSpec(dim, variant)
    export_dimacs(spec, tmp_path / "g.dimacs")
    vecs = [CubeVector.from_index(dim, i) for i in range(4**dim)]
    edges = [
        f"e {u + 1} {v + 1}\n"
        for u in range(4**dim)
        for v in range(u + 1, 4**dim)
        if has_edge(spec, vecs[u], vecs[v])
    ]
    want = (
        f"c keller graph {variant.value} dim {dim}\n"
        "c vertex id = 1 + sum_i digit_i * 4^i\n"
        f"p edge {4**dim} {len(edges)}\n" + "".join(edges)
    )
    assert (tmp_path / "g.dimacs").read_bytes() == want.encode()


def test_dimacs_guard(tmp_path):
    with pytest.raises(ValueError):
        export_dimacs(KellerGraphSpec(9, STAR), tmp_path / "g.dimacs")


def test_dimacs_edge_count_must_match_closed_form(tmp_path, monkeypatch):
    # a closed-form degree the graph does not have stops the export before
    # anything is written
    from keller import files

    monkeypatch.setattr(files, "star_degree", lambda dim: star_degree(dim) + 1)
    with pytest.raises(AssertionError, match="disagrees with closed form"):
        export_dimacs(KellerGraphSpec(2, STAR), tmp_path / "g.dimacs")
    assert not (tmp_path / "g.dimacs").exists()


def test_dimacs_graph_must_match_spec(tmp_path):
    g = materialize(KellerGraphSpec(2, PLAIN))
    with pytest.raises(ValueError, match="materialized graph does not match spec"):
        export_dimacs(KellerGraphSpec(2, STAR), tmp_path / "g.dimacs", graph=g)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_build_verify_pipeline(tmp_path, capsys):
    out = tmp_path / "s10.txt"
    assert main(["build", "--dim", "10", "--out", str(out)]) == 0
    capsys.readouterr()
    code = main(["verify", "--in", str(out), "--graph", "Gstar", "--cells", "--faces"])
    report = capsys.readouterr().out
    assert code == 0
    assert "clique: OK" in report
    assert "cell-cover: EXACT" in report
    assert "max shared face dim: 8" in report


def test_cli_verify_mutated_file_fails_with_witness(tmp_path, capsys, s10):
    mutated = list(s10.members)
    digits = list(mutated[0].digits)
    digits[0] = (digits[0] + 2) % 4
    replacement = CubeVector.from_digits(digits)
    mutated[0] = replacement
    path = tmp_path / "bad.txt"
    write_vector_set(path, VectorSet(10, mutated))
    code = main(["verify", "--in", str(path), "--graph", "Gstar"])
    report = capsys.readouterr().out
    assert code == 1
    assert "clique: FAIL" in report
    assert "missing:" in report


def test_cli_verify_cells_on_mutated_file_reports_the_bad_cell(tmp_path, capsys, s10):
    # a vector moved by 2 in one coordinate leaves its cells uncovered and
    # covers another vector's twice: the report names the oracle's first
    # bad cell, and the run exits 1
    mutated = list(s10.members)
    digits = list(mutated[0].digits)
    digits[0] = (digits[0] + 2) % 4
    mutated[0] = CubeVector.from_digits(digits)
    bad = VectorSet(10, mutated)
    path = tmp_path / "bad.txt"
    write_vector_set(path, bad)
    cells = verify_tiling_cells(bad)
    assert cells.status in (CellCoverStatus.GAP, CellCoverStatus.OVERLAP)
    assert main(["verify", "--in", str(path), "--cells"]) == 1
    report = capsys.readouterr().out.splitlines()
    assert f"cell-cover: {cells.status.name} at cell {cells.witness}" in report
    assert re.fullmatch(r"cell-cover: (GAP|OVERLAP) at cell [0-3]{10}", report[-1])


def test_cli_verify_truncates_missing_pairs(tmp_path, capsys):
    # all 16 vectors of dim 2: 120 pairs, 40 of them G*_2 edges
    path = tmp_path / "all2.txt"
    write_vector_set(path, VectorSet(2, (CubeVector.from_index(2, i) for i in range(16))))
    code = main(["verify", "--in", str(path), "--graph", "Gstar"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert lines[0] == "clique: FAIL (80 missing pairs)"
    assert sum(line.startswith("missing: ") for line in lines) == 20
    assert lines[21] == "... 60 more"


def test_cli_build12_verify_full_report(tmp_path, capsys):
    out = tmp_path / "s12.txt"
    assert main(["build", "--dim", "12", "--out", str(out)]) == 0
    capsys.readouterr()
    code = main(["verify", "--in", str(out), "--graph", "Gstar", "--cells", "--faces"])
    report = capsys.readouterr().out
    assert code == 0
    assert "clique: OK" in report
    assert "cell-cover: EXACT" in report
    assert "max shared face dim: 10" in report


def test_cli_search_refutes(capsys):
    code = main(["search", "--dim", "3", "--graph", "Gstar", "--target", "8"])
    report = capsys.readouterr().out
    assert code == 0
    assert "status: TARGET_REFUTED" in report
    main(["search", "--dim", "3", "--graph", "Gstar", "--target", "8"])
    assert capsys.readouterr().out == report  # reports are byte-deterministic


def test_cli_search_optimal_prints_witness(capsys):
    # without --target the search is max-clique; OPTIMAL prints its witness
    code = main(["search", "--dim", "3"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines[:2] == ["status: OPTIMAL", "best clique size: 5"]
    witness = [line.split()[1] for line in lines if line.startswith("clique: ")]
    assert len(witness) == 5
    assert verify_clique(VectorSet.from_strings(3, witness), KellerGraphSpec(3, GraphVariant.STAR)).is_clique


def test_cli_search_progress_lines(capsys):
    code = main(["search", "--dim", "2", "--graph", "G", "--progress"])
    report = capsys.readouterr().out
    assert code == 0
    assert "incumbent: size=" in report
    assert "status: OPTIMAL" in report
    assert "best clique size: 4" in report


def test_cli_search_progress_heartbeat(capsys, monkeypatch):
    from keller import search

    monkeypatch.setattr(search, "_PROGRESS_EVERY", 1024)
    code = main(["search", "--dim", "5", "--target", "29", "--budget-nodes", "2500", "--progress"])
    lines = capsys.readouterr().out.splitlines()
    beats = [line for line in lines if line.startswith("progress: ")]
    assert code == 1
    assert [line.split()[1] for line in beats] == ["nodes=1024", "nodes=2048"]
    assert all(re.fullmatch(r"progress: nodes=\d+ nodes/s=\d+", line) for line in beats)
    assert "nodes explored: 2500" in lines


def test_cli_cyclic_search_progress_lines(capsys):
    code = main(["search", "--dim", "3", "--target", "5", "--cyclic-invariant", "--progress"])
    report = capsys.readouterr().out
    assert code == 0
    assert "incumbent: size=5" in report
    assert "status: TARGET_FOUND" in report


# Full stdout of `keller search` per argument list, as sha256 digests of the
# output with --progress and without.  The --progress lines carry the node
# count at each improvement, so these pin every incumbent step, node count,
# status and witness.  Every case stops below 65 536 nodes, so no heartbeat
# line, which prints a rate, appears.  G*_1 has an empty N(0): its only
# subproblem is the prefix.  Cyclic n = 3 target 999 is no sum of orbit
# sizes, so that search runs no node and prints the same either way.
SEARCH_DIGESTS = [
    ("--dim 4 --graph Gstar --target 13",
     "24efa8edbd8c4f92f5bbaa9a692db9c9484fee1fc7843b77af3e76ba548c634c",
     "1983b7243a266f516540ea71e4e767816637df0438b29653b888c5be4d9d3257"),
    ("--dim 4 --graph Gstar",
     "d08c892101ec6df92162ba793dbd18ba6ef763336405d730a49ea7a3d902b06c",
     "a533feda23952e3210372e0a8c834329ae3dd9a763dea3301b929871d9421f82"),
    ("--dim 6 --target 64 --cyclic-invariant",
     "ebb2b20f997bc9e1dd1933e6aeb80de0c154bbc5357c04fefc4c8cdbaefde4a4",
     "ca9a986f6658334684bde1e01ab0b80490a65ac0be78e9332428872dc1ee1a3d"),
    ("--dim 5 --target 28",
     "8b9df2a4913043df29e54088f5e1a83a04735adac77317c6be707729fb712e88",
     "0bfd4e0c5f5d09977e971d0eb5ac926284be173b79d96390906fccf4b16d80fb"),
    ("--dim 5 --target 29 --budget-nodes 20000",
     "fad4cb9feb2e0cac5d7bf7ea6e42d9d168fba7a7ccea851c36f993354cf6c188",
     "b21249d3effe1d65ab9f5a690cb491e14359f4ecd807e85c7f99da814ddafb25"),
    ("--dim 7 --target 128 --cyclic-invariant --budget-nodes 50000",
     "348ae6c400f510c37d1f0d18b66568fd0bc0aa4a0d780027b0c73468de204902",
     "146dc47341fc873976102ebafbfcaf9640d470ff40951eca4986f2bafbd6a921"),
    ("--dim 8 --target 256 --cyclic-invariant --budget-nodes 20000",
     "71ea0be79155a1a10ea5f9eb47152444182ce9f3181b2113e1445a5640137c9c",
     "e3a41553db1e6852d2e0a18361099255307836031175959ff99a5e77f1bbfb22"),
    ("--dim 1",
     "0c5010b0b50ef05c08cabd6551bb7dc61a283db86c3f6b657c8d6279715a075d",
     "a82047e9510da74b8241f80af713269e0d728a77d983587f2fa5e1c42e6181fc"),
    ("--dim 3 --target 999 --cyclic-invariant",
     "d022811cda7762a6841d8a495799b43964f4016533670fdcbaee474fe0d03fe8",
     "d022811cda7762a6841d8a495799b43964f4016533670fdcbaee474fe0d03fe8"),
]


@pytest.mark.parametrize("args, with_progress, without", SEARCH_DIGESTS, ids=[c[0] for c in SEARCH_DIGESTS])
def test_cli_search_stdout_is_pinned(capsys, args, with_progress, without):
    digests = []
    for extra in (["--progress"], []):
        main(["search", *args.split(), *extra])
        digests.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
    assert digests == [with_progress, without]


def test_cli_search_budget_exhaustion_exit_1(capsys):
    code = main(["search", "--dim", "4", "--graph", "Gstar", "--target", "16",
                 "--budget-nodes", "10"])
    report = capsys.readouterr().out
    assert code == 1
    assert "status: BUDGET_EXHAUSTED" in report


def test_cli_search_nan_budget_exit_2(capsys):
    # NaN passes a "<= 0" check; it must not mean an unlimited run
    code = main(["search", "--dim", "3", "--budget-secs", "nan"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error: time_limit must be positive" in captured.err


def test_cli_cyclic_invariant_requires_target(capsys):
    code = main(["search", "--dim", "3", "--cyclic-invariant"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error: --cyclic-invariant requires --target" in captured.err


def test_cli_search_interrupt_exit_1(capsys, monkeypatch):
    from keller.search import _Subproblem

    def interrupt(self, cand, need):
        raise KeyboardInterrupt

    monkeypatch.setattr(_Subproblem, "_color_sort", interrupt)
    code = main(["search", "--dim", "4", "--graph", "Gstar", "--target", "13"])
    report = capsys.readouterr().out
    assert code == 1
    assert report.splitlines() == [
        "status: BUDGET_EXHAUSTED",
        "best clique size: 2",  # the first subproblem's prefix {0, r}
        "nodes explored: 1",
        "note: interrupted",
    ]


def test_cli_cyclic_search_interrupted_while_building(capsys, monkeypatch):
    from keller import search

    def interrupt(row0, table):
        raise KeyboardInterrupt

    monkeypatch.setattr(search, "_gather", interrupt)
    code = main(["search", "--dim", "7", "--target", "128", "--cyclic-invariant"])
    assert code == 1
    assert capsys.readouterr().out.splitlines() == [
        "status: BUDGET_EXHAUSTED",
        "best clique size: 0",
        "nodes explored: 0",
        "note: interrupted",
    ]


def test_cli_search_cyclic_invariant(capsys):
    code = main(["search", "--dim", "3", "--target", "8", "--cyclic-invariant"])
    report = capsys.readouterr().out
    assert code == 0
    assert "status: TARGET_REFUTED" in report


def test_cli_cyclic_invariant_rejects_plain_graph(capsys):
    # {00, 02, 20, 22} is a rotation-invariant 4-clique of G_2 but not of G*_2,
    # so a G*-only search must not answer for --graph G
    closed = VectorSet.from_strings(2, ["00", "02", "20", "22"])
    assert verify_clique(closed, KellerGraphSpec(2, PLAIN)).is_clique
    code = main(["search", "--dim", "2", "--graph", "G", "--target", "4", "--cyclic-invariant"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--cyclic-invariant searches G*_n only" in captured.err
    code = main(["search", "--dim", "2", "--graph", "Gstar", "--target", "4", "--cyclic-invariant"])
    assert code == 0
    assert "status: TARGET_REFUTED" in capsys.readouterr().out


def test_cli_cyclic_invariant_huge_target_refuted(capsys):
    code = main(["search", "--dim", "3", "--cyclic-invariant", "--target", "999999999999"])
    assert code == 0
    assert capsys.readouterr().out.splitlines() == [
        "status: TARGET_REFUTED",
        "best clique size: 0",
        "nodes explored: 0",
        "note: target 999999999999 is not a sum of admissible orbit sizes",
    ]


def test_cli_cyclic_invariant_dimension_guard(capsys, monkeypatch):
    from keller import search

    def enumerate_all(*args):
        raise AssertionError("the guard must reject n = 9 before enumerating")

    monkeypatch.setattr(search, "_orbit_table", enumerate_all)
    code = main(["search", "--dim", "9", "--target", "512", "--cyclic-invariant"])
    captured = capsys.readouterr()
    assert code == 2
    assert "error: cyclic-invariant search guarded at dim 8" in captured.err


@pytest.mark.parametrize("vectors", [[], ["012"]])
def test_cli_verify_faces_without_a_pair(tmp_path, capsys, vectors):
    # no pair shares a face: the report names no dimension, in a defined token
    src = tmp_path / "few.txt"
    src.write_text(f"dim=3 count={len(vectors)}\n" + "".join(v + "\n" for v in vectors))
    assert main(["verify", "--in", str(src), "--faces"]) == 0
    assert capsys.readouterr().out.splitlines() == ["clique: OK", "max shared face dim: none"]


def test_cli_verify_cells_guard_fails_before_any_output(tmp_path, capsys):
    src = tmp_path / "wide14.txt"
    src.write_text("dim=14 count=2\n" + "0" * 14 + "\n" + "2" * 14 + "\n")
    assert main(["verify", "--in", str(src), "--cells", "--faces"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cell oracle guarded at dim 13")


WIDE40 = ["0" * 40, "2" * 20 + "1" * 20, "1" * 40]


def test_cli_verify_and_lift_above_32_coordinates(tmp_path, capsys):
    src = tmp_path / "wide.txt"
    src.write_text("dim=40 count=3\n" + "\n".join(WIDE40) + "\n")
    for graph in ("G", "Gstar"):
        assert main(["verify", "--in", str(src), "--graph", graph, "--faces"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "clique: FAIL (2 missing pairs)",
            f"missing: {'0' * 40} {'1' * 40}",
            f"missing: {'1' * 40} {'2' * 20 + '1' * 20}",
            "max shared face dim: none",
        ]
    dst = tmp_path / "wide41.txt"
    assert main(["lift", "--in", str(src), "--out", str(dst)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "lift: rotation +1 on coordinate 0",
        f"wrote {dst}: dim=41 count=6",
    ]
    assert dst.read_text().splitlines() == [
        "dim=41 count=6",
        "0" * 41,
        "1" + "0" * 39 + "2",
        "1" * 40 + "0",
        "2" + "1" * 39 + "2",
        "2" * 20 + "1" * 20 + "0",
        "3" + "2" * 19 + "1" * 20 + "2",
    ]


def test_cli_lift_pipeline(tmp_path, capsys):
    src = tmp_path / "s10.txt"
    dst = tmp_path / "s11.txt"
    assert main(["build", "--dim", "10", "--out", str(src)]) == 0
    assert main(["lift", "--in", str(src), "--out", str(dst)]) == 0
    capsys.readouterr()
    code = main(["verify", "--in", str(dst), "--graph", "Gstar", "--cells"])
    report = capsys.readouterr().out
    assert code == 0
    assert "clique: OK" in report and "cell-cover: EXACT" in report
    assert read_vector_set(dst).dim == 11


def test_cli_lift_without_disjoint_rotation_exit_1(tmp_path, capsys):
    # the four dim-1 vectors fill the space, so every rotation image meets them
    src = tmp_path / "all1.txt"
    dst = tmp_path / "lifted.txt"
    write_vector_set(src, VectorSet.from_strings(1, ["0", "1", "2", "3"]))
    code = main(["lift", "--in", str(src), "--out", str(dst)])
    assert code == 1
    assert capsys.readouterr().out == "lift: no single-coordinate rotation gives a disjoint image\n"
    assert not dst.exists()


def test_cli_export(tmp_path, capsys):
    out = tmp_path / "g2.dimacs"
    code = main(["export", "--dim", "2", "--graph", "Gstar", "--out", str(out)])
    report = capsys.readouterr().out
    assert code == 0
    assert "p edge 16 40" in report


@pytest.mark.parametrize("variant", list(GraphVariant))
def test_cli_graph_names_the_variant(tmp_path, capsys, variant):
    # --graph takes GraphVariant's values and builds that variant's graph
    out = tmp_path / "g2.dimacs"
    assert main(["export", "--dim", "2", "--graph", variant.value, "--out", str(out)]) == 0
    g = materialize(KellerGraphSpec(2, variant))
    assert f"p edge 16 {g.num_edges}" in capsys.readouterr().out
    assert out.read_text().splitlines()[0] == f"c keller graph {variant.value} dim 2"


@pytest.mark.parametrize(
    "argv, usage",
    [
        (["verify"], "usage: keller verify [-h] --in INFILE [--graph {G,Gstar}] [--cells] [--faces]"),
        (["search"], "usage: keller search [-h] --dim DIM [--graph {G,Gstar}] [--target TARGET] [--cyclic-invariant] "
         "[--budget-nodes BUDGET_NODES] [--budget-secs BUDGET_SECS] [--progress]"),
        (["export"], "usage: keller export [-h] --dim DIM [--graph {G,Gstar}] --out OUT"),
    ],
)
def test_cli_graph_choices_help_and_exit_codes(capsys, monkeypatch, argv, usage):
    # the choices come from GraphVariant, in the order and spelling the
    # usage lines have always shown; an unknown graph is a usage error
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.splitlines()[0] == usage
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--graph", "H"])
    assert exc.value.code == 2
    assert "argument --graph: invalid choice: 'H'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [[], ["--cyclic-invariant"]])
def test_cli_search_target_0_exit_2(capsys, argv):
    assert main(["search", "--dim", "3", "--target", "0", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: target")


def test_cli_missing_file_exit_2(capsys):
    code = main(["verify", "--in", "/nonexistent/file.txt"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err


def test_cli_bad_format_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("dim=3 count=1\n0412\n")
    assert main(["verify", "--in", str(path)]) == 2


def test_cli_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["build", "--dim", "9", "--out", "x.txt"])
    assert exc.value.code == 2


def _python(*args):
    """Run a fresh interpreter on the same keller package as this test, installed or not."""
    package_root = str(Path(keller.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def test_console_entry_point():
    proc = _python("-m", "keller", "export", "--dim", "1", "--graph", "G", "--out", "/dev/null")
    assert proc.returncode == 0
    assert "p edge 4 2" in proc.stdout


# ---------------------------------------------------------------------------
# what a process loads
# ---------------------------------------------------------------------------

# Runs keller.cli.main on argv[1:] and prints the keller modules it loaded and
# whether it loaded numpy.ma beyond what a bare `import numpy` loads (numpy 1.x
# imports numpy.ma itself).
_LOADED_BY_MAIN = """
import contextlib, io, json, sys
import numpy
bare = set(sys.modules)
from keller.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
new = set(sys.modules) - bare
print(json.dumps([code, sorted(m for m in new if m.split(".")[0] == "keller"), "numpy.ma" in new]))
"""


@pytest.mark.parametrize(
    "argv, modules",
    [
        (["build", "--dim", "10", "--out", "{out}"], {"construction", "files"}),
        (["verify", "--in", "{s10}", "--cells", "--faces"], {"verify", "files"}),
        (["lift", "--in", "{s10}", "--out", "{out}"], {"construction", "files"}),
        (["search", "--dim", "3"], {"verify", "search"}),
        (["search", "--dim", "3", "--target", "3", "--cyclic-invariant"], {"verify", "search"}),
        (["export", "--dim", "2", "--out", "{out}"], {"files"}),
    ],
    ids=["build", "verify", "lift", "search", "search-cyclic", "export"],
)
def test_cli_loads_only_the_command_modules(tmp_path, s10, argv, modules):
    write_vector_set(tmp_path / "s10.txt", s10)
    argv = [a.format(out=tmp_path / "out.txt", s10=tmp_path / "s10.txt") for a in argv]
    proc = _python("-c", _LOADED_BY_MAIN, *argv)
    assert proc.returncode == 0, proc.stderr
    code, loaded, numpy_ma = json.loads(proc.stdout)
    assert code == 0
    assert set(loaded) == {"keller", "keller.cli", "keller.core"} | {f"keller.{m}" for m in modules}
    assert not numpy_ma


# ---------------------------------------------------------------------------
# the package namespace
# ---------------------------------------------------------------------------

# The names `keller` exports, by the module that defines each.
_EXPORTED = {
    "core": "Automorphism CubeVector GraphVariant KellerGraphSpec MaterializedGraph VectorSet"
            " digit_gap has_edge materialize plain_degree star_degree",
    "construction": "BlockConditionReport BlockSystem Label TemplateVector block_swap_automorphism"
                    " build_counterexample check_block_conditions find_lift_shift lift substitute"
                    " table1 table2",
    "verify": "CellCoverResult CellCoverStatus FaceHistogram MissingEdgeReport face_statistics"
              " facet_free verify_clique verify_tiling_cells",
    "search": "OrbitVertex SearchBudget SearchOutcome SearchStatus clique_decision cyclic_orbits"
              " invariant_clique_search max_clique",
    "files": "DimacsFile export_dimacs read_vector_set write_vector_set",
}


def test_package_exports_each_name_from_its_module():
    names = [name for names in _EXPORTED.values() for name in names.split()]
    assert len(names) == 43
    assert sorted(keller.__all__) == sorted(names)
    for module, module_names in _EXPORTED.items():
        for name in module_names.split():
            obj = getattr(keller, name)
            assert obj is getattr(importlib.import_module(f"keller.{module}"), name)
            assert obj.__module__ == f"keller.{module}"
    assert set(names) <= set(dir(keller))
    namespace = {}
    exec("from keller import *", namespace)
    assert all(namespace[name] is getattr(keller, name) for name in names)
    with pytest.raises(AttributeError):
        keller.nope
    with pytest.raises(ImportError):
        exec("from keller import nope", {})


def test_package_import_loads_no_submodule():
    proc = _python("-c", """
import sys
import keller
assert not [m for m in sys.modules if m.startswith("keller.")], sorted(sys.modules)
assert keller.search.max_clique is keller.max_clique
assert sorted(m for m in sys.modules if m.startswith("keller.")) == [
    "keller.core", "keller.search", "keller.verify"]
""")
    assert proc.returncode == 0, proc.stderr
