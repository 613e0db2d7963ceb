"""Per-layer numbers: each workload's CLI steps replayed in-process, under spans.

Spans are recorded here, around calls into keller's public functions; nothing
inside ``src/keller`` is instrumented.  A span has a name, start, end, parent
and run id (one run per pass over the workload); spans stay in memory and are
written out when the benchmark ends.  Every layer span is a leaf, so its
duration is its self time.  Step, derive and control spans hold the
benchmark's own work (file hashing, the automorphism, output checks); their
self time is reported as ``bench.glue_s``.

Within a pass:

* ``step.*`` spans mirror the CLI processes of the untraced run, one each.
* ``derive`` holds the extra public calls that split a stage with no entry
  point of its own: the B&B time is the full search minus a one-node-budget
  search of the same instance (``search.prep``).
* ``control`` measures, on a small fixed instance, each layer the workload
  does not run, so that every traced run reports every layer.  Those numbers
  are a control: a change aimed at another workload should leave them flat.

Memory peaks come from ``tracemalloc`` (which sees numpy buffers), each in a
call of its own outside the passes, because tracing allocations slows
pure-Python code several times over.
"""

from __future__ import annotations

import random
import statistics
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, Optional

from pipeline import SHA256, MAX_FACE, CYCLIC7_BUDGET, automorphism_image, sha256

import keller
from keller.core import GraphVariant, KellerGraphSpec, materialize
from keller.search import SearchBudget, SearchStatus

STAR = GraphVariant.STAR
ONE_NODE = SearchBudget(node_limit=1)
MIB = 2**20


def is_layer(name: str) -> bool:
    """Layer spans are named ``module.function``; ``step.*`` spans are CLI steps."""
    return "." in name and not name.startswith("step.")


class Tracer:
    """In-memory spans; a failed check marks the innermost open step."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.run: Optional[str] = None
        self._open: list[dict] = []

    @contextmanager
    def span(self, name: str, step: bool = False) -> Iterator[None]:
        rec = {
            "id": len(self.spans), "name": name, "run": self.run,
            "parent": self._open[-1]["id"] if self._open else None,
            "start": time.perf_counter(), "end": None, "counts": {},
        }
        if step:
            rec["failures"] = []
        self.spans.append(rec)
        self._open.append(rec)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def step(self, name: str):
        return self.span(name, step=True)

    def count(self, name: str, value: int) -> None:
        counts = self._open[-1]["counts"]
        counts[name] = counts.get(name, 0) + value

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            next(s for s in reversed(self._open) if "failures" in s)["failures"].append(what)

    def steps(self) -> list[dict]:
        return [s for s in self.spans if "failures" in s]

    def layer_totals(self, run: str) -> tuple[dict[str, float], dict[str, int], float, float]:
        """Self time per span name, counts, and the pass's path and glue seconds.

        The path is the layer time inside ``step.*`` spans: what the untraced
        run's processes spend past their start-up.
        """
        spans = [s for s in self.spans if s["run"] == run]
        child_time: dict[int, float] = {}
        for s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
        by_id = {s["id"]: s for s in spans}
        selfs: dict[str, float] = {}
        counts: dict[str, int] = {}
        path = glue = 0.0
        for s in spans:
            own = s["end"] - s["start"] - child_time.get(s["id"], 0.0)
            selfs[s["name"]] = selfs.get(s["name"], 0.0) + own
            for k, v in s["counts"].items():
                counts[k] = counts.get(k, 0) + v
            parent = by_id.get(s["parent"])
            if is_layer(s["name"]):
                if parent is not None and parent["name"].startswith("step."):
                    path += own
            else:
                glue += own
        return selfs, counts, path, glue


# ---------------------------------------------------------------------------
# Layer calls, one span each
# ---------------------------------------------------------------------------

def build(tr: Tracer, dim: int, path: Path) -> None:
    with tr.span("construction.build"):
        s = keller.build_counterexample(dim)
        tr.count("construction.vectors", len(s))
    write(tr, path, s)
    tr.check(sha256(path) == SHA256[f"s{dim}"], f"sha256 of {path.name}")


def write(tr: Tracer, path: Path, s) -> None:
    with tr.span("files.write"):
        keller.write_vector_set(path, s)
    tr.count("files.bytes", path.stat().st_size)


def read(tr: Tracer, path: Path):
    with tr.span("files.read"):
        return keller.read_vector_set(path)


def verify(tr: Tracer, path: Path, cells: bool) -> None:
    """What ``keller verify --graph Gstar [--cells] --faces`` does."""
    s = read(tr, path)
    with tr.span("verify.clique"):
        report = keller.verify_clique(s, KellerGraphSpec(s.dim, STAR))
        tr.count("verify.pairs", len(s) * (len(s) - 1) // 2)
    tr.check(report.is_clique, f"{path.name} is not a G* clique")
    if cells:
        with tr.span("verify.cells"):
            cover = keller.verify_tiling_cells(s)
        tr.check(cover.status is keller.CellCoverStatus.EXACT_COVER, f"{path.name} cover {cover.status}")
    with tr.span("verify.faces"):
        hist = keller.face_statistics(s)
    tr.check(hist.max_shared == MAX_FACE[s.dim], f"{path.name} max shared face {hist.max_shared}")


def lift(tr: Tracer, src: Path, dst: Path) -> None:
    """What ``keller lift`` does."""
    s = read(tr, src)
    with tr.span("construction.find_lift_shift"):
        a = keller.find_lift_shift(s)
    tr.check(a is not None, f"no lift shift for {src.name}")
    with tr.span("construction.lift"):
        lifted = keller.lift(s, a)
        tr.count("construction.vectors", len(lifted))
    write(tr, dst, lifted)


def materialize_graph(tr: Tracer, dim: int):
    with tr.span("core.materialize"):
        g = materialize(KellerGraphSpec(dim, STAR))
        tr.count("core.edges", g.num_edges)
    return g


def export(tr: Tracer, g, path: Path) -> None:
    with tr.span("files.export_dimacs"):
        out = keller.export_dimacs(g.spec, path, graph=g)
    tr.count("files.bytes", path.stat().st_size)
    tr.check(out.num_edges == g.num_edges, f"{path.name} edge count {out.num_edges}")


def search(tr: Tracer, name: str, call: Callable, status: SearchStatus, nodes: Optional[int] = None):
    with tr.span(name):
        out = call()
        if name == "search.full":
            tr.count("search.nodes", out.nodes_explored)
    tr.check(out.status is status, f"{name} status {out.status.name}, expected {status.name}")
    if nodes is not None:
        tr.check(out.nodes_explored == nodes, f"{name} explored {out.nodes_explored} nodes, expected {nodes}")


def orbits(tr: Tracer, n: int) -> None:
    with tr.span("search.cyclic_orbits"):
        covered = sum(o.size for o in keller.cyclic_orbits(n))
    tr.check(covered == 4**n, f"rotation orbits for n={n} cover {covered} vectors")


def peak_mib(call: Callable):
    """The call's result and the peak memory it allocates, as tracemalloc sees it."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1] / MIB
    finally:
        tracemalloc.stop()


def cells_peak(tr: Tracer, dim: int) -> float:
    s = keller.build_counterexample(dim)
    cover, peak = peak_mib(lambda: keller.verify_tiling_cells(s))
    tr.check(cover.status is keller.CellCoverStatus.EXACT_COVER, f"s{dim} cover {cover.status}")
    return peak


def prep_peak(tr: Tracer, call: Callable) -> float:
    out, peak = peak_mib(call)
    tr.check(out.status is SearchStatus.BUDGET_EXHAUSTED, f"one-node search status {out.status.name}")
    return peak


# ---------------------------------------------------------------------------
# Workload passes and the controls for the layers each one skips
# ---------------------------------------------------------------------------

def control_certify(tr: Tracer, work: Path) -> None:
    """construction, files and verify on the 10-dim set: build, certify, lift."""
    build(tr, 10, work / "c10.txt")
    verify(tr, work / "c10.txt", cells=True)
    lift(tr, work / "c10.txt", work / "c11.txt")


def control_search(tr: Tracer, g3) -> None:
    """search on G*_3: no 6-clique (its clique number is 5)."""
    orbits(tr, 3)
    search(tr, "search.prep", lambda: keller.clique_decision(g3, 6, ONE_NODE), SearchStatus.BUDGET_EXHAUSTED, 1)
    search(tr, "search.full", lambda: keller.clique_decision(g3, 6), SearchStatus.TARGET_REFUTED)


class Certify:
    setup_layers: tuple[str, ...] = ()
    orbits_in_prep = False

    def __init__(self, work: Path, rng: random.Random):
        self.work, self.rng = work, rng
        self.g3 = materialize(KellerGraphSpec(3, STAR))

    def run_pass(self, tr: Tracer) -> None:
        w = self.work
        for dim in (12, 10):
            built, image, lifted = w / f"s{dim}.txt", w / f"a{dim}.txt", w / f"l{dim + 1}.txt"
            with tr.step("step.build"):
                build(tr, dim, built)
            automorphism_image(built, image, self.rng)
            with tr.step("step.verify"):
                verify(tr, image, cells=True)
            with tr.step("step.lift"):
                lift(tr, image, lifted)
            with tr.step("step.verify"):
                verify(tr, lifted, cells=dim + 1 <= 12)
        with tr.step("step.export"):
            export(tr, materialize_graph(tr, 5), w / "keller5.clq")
            tr.check(sha256(w / "keller5.clq") == SHA256["keller5"], "sha256 of keller5.clq")
        with tr.step("control"):
            control_search(tr, self.g3)

    def peaks(self, tr: Tracer) -> dict[str, float]:
        return {
            "verify.cells_peak_mb": cells_peak(tr, 12),
            "search.prep_peak_mb": prep_peak(tr, lambda: keller.clique_decision(self.g3, 6, ONE_NODE)),
        }


class Keller4Refute:
    setup_layers = ("core.materialize", "search.prep")
    orbits_in_prep = False

    def __init__(self, work: Path, rng: random.Random):
        self.work = work

    def run_pass(self, tr: Tracer) -> None:
        with tr.step("step.search"):
            g = materialize_graph(tr, 4)
            search(tr, "search.full", lambda: keller.clique_decision(g, 13), SearchStatus.TARGET_REFUTED)
        with tr.step("derive"):
            search(tr, "search.prep", lambda: keller.clique_decision(g, 13, ONE_NODE),
                   SearchStatus.BUDGET_EXHAUSTED, 1)
        with tr.step("control"):
            orbits(tr, 4)
            control_certify(tr, self.work)
            export(tr, g, self.work / "keller4.clq")

    def peaks(self, tr: Tracer) -> dict[str, float]:
        g4 = materialize(KellerGraphSpec(4, STAR))
        return {
            "verify.cells_peak_mb": cells_peak(tr, 10),
            "search.prep_peak_mb": prep_peak(tr, lambda: keller.clique_decision(g4, 13, ONE_NODE)),
        }


class Cyclic7Budget:
    setup_layers = ("search.prep",)
    orbits_in_prep = True

    def __init__(self, work: Path, rng: random.Random):
        self.work = work

    def run_pass(self, tr: Tracer) -> None:
        budget = SearchBudget(node_limit=CYCLIC7_BUDGET)
        with tr.step("step.search"):
            search(tr, "search.full", lambda: keller.invariant_clique_search(7, 128, budget),
                   SearchStatus.BUDGET_EXHAUSTED, CYCLIC7_BUDGET)
        with tr.step("derive"):
            orbits(tr, 7)
            search(tr, "search.prep", lambda: keller.invariant_clique_search(7, 128, ONE_NODE),
                   SearchStatus.BUDGET_EXHAUSTED, 1)
        with tr.step("control"):
            control_certify(tr, self.work)
            export(tr, materialize_graph(tr, 4), self.work / "keller4.clq")

    def peaks(self, tr: Tracer) -> dict[str, float]:
        return {
            "verify.cells_peak_mb": cells_peak(tr, 10),
            "search.prep_peak_mb": prep_peak(tr, lambda: keller.invariant_clique_search(7, 128, ONE_NODE)),
        }


PASSES = {"certify": Certify, "keller4-refute": Keller4Refute, "cyclic7-budget": Cyclic7Budget}


def layer_metrics(tr: Tracer, runs: list[str], workload) -> dict[str, float]:
    """Medians over passes of each layer's self time and counts, and derived stages.

    ``trace.path_s`` is the layer time a pass spends inside its steps, and
    ``trace.setup_path_s`` the part of it the one-node-budget command repeats.
    """
    per_pass = []
    for run in runs:
        selfs, counts, path, glue = tr.layer_totals(run)
        m = {f"{name}_s": t for name, t in selfs.items() if is_layer(name)}
        m.update(counts)
        m["bench.glue_s"] = glue
        m["trace.path_s"] = path
        m["trace.setup_path_s"] = sum(selfs[name] for name in workload.setup_layers)
        m["search.bb_s"] = selfs["search.full"] - selfs["search.prep"]
        m["search.compat_relabel_s"] = selfs["search.prep"] - (
            selfs["search.cyclic_orbits"] if workload.orbits_in_prep else 0.0
        )
        m["search.nodes_per_s"] = counts["search.nodes"] / m["search.bb_s"]
        m["verify.clique_pairs_per_s"] = counts["verify.pairs"] / selfs["verify.clique"]
        per_pass.append(m)
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
