"""The workloads as keller CLI processes, with the checks on their output.

Each step is a fresh ``python -m keller ...`` process, and the next step starts
only after the previous one has exited: a closed loop with one client.  A
step's wall time runs from spawn to reap; its peak RSS comes from
``os.wait4``.  The program under test is imported from ``src/`` of the
checkout this file sits in.
"""

from __future__ import annotations

import hashlib
import os
import random
import re
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Byte identity of the program's outputs: the built vector-set files and the
# keller5 DIMACS export must stay the same from one version to the next.
SHA256 = {
    "s12": "6543ba9a91709856cd1664a0d33a6e983b419bf715dcc9a55705fd17432436d0",
    "s10": "ff6b76ed8cb4131cca38545d8b766f898d067d2876301ad508acfb9c805c5bc8",
    "keller5": "bfbfe29161d7e3338cbcb11554d1277c2e46d30b90d6687156c4f6f9317d9486",
}

# Largest shared face of the built sets (dims 12, 10) and of their lifts
# (dims 13, 11): one below the facet dimension, and one more after lifting.
MAX_FACE = {12: 10, 10: 8, 13: 11, 11: 9}

KELLER4 = ("search", "--dim", "4", "--graph", "Gstar", "--target", "13")
CYCLIC7 = ("search", "--dim", "7", "--target", "128", "--cyclic-invariant")
CYCLIC7_BUDGET = 50000


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class Step:
    """One finished process and the checks that failed on it."""

    args: tuple[str, ...]
    wall_s: float
    rss_mib: float
    rc: int
    out: str
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)

    def expect(self, line: str) -> None:
        self.check(line in self.out.splitlines(), f"no output line {line!r}")

    def number(self, label: str) -> int:
        """The integer after ``label:`` in the output; 0 (and a failure) if absent."""
        m = re.search(rf"^{re.escape(label)}: (\d+)$", self.out, re.MULTILINE)
        self.check(m is not None, f"no {label!r} line")
        return int(m.group(1)) if m else 0


class Runner:
    """Runs python processes one at a time in a work directory and keeps each Step."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        path = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        self.steps: list[Step] = []

    def run(self, args: tuple[str, ...], rc: int = 0) -> Step:
        """Run ``python <args>``, wait for it to exit and check its exit code."""
        with open(self.workdir / "stdout.txt", "w+b") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args], cwd=self.workdir, env=self.env,
                stdout=out, stderr=subprocess.STDOUT,
            )
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # the run's deadline, or an interrupt
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            text = out.read().decode(errors="replace")
        step = Step(tuple(args), wall, usage.ru_maxrss / 1024, proc.returncode, text)
        step.check(step.rc == rc, f"exit code {step.rc}, expected {rc}")
        self.steps.append(step)
        return step

    def keller(self, *args: str, rc: int = 0) -> Step:
        return self.run(("-m", "keller", *args), rc)


def automorphism_image(src: Path, dst: Path, rng: random.Random) -> None:
    """Write the image of a vector-set file under a random Keller-graph automorphism.

    The group is the one ``keller.core.Automorphism`` spans: move the
    coordinates by a permutation, then relabel each by x -> s*x + c (mod 4)
    with s in {1, 3}.  Such a map keeps both edge relations and every shared
    face, so the image of a facet-free tiling is one too and costs the same
    work to certify; only the bytes the program reads change with the seed.
    """
    header, *body = src.read_text().splitlines()
    dim = len(body[0])
    dest = list(range(dim))
    rng.shuffle(dest)
    labels = [
        "".join(str((s * d + c) % 4) for d in range(4))
        for s, c in ((rng.choice((1, 3)), rng.randrange(4)) for _ in range(dim))
    ]
    src_of = [0] * dim
    for i, j in enumerate(dest):
        src_of[j] = i
    image = sorted(
        "".join(labels[j][int(m[src_of[j]])] for j in range(dim)) for m in body
    )
    dst.write_text("\n".join([header, *image]) + "\n")


def _written_count(step: Step, name: str, dim: int) -> int:
    """Check a ``wrote <file>: dim=<d> count=<2^d>`` line; return the count."""
    step.expect(f"wrote {name}: dim={dim} count={2**dim}")
    m = re.search(r"count=(\d+)$", step.out, re.MULTILINE)
    return int(m.group(1)) if m else 0


def _check_verify(step: Step, dim: int, cells: bool) -> None:
    step.expect("clique: OK")
    if cells:
        step.expect("cell-cover: EXACT")
    step.expect(f"max shared face dim: {MAX_FACE[dim]}")


def certify(runner: Runner, rng: random.Random) -> int:
    """Build, move by a seeded automorphism, certify, lift, certify; export keller5.

    Returns the number of vectors built or lifted, each of which is certified.
    """
    vectors = 0
    for dim in (12, 10):
        built, image, lifted = f"s{dim}.txt", f"a{dim}.txt", f"l{dim + 1}.txt"
        step = runner.keller("build", "--dim", str(dim), "--out", built)
        vectors += _written_count(step, built, dim)
        step.check(sha256(runner.workdir / built) == SHA256[f"s{dim}"], f"sha256 of {built}")
        automorphism_image(runner.workdir / built, runner.workdir / image, rng)
        step = runner.keller("verify", "--in", image, "--graph", "Gstar", "--cells", "--faces")
        _check_verify(step, dim, cells=True)
        step = runner.keller("lift", "--in", image, "--out", lifted)
        vectors += _written_count(step, lifted, dim + 1)
        args = ("--faces",) if dim + 1 > 12 else ("--cells", "--faces")
        step = runner.keller("verify", "--in", lifted, "--graph", "Gstar", *args)
        _check_verify(step, dim + 1, cells="--cells" in args)
    step = runner.keller("export", "--dim", "5", "--graph", "Gstar", "--out", "keller5.clq")
    step.expect("wrote keller5.clq: p edge 1024 397312")
    step.check(sha256(runner.workdir / "keller5.clq") == SHA256["keller5"], "sha256 of keller5.clq")
    return vectors


def keller4_refute(runner: Runner, rng: random.Random) -> int:
    """Refute a 13-clique in G*_4 (its clique number is 12); returns B&B nodes."""
    step = runner.keller(*KELLER4)
    step.expect("status: TARGET_REFUTED")
    return step.number("nodes explored")


def cyclic7_budget(runner: Runner, rng: random.Random) -> int:
    """Budgeted search for a rotation-invariant 128-clique in G*_7; returns B&B nodes."""
    step = runner.keller(*CYCLIC7, "--budget-nodes", str(CYCLIC7_BUDGET), rc=1)
    step.expect("status: BUDGET_EXHAUSTED")
    step.expect(f"nodes explored: {CYCLIC7_BUDGET}")
    return step.number("nodes explored")


def _one_node(search: tuple[str, ...]) -> Callable[[Runner], Step]:
    """The search command with a one-node budget: everything before the first node."""

    def run(runner: Runner) -> Step:
        step = runner.keller(*search, "--budget-nodes", "1", rc=1)
        step.expect("status: BUDGET_EXHAUSTED")
        step.expect("nodes explored: 1")
        return step

    return run


def import_only(runner: Runner) -> Step:
    """Interpreter start plus ``import keller``: what each certify process pays first."""
    return runner.run(("-c", "import keller"))


@dataclass(frozen=True)
class Workload:
    name: str
    iterate: Callable[[Runner, random.Random], int]
    setup: Callable[[Runner], Step]
    setup_reps: int  # set-up samples per repetition, spread over the run


WORKLOADS = {
    w.name: w
    for w in (
        Workload("certify", certify, import_only, 2),
        Workload("keller4-refute", keller4_refute, _one_node(KELLER4), 2),
        Workload("cyclic7-budget", cyclic7_budget, _one_node(CYCLIC7), 1),
    )
}


@dataclass
class Iteration:
    wall_s: float  # summed over the iteration's processes
    rss_mib: float  # the largest over them
    work: int
    processes: int


def iterate(w: Workload, runner: Runner, rng: random.Random) -> Iteration:
    first = len(runner.steps)
    work = w.iterate(runner, rng)
    steps = runner.steps[first:]
    return Iteration(sum(s.wall_s for s in steps), max(s.rss_mib for s in steps), work, len(steps))


def probe_source(runner: Runner) -> Optional[dict]:
    """Import keller once (filling the bytecode cache) and report where it came from.

    Returns None unless the import succeeds from this checkout's ``src/``.
    """
    step = runner.run(("-c", "import keller, numpy; print(keller.__file__); print(numpy.__version__)"))
    lines = step.out.splitlines()
    if step.rc != 0 or len(lines) < 2 or not Path(lines[-2]).resolve().is_relative_to(SRC.resolve()):
        return None
    return {"keller": lines[-2], "numpy": lines[-1]}
