"""Benchmark of the keller CLI pipelines, end to end and layer by layer.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 38 --trace 0

``--trace 0`` runs the workload as fresh ``python -m keller`` processes, one
after another, and reports the end-to-end metrics that BENCHMARK.json
declares.  ``--trace 1`` replays the same steps in-process under spans and
reports the per-layer metrics.  A run repeats the workload while half of one
more repetition still fits in ``--seconds`` and reports medians.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics; the lines above it show each metric with its unit.  A record
with the seed, the machine, every sample and (traced) every span is written
to ``perfbench/out/``.  ``--workload all`` runs each workload in turn.

Exit codes: 0 with a result, 1 when the run fails or exceeds its time cap, 2
when the checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Iterator

from pipeline import ROOT, SRC, WORKLOADS, Runner, Workload, iterate, probe_source

OUT = Path(__file__).resolve().parent / "out"
RUN_CAP_S = 170  # a run must end within 180 s
STARTUP_REPS = 7


class Deadline(Exception):
    pass


def _on_signal(signum, frame):
    raise Deadline(signal.Signals(signum).name)


def machine_record(numpy_version: str) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = got.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "keller").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


class Window:
    """Repeats work while half of one more repetition, at the median length so far, fits.

    A run therefore lasts about ``seconds`` on average, whatever a repetition costs.
    """

    def __init__(self, seconds: float):
        self.end = time.perf_counter() + seconds
        self.lengths: list[float] = []

    def repeat(self) -> Iterator[int]:
        while not self.lengths or time.perf_counter() + statistics.median(self.lengths) / 2 <= self.end:
            began = time.perf_counter()
            yield len(self.lengths)
            self.lengths.append(time.perf_counter() - began)


def untraced(w: Workload, runner: Runner, rng: random.Random, seconds: float):
    """End-to-end metrics; returns them, the samples, and (none) in-process step failures."""
    setup, its = [], []
    for _ in Window(seconds).repeat():
        setup += [w.setup(runner).wall_s for _ in range(w.setup_reps)]
        its.append(iterate(w, runner, rng))
    failed = sum(1 for s in runner.steps if s.failures)
    metrics = {
        "wall_s": statistics.median(i.wall_s for i in its),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(i.rss_mib for i in its),
        "work_count": statistics.median(i.work for i in its),
        "pass_ratio": 1 - failed / len(runner.steps),
    }
    samples = {"setup_s": setup, "iterations": [vars(i) for i in its]}
    return metrics, samples, []


def traced(w: Workload, runner: Runner, rng: random.Random, seconds: float):
    """Per-layer metrics; returns them, the samples, and each in-process step's failures."""
    sys.path.insert(0, str(SRC))
    import traced as tr_mod

    window = Window(seconds)
    startup = []
    for _ in range(STARTUP_REPS):
        step = runner.keller("--help")
        step.check("usage: keller" in step.out, "no usage line")
        startup.append(step.wall_s)
    tr = tr_mod.Tracer()
    passes = tr_mod.PASSES[w.name](runner.workdir, rng)
    tr.run = "memory"
    with tr.step("memory"):
        peaks = passes.peaks(tr)
    setup = statistics.median(w.setup(runner).wall_s for _ in range(2 * w.setup_reps))
    reference = iterate(w, runner, rng)
    runs = []
    for i in window.repeat():
        tr.run = f"pass{i}"
        runs.append(tr.run)
        with tr.span("pass"):
            passes.run_pass(tr)

    metrics = tr_mod.layer_metrics(tr, runs, passes)
    metrics.update(peaks)
    metrics["cli.startup_s"] = statistics.median(startup)
    # Each untraced process pays one start-up, then the layer time its step spans.
    wall_model = reference.processes * metrics["cli.startup_s"] + metrics.pop("trace.path_s")
    setup_model = metrics["cli.startup_s"] + metrics.pop("trace.setup_path_s")
    metrics["trace.untraced_wall_s"] = reference.wall_s
    metrics["trace.untraced_setup_s"] = setup
    metrics["trace.overhead_ratio"] = wall_model / reference.wall_s - 1
    metrics["trace.setup_overhead_ratio"] = setup_model / setup - 1
    samples = {"cli.startup_s": startup, "passes": runs, "spans": tr.spans}
    return metrics, samples, [s["failures"] for s in tr.steps()]


def measure(name: str, seed: int, seconds: float, trace: bool, declared: dict) -> dict:
    """One run of one workload: its result line and the record written to out/."""
    w = WORKLOADS[name]
    workdir = OUT / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    signal.alarm(RUN_CAP_S)
    try:
        runner = Runner(workdir)
        source = probe_source(runner)
        if source is None:
            raise SystemExit(f"error: keller does not import from {SRC}:\n{runner.steps[-1].out}")
        rng = random.Random(seed)
        metrics, samples, in_process = (traced if trace else untraced)(w, runner, rng, seconds)
    finally:
        signal.alarm(0)
        shutil.rmtree(workdir, ignore_errors=True)
    failures = [[" ".join(s.args), s.failures] for s in runner.steps if s.failures]
    failures += [["in-process step", f] for f in in_process if f]
    attempted = len(runner.steps) + len(in_process)
    failed = len(failures)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": unit} for m, unit in declared.items()},
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "machine": machine_record(source["numpy"]), "result": result, "all_metrics": metrics,
        "failures": failures, "samples": samples,
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {name}  seed {seed}  trace {int(trace)}  ({attempted} checked runs)")
    for m, v in result["metrics"].items():
        print(f"  {m:34} {v['value']:>16.6g} {v['unit']}")
    print(f"  fail_ratio {failed}/{attempted}; verdict: {'correct' if failed == 0 else 'INCORRECT'}")
    for what, checks in failures:
        print(f"  failed: {what}: {'; '.join(checks)}")
    print(f"  record: {path.relative_to(ROOT)}")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "keller" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no keller sources under {SRC} (or no {spec_path.name})", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[kind]}

    # Both unwind through Runner.run, which kills and reaps the running process.
    signal.signal(signal.SIGALRM, _on_signal)
    signal.signal(signal.SIGTERM, _on_signal)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {n: measure(n, args.seed, args.seconds, bool(args.trace), declared) for n in names}
    except Deadline as stop:
        why = f"exceeded {RUN_CAP_S} s" if str(stop) == "SIGALRM" else f"got {stop}"
        print(f"error: the run {why}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
