"""The cotwist benchmark: one workload, one seed, a fixed measuring window.

    python3 perfbench/run.py --workload unip-p5 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each operation is one ``cotwist`` command
(``cotwist.cli.main`` in this process, one job), from argument parsing to a
written report; every report is then checked byte for byte against the
stored reference in ``perfbench/reference`` (the ``seed`` field set to the
run's seed and table file paths pinned to their base names).  Operations
repeat until ``--seconds`` have passed, at least one.

``--trace 0`` reports the end-to-end metrics: the operations' mean wall
time as a multiple of the mean time of a fixed calibration kernel sampled
while they run (``wall_per_cal``, see ``calibrate.py``), the median time for
a fresh interpreter to import cotwist (``setup_s``, half of the imports
before the operations and half after) and this process's peak resident
memory (``peak_rss_mb``).  The median wall time in seconds (``wall_s``), every
operation's time and the kernel's mean time are in the context line.

``--trace 1`` runs the same operations traced and reports per-layer self
times from spans recorded around cotwist's public functions (see
``spans.py``), the traced wall time, the remainder of it that no named span
covers, the tracing overhead (the measured cost of one span times the spans
per operation) and exact counts.  Spans are written to
``perfbench/_out/<workload>/spans-seed<N>.jsonl``.

The last line of standard output is the JSON result; the line before it
carries the run's context (sample counts, fail ratio, versions, BLAS
threads).  ``--workload all`` runs every workload in its own process and
prints each metric with its unit.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stderr
from pathlib import Path

from calibrate import Sampler
from spans import LAYERS, ROOT_SPAN, Recorder, span_cost, traced

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
REFERENCE = HERE / "reference"

#: BLAS thread pools are pinned to one thread (nproc is 2 on the reference box)
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: fresh-interpreter imports per run, half before the operations and half
#: after; setup_s is their median
SETUP_REPEATS = 10
REFERENCE_SEED = 0

#: CLI arguments per workload; the table workload's config is generated per run
WORKLOADS = {
    "unip-p5": ["spectrum", "--p", "5", "--gamma", "1,1,0,1"],
    "wreath-p3": ["spectrum", "--config"],
    "verify-p5": ["verify", "--p", "5", "--gamma", "1,0,0,4"],
}

COUNTS = ("correspondence.cosets", "correspondence.k_ratio_max",
          "semisimple.exact_dim_total")


def prepare(name: str, work_dir: Path) -> tuple[list[str], dict[str, str]]:
    """CLI arguments for a workload, and the file paths its report pins."""
    args = list(WORKLOADS[name])
    if name != "wreath-p3":
        return args, {}
    import wreath

    config = wreath.write_instance(work_dir)
    pinned = {str(work_dir / f): f for f in (wreath.GROUP_FILE, wreath.TWIST_FILE)}
    return args + [str(config)], pinned


def pin(report: str, pinned: dict[str, str]) -> str:
    for actual, name in pinned.items():
        report = report.replace(json.dumps(actual), json.dumps(name))
    return report


def expected_report(reference: str, seed: int) -> str:
    """The reference report as a run at ``seed`` must reproduce it."""
    line = f'\n  "seed": {REFERENCE_SEED},\n'
    if reference.count(line) != 1:
        raise SystemExit("reference report lacks its seed line")
    return reference.replace(line, f'\n  "seed": {seed},\n')


def run_op(cli, args: list[str], out_path: Path, seed: int, pinned: dict[str, str],
           want: str, recorder=None, sampler=None) -> tuple[float, bool, dict | None]:
    """One command: (seconds, passed the gate, parsed report or None).

    With a sampler the seconds leave out the time of its kernel runs.
    """
    out_path.unlink(missing_ok=True)
    argv = args + ["--seed", str(seed), "--out", str(out_path), "--jobs", "1"]
    taken = len(sampler.samples) if sampler else 0
    with traced(recorder) if recorder else nullcontext():
        start = time.perf_counter()
        try:
            with recorder.span(ROOT_SPAN) if recorder else sampler or nullcontext():
                with redirect_stderr(io.StringIO()):
                    code = cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = None
        elapsed = time.perf_counter() - start
    if sampler:
        elapsed -= sum(sampler.samples[taken:])
    if code is None:
        return elapsed, False, None
    if code != 0:
        print(f"cotwist exited {code}", file=sys.stderr)
        return elapsed, False, None
    report = pin(out_path.read_text(), pinned)
    if report != want:
        print(f"report differs from the reference: {out_path}", file=sys.stderr)
        return elapsed, False, None
    return elapsed, True, json.loads(report)


def measure_setup(repeats: int) -> list[float]:
    """Seconds for a fresh interpreter to import cotwist (numpy included)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import cotwist"], env=env, check=True)
        times.append(time.perf_counter() - start)
    return times


def report_counts(report: dict | None) -> dict[str, int]:
    if report is None:
        return {"correspondence.cosets": 0, "correspondence.k_ratio_max": 0}
    h = report["totals"]["subgroup_order"]
    ratios = [h // c["k_size"] for c in report["cosets"]]
    return {"correspondence.cosets": len(report["cosets"]),
            "correspondence.k_ratio_max": max(ratios, default=0)}


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_row(recorder: Recorder, report: dict | None) -> dict:
    """Per-layer self times and counts of the recorder's current operation."""
    op = recorder.op
    self_times = recorder.self_times(op)
    row = {layer: self_times.get(layer, 0.0) for layer in LAYERS}
    row["trace.remainder_s"] = self_times.get(ROOT_SPAN, 0.0)
    row["spans"] = sum(1 for s in recorder.spans if s.op == op)
    row.update(report_counts(report))
    row["semisimple.exact_dim_total"] = recorder.counts.get(op, {}).get(
        "semisimple.exact_dim_total", 0)
    return row


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Measure one workload; returns (context, result)."""
    import numpy as np
    from cotwist import cli

    setup = [] if trace else measure_setup(SETUP_REPEATS // 2)
    work_dir = OUT / name
    work_dir.mkdir(parents=True, exist_ok=True)
    args, pinned = prepare(name, work_dir)
    want = expected_report((REFERENCE / f"{name}.json").read_text(), seed)
    out_path = work_dir / "report.json"
    recorder = Recorder() if trace else None
    sampler = None if trace else Sampler()

    walls, rows = [], []
    failed = 0
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        wall, ok, report = run_op(cli, args, out_path, seed, pinned, want, recorder,
                                  sampler)
        walls.append(wall)
        failed += not ok
        if recorder is not None:
            rows.append(layer_row(recorder, report))
            recorder.op += 1

    if trace:
        recorder.write_jsonl(work_dir / f"spans-seed{seed}.jsonl")
        metrics = {key: metric(statistics.median(r[key] for r in rows), "s")
                   for key in [*LAYERS, "trace.remainder_s"]}
        metrics["trace.wall_s"] = metric(statistics.median(walls), "s")
        metrics["trace.overhead_s"] = metric(
            span_cost() * statistics.median(r["spans"] for r in rows), "s")
        for key in COUNTS:
            metrics[key] = metric(statistics.median(r[key] for r in rows), "count")
    else:
        setup += measure_setup(SETUP_REPEATS - len(setup))
        metrics = {
            "wall_per_cal": metric(
                statistics.mean(walls) / statistics.mean(sampler.samples), "ratio"),
            "setup_s": metric(statistics.median(setup), "s"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    context = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "wall_s": metric(statistics.median(walls), "s"),
        "wall_s_samples": walls, "setup_s_samples": setup,
        "cal": {"samples": len(sampler.samples),
                "mean_s": statistics.mean(sampler.samples)} if sampler else None,
        "spans_per_op": [r["spans"] for r in rows],
        "fail_ratio": metric(failed / len(walls), "ratio"),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }
    result = {"correct": failed == 0, "attempted": len(walls), "failed": failed,
              "metrics": metrics}
    return context, result


def update_reference(name: str) -> Path:
    """Write a workload's reference report from one run at the reference seed.

    The stored references were made this way; the smoke test uses it to make
    a reference for its p=3 workload.
    """
    from cotwist import cli

    work_dir = OUT / name
    work_dir.mkdir(parents=True, exist_ok=True)
    args, pinned = prepare(name, work_dir)
    out_path = work_dir / "report.json"
    with redirect_stderr(io.StringIO()):
        code = cli.main(args + ["--seed", str(REFERENCE_SEED), "--out", str(out_path)])
    if code != 0:
        raise SystemExit(f"{name}: cotwist exited {code}; reference not written")
    path = REFERENCE / f"{name}.json"
    path.write_text(pin(out_path.read_text(), pinned))
    return path


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in its own process (peak RSS is per process)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            sys.stderr.write(proc.stderr)
            print(f"{name}: benchmark exited {proc.returncode}", file=sys.stderr)
            return 1
        context, result = json.loads(lines[-2])["context"], json.loads(lines[-1])
        shown = dict(result["metrics"], fail_ratio=context["fail_ratio"])
        if not trace:
            shown["wall_s"] = context["wall_s"]
        for key, m in shown.items():
            print(f"{name:<10} {key:<34} {m['value']:>14.6g} {m['unit']}")
            combined["metrics"][f"{name}.{key}"] = m
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cotwist benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cotwist" / "__init__.py").is_file():
        print(f"error: no cotwist sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    context, result = run_workload(args.workload, args.seed, args.seconds,
                                   bool(args.trace))
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
