"""Regenerate the baseline table of ROADMAP.md: stage times on an instance ladder.

    python3 perfbench/ladder.py [--repeat K] [--cap SECONDS]

A one-shot measurement, not one of the benchmark's gated workloads.  Each
instance runs ``cotwist spectrum`` in a fresh process, one job, killed after
``--cap`` seconds and then recorded as "did not finish".  Stage times come
from spans around public functions (``spans.STAGES``): build and twist audit
(``build_instance``), global checks (triangularity, Q, square dimension),
prepare (``prepare_instance``); "cosets" is the rest of the command.  With
``--repeat K`` every stage is the median of K runs.

Prints a markdown table and writes ``perfbench/_out/ladder.json`` with the
number of processors, the Python and numpy versions and the git commit;
the reports go to ``perfbench/_out/ladder/``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr
from pathlib import Path

from run import BLAS_THREAD_VARS, OUT, ROOT, SRC
from spans import ROOT_SPAN, STAGES, Recorder, traced

#: (label, CLI arguments after ``spectrum``) in ROADMAP's order
LADDER = [
    ("3, 1,1,0,1", ["--p", "3", "--gamma", "1,1,0,1"]),
    ("3, 1,0,0,2", ["--p", "3", "--gamma", "1,0,0,2"]),
    ("5, 1,0,0,4", ["--p", "5", "--gamma", "1,0,0,4"]),
    ("5, 1,1,0,1", ["--p", "5", "--gamma", "1,1,0,1"]),
    ("7, 1,0,0,6", ["--p", "7", "--gamma", "1,0,0,6"]),
    ("3, n=2, no gamma", ["--p", "3", "--n", "2"]),
]
COLUMNS = ["build", "global", "prepare", "cosets", "total"]


def run_one(index: int) -> dict:
    """Stage times of one ladder instance, in this process."""
    from cotwist import cli

    recorder = Recorder()
    out = OUT / "ladder" / f"report-{index}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    with traced(recorder, STAGES), redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        with recorder.span(ROOT_SPAN):
            code = cli.main(["spectrum", *LADDER[index][1], "--out", str(out)])
        total = time.perf_counter() - start
    group_order = json.loads(out.read_text())["totals"]["group_order"]
    stages = recorder.self_times(0)
    row = {name: stages.get(name, 0.0) for name in STAGES}
    row.update(cosets=stages[ROOT_SPAN], total=total, exit=code, group_order=group_order)
    return row


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return proc.stdout.strip()


def measure(index: int, repeat: int, cap: float) -> dict:
    runs = []
    for _ in range(repeat):
        try:
            proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                                   "--one", str(index)],
                                  capture_output=True, text=True, timeout=cap, check=True)
        except subprocess.TimeoutExpired:
            return {"label": LADDER[index][0], "finished": False, "cap_s": cap}
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    row = {key: statistics.median(r[key] for r in runs) for key in COLUMNS}
    return {"label": LADDER[index][0], "finished": True, "runs": len(runs),
            "exit": runs[0]["exit"], "group_order": runs[0]["group_order"], **row}


def table(rows: list[dict]) -> str:
    lines = ["| instance (`--p`, `--gamma`) | \\|G\\| | build+twist audit | global checks "
             "| prepare | cosets | total |", "| --- | --- | --- | --- | --- | --- | --- |"]
    for r in rows:
        if r["finished"]:
            cells = [f"{r[c]:.2f} s" for c in COLUMNS]
            lines.append(f"| {r['label']} | {r['group_order']} | " + " | ".join(cells) + " |")
        else:
            lines.append(f"| {r['label']} | — | did not finish in {r['cap_s']:g} s "
                         "| — | — | — | — |")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--cap", type=float, default=400.0, help="seconds per instance run")
    parser.add_argument("--one", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    if args.one is not None:
        print(json.dumps(run_one(args.one)))
        return 0

    import numpy as np

    rows = [measure(i, args.repeat, args.cap) for i in range(len(LADDER))]
    result = {"nproc": os.cpu_count(), "python": platform.python_version(),
              "numpy": np.__version__, "commit": git_commit(),
              "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
              "repeat": args.repeat, "cap_s": args.cap, "instances": rows}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "ladder.json").write_text(json.dumps(result, indent=2) + "\n")
    print(table(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
