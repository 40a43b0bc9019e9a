"""Smoke test of the benchmark itself on p=3 instances; runs in seconds.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import calibrate  # noqa: E402
import run  # noqa: E402
import wreath  # noqa: E402

P3 = ["spectrum", "--p", "3", "--gamma", "1,0,0,2"]


def declared(kind: str) -> dict[str, str]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.fixture()
def p3_bench(tmp_path, monkeypatch):
    """A p=3 workload with its reference written to a scratch directory."""
    monkeypatch.setattr(run, "WORKLOADS", {"p3": P3})
    monkeypatch.setattr(run, "REFERENCE", tmp_path / "reference")
    monkeypatch.setattr(run, "OUT", tmp_path / "out")
    (tmp_path / "reference").mkdir()
    run.update_reference("p3")
    return tmp_path


def units(result: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_end_to_end_metrics_match_declaration(p3_bench):
    context, result = run.run_workload("p3", seed=5, seconds=0, trace=False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 1
    assert units(result) == declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert context["fail_ratio"] == {"value": 0.0, "unit": "ratio"}


def test_traced_metrics_match_declaration(p3_bench):
    _, result = run.run_workload("p3", seed=0, seconds=0, trace=True)
    assert result["correct"]
    assert units(result) == declared("per_layer")
    m = {name: v["value"] for name, v in result["metrics"].items()}
    assert m["correspondence.cosets"] == 2 and m["correspondence.k_ratio_max"] == 1
    named = sum(v for name, v in m.items()
                if name.endswith("_s") and not name.startswith("trace."))
    assert named + m["trace.remainder_s"] == pytest.approx(m["trace.wall_s"], rel=0.05)
    spans = (p3_bench / "out" / "p3" / "spans-seed0.jsonl").read_text().splitlines()
    assert {"op", "id", "name", "start", "end", "parent"} <= json.loads(spans[1]).keys()


def test_gate_rejects_corrupted_report(p3_bench):
    from cotwist import cli

    class CorruptingCli:
        @staticmethod
        def main(argv):
            code = cli.main(argv)
            out = Path(argv[argv.index("--out") + 1])
            out.write_text(out.read_text().replace('"size": 9', '"size": 8', 1))
            return code

    work = p3_bench / "out"
    work.mkdir(exist_ok=True)
    want = run.expected_report((p3_bench / "reference" / "p3.json").read_text(), 0)
    _, ok, _ = run.run_op(cli, P3, work / "good.json", 0, {}, want)
    assert ok
    _, ok, report = run.run_op(CorruptingCli, P3, work / "bad.json", 0, {}, want)
    assert not ok and report is None


def test_sampler_times_the_kernel_and_restores_the_handler():
    assert calibrate.kernel() == calibrate.CHECKSUM
    handler = signal.getsignal(signal.SIGALRM)
    with calibrate.Sampler() as sampler:
        time.sleep(3 * calibrate.INTERVAL_S)
    assert len(sampler.samples) >= 3 and all(t > 0 for t in sampler.samples)
    assert signal.getsignal(signal.SIGALRM) is handler


def test_wreath_instance_is_the_non_normal_case(tmp_path):
    G, subgroup, _, swap = wreath.build()
    assert G.order == 162 and len(subgroup) == 9 and swap == 81
    config = json.loads(wreath.write_instance(tmp_path).read_text())
    assert (tmp_path / wreath.GROUP_FILE).is_file() and (tmp_path / wreath.TWIST_FILE).is_file()
    assert config["construction"]["subgroup"] == subgroup


def test_fails_without_program_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "unip-p5",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
