"""What the benchmark in ``perfbench/`` relies on still holds.

``perfbench/spans.py`` wraps named package functions in spans, and
``perfbench/run.py`` calls the CLI with fixed arguments and gates every
report byte for byte against ``perfbench/reference``.  A renamed target or
a changed report would otherwise only show when the benchmark runs.  The
files there are only read; nothing is written under ``perfbench/``.
"""

import ast
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from cotwist import build_elementary_abelian, cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(monkeypatch, name: str):
    """A module of ``perfbench/``, loaded without writing bytecode there."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def spans(monkeypatch):
    return _load(monkeypatch, "spans")


def _run_workloads() -> dict:
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "WORKLOADS"
                for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no WORKLOADS")


def test_every_spanned_function_resolves(spans):
    targets = [dotted for table in (spans.LAYERS, spans.STAGES)
               for dotted_names in table.values() for dotted in dotted_names]
    unresolved = []
    for dotted in targets:
        try:
            _, _, raw = spans._resolve(dotted)
        except (AttributeError, KeyError, ImportError):
            unresolved.append(dotted)
            continue
        assert callable(getattr(raw, "__func__", raw)), dotted
    assert unresolved == []


def test_parser_accepts_benchmark_arguments():
    workloads = _run_workloads()
    assert workloads
    for name, args in workloads.items():
        args = list(args) + (["config.json"] if args[-1] == "--config" else [])
        parsed = cli.make_parser().parse_args(
            args + ["--seed", "7", "--out", "report.json", "--jobs", "1"])
        assert (parsed.seed, parsed.out, parsed.jobs) == (7, "report.json", 1), name


@pytest.mark.parametrize("name", sorted(_run_workloads()))
def test_workload_report_matches_reference(name, monkeypatch, tmp_path):
    """Each workload's report at seed 0 is the stored reference, byte for byte.

    This is the benchmark's own gate: the table workload's files are written
    by ``perfbench/wreath.py`` and their paths pinned to their base names.
    """
    args = list(_run_workloads()[name])
    pinned = {}
    if args[-1] == "--config":
        wreath = _load(monkeypatch, "wreath")
        args.append(str(wreath.write_instance(tmp_path)))
        pinned = {str(tmp_path / f): f for f in (wreath.GROUP_FILE, wreath.TWIST_FILE)}
    out = tmp_path / "report.json"
    assert cli.main(args + ["--seed", "0", "--out", str(out), "--jobs", "1"]) == 0
    report = out.read_text()
    for actual, base in pinned.items():
        report = report.replace(json.dumps(actual), json.dumps(base))
    assert report == (PERFBENCH / "reference" / f"{name}.json").read_text()


def test_wreath_table_is_the_builders_semidirect_product(monkeypatch):
    """``perfbench/wreath.py``'s hand-written (Z/3)^2 wr C2 table is, cell for
    cell, ``instances.WREATH``'s (Z/3)^4 x| <swap> from ``build_semidirect``,
    and its H = {9 a} is the builder's H."""
    from instances import WREATH, build_parts

    wreath = _load(monkeypatch, "wreath")
    G, H, _ = build_parts(*WREATH)
    h_group = build_elementary_abelian(wreath.P, 2)
    assert np.array_equal(wreath.wreath_table(h_group.mul.astype(np.int64)), G.mul)
    assert H.elements.tolist() == wreath.build()[1]
