"""The names the benchmark in ``perfbench/`` relies on still exist.

``perfbench/spans.py`` wraps named package functions in spans, and
``perfbench/run.py`` calls the CLI with fixed arguments.  Renaming or
deleting either target would otherwise only show when the benchmark runs.
Both files are only read; nothing is written under ``perfbench/``.
"""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

from cotwist import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


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
