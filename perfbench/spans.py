"""Span recording around calls into cotwist's public functions.

The program itself carries no tracing.  Instead, :func:`traced` replaces each
public function named in a layer table by a wrapper that records a span
(name, start, end, parent) and restores the originals on exit.  A function
is replaced under every name any ``cotwist`` module binds it to, so calls
made through ``from .x import f`` are seen as well.

A layer's self time is the duration of its spans minus the part covered by
their child spans; the self times of all spans under an operation's root
span, plus the root's own self time (the remainder), add up to the
operation's traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

#: per-layer metric -> public functions whose calls it times ("module.attr" or
#: "module.Class.method" for a classmethod)
LAYERS = {
    "groups.build_s": ["groups.build_elementary_abelian_symplectic",
                       "groups.build_semidirect", "groups.FiniteGroup.from_file"],
    "groups.cosets_s": ["groups.double_cosets", "groups.stabilizer_Kg"],
    "twist.audit_s": ["twist.symplectic_twist", "twist.assemble_twist"],
    "twist.triangular_s": ["twist.triangular_structure"],
    "twist.q_s": ["twist.q_element_and_antipode_check"],
    "exactlin.rank_s": ["exactlin.cyc_rank"],
    "exactlin.ga_mul_s": ["exactlin.ga_mul"],
    "exactlin.solve_s": ["exactlin.cyc_solve"],
    "exactlin.nullspace_s": ["exactlin.cyc_nullspace"],
    "dual_algebras.duals_s": ["dual_algebras.build_A1_A2_star"],
    "dual_algebras.block_build_s": ["dual_algebras.build_block_algebra"],
    "projective.reps_s": ["projective.projective_rep_from_action"],
    "correspondence.invariant_build_s": ["correspondence.invariant_algebra_Ug"],
    "correspondence.predicted_s": ["correspondence.predicted_spectrum"],
    "semisimple.center_s": ["semisimple.center_basis"],
    "semisimple.wedderburn_s": ["semisimple.wedderburn_dims_retrying"],
    "semisimple.split_simple_s": ["semisimple.split_simple_retrying"],
}

#: the ladder's stages, timed the same way
STAGES = {
    "build": ["correspondence.build_instance"],
    "global": ["twist.triangular_structure", "twist.q_element_and_antipode_check",
               "twist.square_dimension_check"],
    "prepare": ["correspondence.prepare_instance"],
}

ROOT_SPAN = "op"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int


class Recorder:
    """Spans kept in memory, plus exact counts taken at the same boundaries."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[int, dict[str, int]] = {}
        self.op = 0
        self._stack: list[int] = []
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(sid, name, time.perf_counter() - self._origin, 0.0, parent, self.op)
        self.spans.append(span)
        self._stack.append(sid)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end = time.perf_counter() - self._origin

    def count(self, name: str, amount: int) -> None:
        per_op = self.counts.setdefault(self.op, {})
        per_op[name] = per_op.get(name, 0) + int(amount)

    def self_times(self, op: int) -> dict[str, float]:
        """Self time per span name over the spans of one operation."""
        spans = [s for s in self.spans if s.op == op]
        child_time = {s.id: 0.0 for s in spans}
        for s in spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out: dict[str, float] = {}
        for s in spans:
            out[s.name] = out.get(s.name, 0.0) + (s.end - s.start) - child_time[s.id]
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"op": s.op, "id": s.id, "name": s.name,
                                     "start": s.start, "end": s.end,
                                     "parent": s.parent}) + "\n")


def _resolve(dotted: str):
    """(owner, attribute, raw attribute value) for 'module.attr' or 'module.Class.attr'."""
    parts = dotted.split(".")
    owner = importlib.import_module("cotwist." + parts[0])
    for name in parts[1:-1]:
        owner = getattr(owner, name)
    return owner, parts[-1], vars(owner)[parts[-1]]


def _wrap(recorder: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with recorder.span(name):
            return fn(*args, **kwargs)
    return wrapper


def span_cost(calls: int = 20_000) -> float:
    """Seconds one recorded span adds to a call, measured on an empty function."""
    def empty():
        return None

    wrapped = _wrap(Recorder(), "calibration", empty)

    def best_of_three(fn) -> float:
        times = []
        for _ in range(3):
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            times.append(time.perf_counter() - start)
        return min(times)

    return max(0.0, best_of_three(wrapped) - best_of_three(empty)) / calls


def _count_exact_center(recorder: Recorder, fn):
    @functools.wraps(fn)
    def wrapper(A, *args, **kwargs):
        if A.is_exact:
            recorder.count("semisimple.exact_dim_total", A.dim)
        return fn(A, *args, **kwargs)
    return wrapper


@contextmanager
def traced(recorder: Recorder, table: dict[str, list[str]] = LAYERS):
    """Replace every function in ``table`` by a span-recording wrapper."""
    undo = []
    try:
        for span_name, targets in table.items():
            for dotted in targets:
                owner, attr, raw = _resolve(dotted)
                if isinstance(raw, classmethod):
                    wrapped = classmethod(_wrap(recorder, span_name, raw.__func__))
                    setattr(owner, attr, wrapped)
                    undo.append((owner, attr, raw))
                    continue
                wrapped = _wrap(recorder, span_name, raw)
                if dotted == "semisimple.center_basis":
                    wrapped = _count_exact_center(recorder, wrapped)
                for module in [m for key, m in sys.modules.items()
                               if key == "cotwist" or key.startswith("cotwist.")]:
                    for key, value in list(vars(module).items()):
                        if value is raw:
                            setattr(module, key, wrapped)
                            undo.append((module, key, raw))
        yield recorder
    finally:
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)
