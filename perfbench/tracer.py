"""Run-time spans around the public functions of each degenpop layer.

Nothing in the package is edited: `Tracer.install` replaces the layer
functions (and two methods of the tridiagonal kernel) with wrappers in every
loaded ``degenpop`` module that bound them, and `uninstall` puts the
originals back.  A span records its name, parent span, thread, start and
end, plus a few counts taken from the call's arguments or result.

Parents are kept on a per-thread stack.  Work submitted to a
``ThreadPoolExecutor`` (the sweep runs its penalties on a pool) inherits the
span that was current on the submitting thread, so pool spans nest under the
runner span that created the pool.

Self time.  At every instant the *leaf* spans are the active spans none of
whose children are active.  Each instant is shared equally among them.  With
one thread this is exactly "duration minus the time covered by child spans";
with several threads running spans at once it splits the wall time between
them, so the self times of all spans always add up to the traced wall time.
Inclusive times are the sums of self times over a span's subtree.
"""

from __future__ import annotations

import concurrent.futures
import functools
import hashlib
import itertools
import os
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float
    info: dict


def _thomas_info(result, args, kwargs):
    op = args[0]
    rows = kwargs.get("rows", args[2] if len(args) > 2 else None)
    out_rows = int(np.prod(result.shape[:-1]))
    if op.batch == 1:
        coef_rows = 1
    elif rows is None:
        coef_rows = op.batch
    else:
        coef_rows = len(range(op.batch)[rows])
    # compulsory traffic of one sweep: rhs, lower, inv and the written y on the
    # way down; cp, y read and y written on the way back.
    return {"rows": out_rows, "bytes": 8 * op.m * (4 * out_rows + 3 * coef_rows)}


def _digest(values) -> str:
    return hashlib.blake2b(np.ascontiguousarray(values).tobytes(), digest_size=16).hexdigest()


def _adjoint_info(result, args, kwargs):
    problem = args[0]
    h = problem.source_h
    beta = problem.coeffs.beta
    key = (
        _digest(problem.wT.values),
        None if h is None else _digest(h.values),
        type(beta).__name__,
        bool(beta.is_zero),
    )
    return {"draw": key}


def _control_info(result, args, kwargs):
    return {
        "epsilon": float(result.epsilon),
        "iterations": int(result.cg_iterations),
        "history": [float(r) for r in result.residual_history],
    }


def _write_info(result, args, kwargs):
    field, path = args[0], args[1]
    return {"rows": int(field.values.size), "bytes": os.path.getsize(path)}


# (module, attribute, span name, info extractor); methods are "Class.method".
INSTRUMENTED = (
    ("degenpop.stepping", "TridiagonalOperator.__init__", "stepping.factor", None),
    ("degenpop.stepping", "TridiagonalOperator.solve", "stepping.thomas", _thomas_info),
    ("degenpop.forward", "solve_forward", "forward.solve", None),
    ("degenpop.adjoint", "solve_adjoint", "adjoint.solve", _adjoint_info),
    ("degenpop.adjoint", "trace_age_zero", "adjoint.trace_oracle", None),
    ("degenpop.adjoint", "duhamel_first_case", "adjoint.duhamel", None),
    ("degenpop.control", "solve_control", "control.solve", _control_info),
    ("degenpop.control", "gram_apply", "control.gram_apply", None),
    ("degenpop.control", "verify_null_reach", "control.verify", None),
    ("degenpop.inequalities", "run_carleman_main", "inequalities.run", None),
    ("degenpop.inequalities", "run_carleman_intermediate", "inequalities.run", None),
    ("degenpop.inequalities", "run_caccioppoli", "inequalities.run", None),
    ("degenpop.inequalities", "run_observability", "inequalities.run", None),
    ("degenpop.inequalities", "run_hardy", "inequalities.run", None),
    ("degenpop.inequalities", "carleman_main_trial", "inequalities.trial", None),
    ("degenpop.inequalities", "carleman_intermediate_trial", "inequalities.trial", None),
    ("degenpop.inequalities", "caccioppoli_trial", "inequalities.trial", None),
    ("degenpop.inequalities", "observability_trial", "inequalities.trial", None),
    ("degenpop.inequalities", "hardy_trial", "inequalities.trial", None),
    ("degenpop.inequalities", "weight_sup_check", "weights.sup_check", None),
    ("degenpop.weights", "WeightFamily.__init__", "weights.family_build", None),
    ("degenpop.ensembles", "age_gene_draw", "ensembles.draw", None),
    ("degenpop.ensembles", "trajectory_draw", "ensembles.draw", None),
    ("degenpop.ensembles", "gene_draw", "ensembles.draw", None),
    ("degenpop.fieldio", "write_field_csv", "fieldio.write", _write_info),
    ("degenpop.runner", "run_experiment", "runner.command", None),
    ("degenpop.config", "parse_config", "config.parse", None),
)


class Tracer:
    """Collects spans in memory while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def call(self, name, fn, args, kwargs, info=None):
        """Run fn(*args, **kwargs) inside a span named `name`."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        details = info(result, args, kwargs) if info is not None else {}
        self.spans.append(Span(sid, parent, name, threading.get_ident(), start, end, details))
        return result

    def _wrap(self, name, fn, info):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, info)

        return traced

    def _inherit(self, parent, fn):
        @functools.wraps(fn)
        def with_parent(*args, **kwargs):
            stack = self._stack()
            stack.append(parent)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()

        return with_parent

    def install(self) -> None:
        """Wrap every INSTRUMENTED callable and the thread-pool submit."""
        for module_name, attr, name, info in INSTRUMENTED:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, orig, info))
                self._restore.append((cls, meth, orig))
                continue
            orig = getattr(module, attr)
            wrapped = self._wrap(name, orig, info)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "degenpop" or mod_name.startswith("degenpop."):
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, key, wrapped)
                            self._restore.append((mod, key, orig))

        pool = concurrent.futures.ThreadPoolExecutor
        orig_submit = pool.submit
        tracer = self

        def submit(executor, fn, /, *args, **kwargs):
            return orig_submit(executor, tracer._inherit(tracer.current(), fn), *args, **kwargs)

        pool.submit = submit
        self._restore.append((pool, "submit", orig_submit))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()


def attribute_self_time(spans) -> dict:
    """Self time per span id: each instant shared among the leaf spans."""
    events = []
    for span in spans:
        events.append((span.start, 1, span.sid, span))
        events.append((span.end, 0, -span.sid, span))
    events.sort(key=lambda e: (e[0], e[1], e[2]))
    active_children: dict = {}
    leaves: set = set()
    self_time = {span.sid: 0.0 for span in spans}
    prev = events[0][0] if events else 0.0
    for when, is_start, _, span in events:
        if leaves and when > prev:
            share = (when - prev) / len(leaves)
            for sid in leaves:
                self_time[sid] += share
        prev = when
        parent = span.parent
        if is_start:
            active_children[span.sid] = 0
            leaves.add(span.sid)
            if parent in active_children:
                active_children[parent] += 1
                leaves.discard(parent)
        else:
            del active_children[span.sid]
            leaves.discard(span.sid)
            if parent in active_children:
                active_children[parent] -= 1
                if active_children[parent] == 0:
                    leaves.add(parent)
    return self_time


def inclusive_time(spans, self_time) -> dict:
    """Sum of self times over each span's subtree."""
    parents = {span.sid: span.parent for span in spans}
    total = dict(self_time)
    for span in spans:
        parent = parents[span.sid]
        while parent in total:
            total[parent] += self_time[span.sid]
            parent = parents[parent]
    return total
