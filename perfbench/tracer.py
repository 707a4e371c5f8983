"""Outside-in tracing of backsolve's layer entry points.

`install()` swaps module attributes and class methods of an imported
`backsolve` package for wrappers, in the current process only. A *span*
target records (name, start, end, parent) into an in-memory list; a *count*
target only counts calls, for entry points hit tens of thousands of times.
Nothing under `src/` changes, and the program's outputs do not either.

Each target is resolved by name. A function is patched in every backsolve
module namespace that holds the same object, so calls through
`from .x import f` copies are seen too. A target that no longer exists is
returned in `Tracer.unmeasured` with the reason, never raised and never
reported as a zero.
"""

from __future__ import annotations

import functools
import sys
import time

# (span name, "module:qualname"); a qualname with a dot is a class method.
SPAN_TARGETS = [
    ("cli.run", "backsolve.cli:run"),
    ("config.parse", "backsolve.config:parse_config"),
    ("cli.write_csv", "backsolve.cli:write_csv"),
    ("solver.solve", "backsolve.solver:solve_backward"),
    ("mesh.build", "backsolve.solver:build_meshes"),
    ("solver.build_system", "backsolve.solver:build_system"),
    ("operators.assemble_B", "backsolve.solver:assemble_B"),
    ("precond.make_G_Y", "backsolve.solver:make_G_Y"),
    ("precond.make_G_X", "backsolve.solver:make_G_X"),
    ("assembly.load_f", "backsolve.solver:load_vector_f"),
    ("solver.pcg", "backsolve.solver:pcg"),
    ("solver.nodal_interpolant", "backsolve.solver:nodal_interpolant"),
    ("solver.interpolation_gap", "backsolve.solver:interpolation_gap_xnorm"),
    ("solver.error_report", "backsolve.solver:error_report"),
    ("solver.normal_apply", "backsolve.solver:LeastSquaresSystem.apply"),
    ("precond.riesz_apply", "backsolve.precond:RieszPreconditioner.apply"),
    ("operators.kron_apply", "backsolve.operators:KroneckerOperator.apply"),
    (
        "operators.kron_apply",
        "backsolve.operators:KroneckerOperator.apply_transpose",
    ),
    ("oracle.log_convexity", "backsolve.cli:check_log_convexity"),
    ("oracle.smoothing", "backsolve.cli:check_smoothing"),
    ("oracle.hbeta", "backsolve.cli:check_hbeta_stability"),
    ("oracle.decay_fit", "backsolve.cli:decay_rate_fit"),
]

COUNT_TARGETS = [
    ("assembly.space_load", "backsolve.assembly:space_load"),
    ("assembly.fe_eval", "backsolve.assembly:fe_values_on_cells"),
    ("assembly.fe_eval", "backsolve.assembly:fe_gradients_on_cells"),
    ("oracle.heat_evolve", "backsolve.oracle:heat_evolve"),
]


def _riesz_name(args):
    # one wrapper for both lifts; the span is named by the instance's norm
    norm = getattr(args[0], "norm", None) if args else None
    return f"precond.riesz_{norm.lower()}_apply" if norm in ("X", "Y") else None



class Tracer:
    """Spans and counts of one process; written out by `dump()`."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = {}
        self.pcg_reports = []  # (iterations, converged) per pcg call
        self.unmeasured = {}  # span/count name -> why a target is missing
        self._stack = []

    def _span(self, name, fn, namer=None, on_result=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            label = namer(args) if namer else name
            if label is None:
                label = name
                self.unmeasured[name] = "instance carries no X/Y norm tag"
            spans.append([label, clock(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _count(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _record_pcg(self, result):
        try:
            report = result[1]
            entry = (int(report.iterations), bool(report.converged))
        except (TypeError, IndexError, AttributeError, ValueError):
            self.unmeasured["solver.pcg_report"] = (
                "pcg no longer returns (x, report) with iterations/converged"
            )
            return
        self.pcg_reports.append(entry)

    def _make(self, kind, name, fn):
        if kind == "count":
            return self._count(name, fn)
        namer = _riesz_name if name == "precond.riesz_apply" else None
        on_result = self._record_pcg if name == "solver.pcg" else None
        return self._span(name, fn, namer, on_result)

    def _patch(self, kind, name, target, modules):
        module_name, _, qualname = target.partition(":")
        owner_name, _, attr = qualname.rpartition(".")
        owner = sys.modules.get(module_name)
        if owner is not None and owner_name:
            owner = getattr(owner, owner_name, None)
        fn = vars(owner).get(attr) if owner is not None else None
        if not callable(fn):
            self.unmeasured[name] = f"{target} not found"
            return
        wrapped = self._make(kind, name, fn)
        # a module function is also swapped where `from .x import f` copied it
        for holder in [owner] if owner_name else modules:
            for key, value in list(vars(holder).items()):
                if value is fn:
                    setattr(holder, key, wrapped)

    def install(self):
        modules = [
            mod
            for key, mod in sorted(sys.modules.items())
            if mod is not None and key.partition(".")[0] == "backsolve"
        ]
        for name, target in SPAN_TARGETS:
            self._patch("span", name, target, modules)
        for name, target in COUNT_TARGETS:
            self._patch("count", name, target, modules)
        return self

    def dump(self):
        return {
            "spans": self.spans,
            "counts": self.counts,
            "pcg_reports": self.pcg_reports,
            "unmeasured": self.unmeasured,
        }


def self_times(spans):
    """Per-name (self seconds, total seconds, calls) from a span list.

    Self time is a span's duration minus the durations of its direct
    children; spans are properly nested because they come from one stack.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}
    for i, (name, start, end, _) in enumerate(spans):
        self_s, total_s, calls = out.get(name, (0.0, 0.0, 0))
        dur = end - start
        out[name] = (self_s + dur - child_time[i], total_s + dur, calls + 1)
    return out
