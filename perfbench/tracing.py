"""Spans around calls into leobeam's layers, recorded from outside the package.

The tracer never edits the package source.  It rebinds each traced name
where its caller looks it up: a module-level function is replaced in every
leobeam module namespace that holds it (so ``from .conic import solve`` in
``robust_avg`` sees the wrapper), and a method is replaced on its class.
``uninstall`` puts every original back, so an untraced run executes the
package exactly as shipped.

Spans are kept in memory as tuples and written as JSONL once the run ends.
The program is one synchronous process, so a plain stack gives each span
its parent, and a child's interval always lies inside its parent's.
"""

import contextlib
import functools
import json
import sys
import time
from collections import Counter, defaultdict

ROOT_SPAN = "bench.op"

# (span name, module, object in the module, attribute traced)
# A span name is "<layer>.<function>", the layer being the module's name.
TARGETS = [
    ("scenario.build_scenario", "leobeam.scenario", None, "build_scenario"),
    ("baselines.design_zfbf", "leobeam.baselines", None, "design_zfbf"),
    ("robust_avg.design_avg_sinr", "leobeam.robust_avg", None, "design_avg_sinr"),
    ("robust_avg.AvgSinrProblem", "leobeam.robust_avg", "AvgSinrProblem", "__init__"),
    ("robust_avg.run_penalty_loop", "leobeam.robust_avg", None, "run_penalty_loop"),
    ("robust_avg.solve_sdr_init", "leobeam.robust_avg", None, "solve_sdr_init"),
    ("robust_avg.penalty_step", "leobeam.robust_avg", None, "penalty_step"),
    ("robust_avg.rank_gaps", "leobeam.robust_avg", None, "rank_gaps"),
    ("robust_avg.extract_beams", "leobeam.robust_avg", None, "extract_beams"),
    ("robust_outage.design_outage", "leobeam.robust_outage", None, "design_outage"),
    ("robust_outage.OutageProblem", "leobeam.robust_outage", "OutageProblem", "__init__"),
    ("conic.build", "leobeam.conic.model", "ConeProgramBuilder", "build"),
    ("conic.solve", "leobeam.conic.solver", None, "solve"),
    ("conic.nt_scaling", "leobeam.conic.cones", None, "nt_scaling"),
    ("conic.max_step", "leobeam.conic.cones", None, "max_step"),
    ("numerics.max_eigpair", "leobeam.numerics", None, "max_eigpair"),
    ("network.sinr_samples", "leobeam.network", None, "sinr_samples"),
    ("evaluator.evaluate", "leobeam.evaluator", None, "evaluate"),
    ("evaluator.sweep", "leobeam.evaluator", None, "sweep"),
]

# Layers whose self time is reported; scenario work happens in setup only.
LAYERS = ("robust_avg", "robust_outage", "conic", "numerics", "network", "evaluator")


def _solve_attrs(args, result):
    problem = args[0]
    m, n = problem.A.shape
    return {
        "status": result.status,
        "iters": result.n_iter,
        "schur_order": m,
        "vars": n,
        "A_bytes": problem.A.nbytes,
    }


def _sinr_samples_attrs(args, result):
    return {"samples": int(result.shape[0])}


ATTRS = {"conic.solve": _solve_attrs, "network.sinr_samples": _sinr_samples_attrs}


class Tracer:
    """Records spans (id, parent, name, start, end, op, attrs) in memory."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.op = None
        self._stack = []
        self._saved = []

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name, fn):
        attrs_of = ATTRS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)  # reserve the id so children get larger ones
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as ex:
                end = time.perf_counter()
                attrs = {"error": type(ex).__name__}
                spans[span_id] = (span_id, parent, name, start, end, self.op, attrs)
                raise
            finally:
                stack.pop()
            end = time.perf_counter()
            attrs = attrs_of(args, result) if attrs_of else None
            spans[span_id] = (span_id, parent, name, start, end, self.op, attrs)
            return result

        return traced

    def install(self):
        """Rebind every traced name to its wrapper."""
        for name, modname, owner, attr in TARGETS:
            module = sys.modules[modname]
            if owner is not None:
                cls = getattr(module, owner)
                original = cls.__dict__[attr]
                self._saved.append((cls, attr, original))
                setattr(cls, attr, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for modname2, mod in list(sys.modules.items()):
                if modname2 != "leobeam" and not modname2.startswith("leobeam."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    @contextlib.contextmanager
    def op_span(self, index):
        """The benchmark's own root span around one operation."""
        span_id = len(self.spans)
        self.spans.append(None)
        self._stack.append(span_id)
        self.op = index
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.op = None
            self.spans[span_id] = (span_id, None, ROOT_SPAN, start, end, index, None)

    # -- output --------------------------------------------------------------

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for span_id, parent, name, start, end, op, attrs in self.spans:
                rec = {
                    "run": self.run_id,
                    "id": span_id,
                    "parent": parent,
                    "name": name,
                    "start": start,
                    "end": end,
                    "op": op,
                }
                if attrs:
                    rec.update(attrs)
                fh.write(json.dumps(rec) + "\n")


def layer_metrics(all_spans, n_ops):
    """Per-operation busy and self seconds, counts and solver facts.

    Spans outside any operation belong to setup and only feed
    ``scenario.build_s``.  Self time is a span's duration minus the
    durations of its direct children; children never overlap in this
    synchronous program.
    """
    build_s = sum(
        s[4] - s[3] for s in all_spans if s[5] is None and s[2] == "scenario.build_scenario"
    )
    spans = [s for s in all_spans if s[5] is not None]
    child_time = defaultdict(float)
    for span_id, parent, name, start, end, op, attrs in spans:
        if parent is not None:
            child_time[parent] += end - start
    busy, own, calls = defaultdict(float), defaultdict(float), Counter()
    layer_self = defaultdict(float)
    status = Counter()
    iters = schur = nvars = a_bytes = samples = 0
    entry_time = entry_covered = 0.0
    op_ids = {s[0] for s in spans if s[2] == ROOT_SPAN}
    for span_id, parent, name, start, end, op, attrs in spans:
        dur = end - start
        self_s = dur - child_time[span_id]
        busy[name] += dur
        own[name] += self_s
        calls[name] += 1
        layer = name.split(".", 1)[0]
        if layer in LAYERS:
            layer_self[layer] += self_s
        if parent in op_ids:
            entry_time += dur
            entry_covered += child_time[span_id]
        if name == "conic.solve" and attrs and "status" in attrs:
            status[attrs["status"]] += 1
            iters += attrs["iters"]
            schur = max(schur, attrs["schur_order"])
            nvars = max(nvars, attrs["vars"])
            a_bytes = max(a_bytes, attrs["A_bytes"])
        if name == "network.sinr_samples" and attrs:
            samples += attrs["samples"]

    def per_op(x):
        return x / n_ops

    solves = calls["conic.solve"]
    out = {
        "scenario.build_s": build_s,
        "robust_avg.assemble_s": per_op(busy["robust_avg.AvgSinrProblem"]),
        "robust_avg.penalty_loop_s": per_op(busy["robust_avg.run_penalty_loop"]),
        "robust_avg.penalty_rounds": per_op(calls["robust_avg.penalty_step"]),
        "robust_avg.extract_s": per_op(busy["robust_avg.extract_beams"]),
        "robust_outage.assemble_s": per_op(busy["robust_outage.OutageProblem"]),
        "conic.build_s": per_op(busy["conic.build"]),
        "conic.solve_calls": per_op(solves),
        "conic.solve_s": per_op(busy["conic.solve"]),
        "conic.ipm_iters": per_op(iters),
        "conic.s_per_iter": busy["conic.solve"] / iters if iters else 0.0,
        "conic.nt_scaling_s": per_op(busy["conic.nt_scaling"]),
        "conic.step_search_s": per_op(busy["conic.max_step"]),
        "conic.solve_self_s": per_op(own["conic.solve"]),
        "conic.schur_order": schur,
        "conic.vars": nvars,
        "conic.A_mb_computed": a_bytes / 1e6,
        "conic.status.OPTIMAL": per_op(status["OPTIMAL"]),
        "conic.status.PRIMAL_INFEASIBLE": per_op(status["PRIMAL_INFEASIBLE"]),
        "conic.status.MAX_ITER": per_op(status["MAX_ITER"]),
        "conic.optimal_ratio": status["OPTIMAL"] / solves if solves else 0.0,
        "numerics.max_eigpair_calls": per_op(calls["numerics.max_eigpair"]),
        "numerics.max_eigpair_s": per_op(busy["numerics.max_eigpair"]),
        "network.sinr_samples_s": per_op(busy["network.sinr_samples"]),
        "network.samples_scored": per_op(samples),
        "evaluator.evaluate_s": per_op(busy["evaluator.evaluate"]),
        "evaluator.sampling_s": per_op(own["evaluator.evaluate"]),
        "trace.phase_coverage": entry_covered / entry_time if entry_time else 0.0,
        "trace.spans": per_op(len(spans)),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = per_op(layer_self[layer])
    return out
