"""Spans around finstab's public functions, recorded from outside the program.

Each traced function is replaced, for the length of a traced pass, at every
name under which a finstab module looks it up (``scenario.simulate`` is
``integrator.simulate``, ``kernels.closed_loop_rhs`` is called through the
kernels module's own globals).  A span records its label, start, end and
parent; a layer's self time is its spans' durations minus the time their
child spans cover.  The numba backend resolves kernel globals at compile
time, so with numba active the kernel spans would not be seen; it is absent
here and the results record ``finstab.USING_NUMBA``.
"""
from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

# traced function -> the per-layer metric its self time is added to
TRACED = {
    "scenario.run_scenario": "scenario.pipeline_s",
    "scenario.check_scenario": "scenario.pipeline_s",
    "scenario.build_scenario": "scenario.build_s",
    "scenario.assumption_reports": "scenario.assumptions_s",
    "scenario.write_trajectory_csv": "scenario.csv_s",
    "scenario.write_grid_csv": "scenario.csv_s",
    "scenario.write_summary": "scenario.summary_s",
    "frontends.build_frontend": "frontends.build_s",
    "frontends.simulate_hybrid": "frontends.hybrid_s",
    "frontends.hybrid_decay_check": "frontends.hybrid_s",
    "frontends.hybrid_split_check": "frontends.hybrid_s",
    "model.model_from_json": "model.validate_s",
    "model.validate_control_operator": "model.validate_s",
    "decomposition.unobservable_subspace": "decomposition.subspace_s",
    "decomposition.check_H1": "decomposition.h1_s",
    "decomposition.check_H2": "decomposition.h2_s",
    "decomposition.compute_gamma": "decomposition.gamma_s",
    "decomposition.gamma_certificate": "decomposition.gamma_s",
    "controllers.settling_bound_details": "controllers.bound_s",
    "controllers.assemble_kernel_args": "controllers.assemble_s",
    "kernels.integrate_adaptive": "kernels.integrate_s",
    "kernels.closed_loop_rhs": "kernels.rhs_s",
    "integrator.simulate": "integrator.simulate_s",
    "integrator.verify_decay": "integrator.verify_s",
    "integrator.verify_split": "integrator.verify_s",
    "integrator.verify_lyapunov_stability": "integrator.verify_s",
    "svgplot.render_line_chart": "svgplot.render_s",
    "svgplot.write_svg": "svgplot.render_s",
}
# allocation peak of these functions is measured with tracemalloc
MEMORY = {"decomposition.unobservable_subspace": "decomposition.subspace_peak_mb"}
TIME_METRICS = sorted(set(TRACED.values()))


class Tracer:
    """Installs span-recording wrappers; spans stay in memory until written out."""

    def __init__(self):
        self.labels: list[str] = list(TRACED)
        self.spans: list = []      # (label index, start ns, end ns, parent span index)
        self.peaks: dict[str, int] = {}
        self._stack: list[int] = []
        self._patched: list = []   # (module, attribute, original)

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "finstab" or name.startswith("finstab."))]
        for label, qualified in enumerate(self.labels):
            mod_name, fn_name = qualified.split(".")
            original = getattr(sys.modules[f"finstab.{mod_name}"], fn_name)
            wrapper = self._wrap(label, original, qualified in MEMORY)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.peaks.clear()

    def _wrap(self, label: int, fn, measure_memory: bool):
        spans, stack, peaks = self.spans, self._stack, self.peaks

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            if measure_memory:
                tracemalloc.start()
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                if measure_memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    key = self.labels[label]
                    peaks[key] = max(peaks.get(key, 0), peak)
                stack.pop()
                spans[index] = (label, start, end, parent)

        return traced

    def layer_metrics(self) -> dict[str, float]:
        """Self time per layer metric (s), call counts and allocation peaks."""
        covered = defaultdict(int)
        for label, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_ns = defaultdict(int)
        calls = Counter()
        for index, (label, start, end, _) in enumerate(self.spans):
            qualified = self.labels[label]
            self_ns[TRACED[qualified]] += end - start - covered[index]
            calls[qualified] += 1
        metrics = {name: self_ns[name] / 1e9 for name in TIME_METRICS}
        metrics["kernels.rhs_calls"] = calls["kernels.closed_loop_rhs"]
        metrics["controllers.assemble_calls"] = calls["controllers.assemble_kernel_args"]
        for qualified, metric in MEMORY.items():
            metrics[metric] = self.peaks.get(qualified, 0) / 2 ** 20
        return metrics

    def export(self) -> dict:
        """Spans of the current recording, times in ns from its first span."""
        origin = min((s[1] for s in self.spans), default=0)
        return {"labels": self.labels,
                "fields": ["label", "start_ns", "end_ns", "parent"],
                "spans": [[label, start - origin, end - origin, parent]
                          for label, start, end, parent in self.spans]}
