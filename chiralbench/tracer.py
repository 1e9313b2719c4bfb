"""Spans around chiralspin's public functions, installed from the benchmark's
side, and the per-layer metrics made from them.

A wrapper replaces each traced function in every chiralspin namespace that
binds it, so calls through ``from .x import f`` names (``composite_matrix`` in
``chiral``, ``classify`` in ``charpoly``, ``embed`` in ``models`` ...) are
seen too. Spans stay in memory while a round runs; self time is a span's
duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

# (module, function) pairs that are wrapped; each becomes the span name
# "<module>.<function>".
TARGETS = (
    ("linalg", "hermitian_eigensolve"),
    ("linalg", "unitary_exp"),
    ("linalg", "kron"),
    ("angmom", "build_spin_operators"),
    ("angmom", "embed"),
    ("rotations", "rotation_matrix"),
    ("rotations", "composite_matrix"),
    ("chiral", "classify"),
    ("chiral", "search_partners"),
    ("chiral", "pairing_check"),
    ("charpoly", "full_solve"),
    ("charpoly", "characteristic_polynomial"),
    ("charpoly", "parity_reduce"),
    ("charpoly", "solve_reduced"),
    ("models", "build"),
    ("models", "load_model_file"),
    ("models", "shifted_hamiltonian"),
    ("cli", "main"),
)

# Per-layer metrics, in the order BENCHMARK.json lists them. Times and call
# counts are per traced round of the workload's operation list.
PER_LAYER = (
    ("linalg.hermitian_eigensolve.dim_le_4.calls", "count", "lower"),
    ("linalg.hermitian_eigensolve.dim_le_4.ms", "ms", "lower"),
    ("linalg.hermitian_eigensolve.dim_5_16.calls", "count", "lower"),
    ("linalg.hermitian_eigensolve.dim_5_16.ms", "ms", "lower"),
    ("linalg.hermitian_eigensolve.dim_gt_16.calls", "count", "lower"),
    ("linalg.hermitian_eigensolve.dim_gt_16.ms", "ms", "lower"),
    ("linalg.unitary_exp.calls", "count", "lower"),
    ("linalg.unitary_exp.self_ms", "ms", "lower"),
    ("linalg.kron.ms", "ms", "lower"),
    ("angmom.build_spin_operators.calls", "count", "lower"),
    ("angmom.build_spin_operators.ms", "ms", "lower"),
    ("angmom.embed.ms", "ms", "lower"),
    ("rotations.rotation_matrix.calls", "count", "lower"),
    ("rotations.composite_matrix.calls", "count", "lower"),
    ("rotations.composite_matrix.self_ms", "ms", "lower"),
    ("chiral.classify.calls", "count", "lower"),
    ("chiral.classify.ms", "ms", "lower"),
    ("chiral.search_partners.self_ms", "ms", "lower"),
    ("chiral.search.candidates", "count", "lower"),
    ("chiral.search.hit_ratio", "ratio", "higher"),
    ("chiral.pairing_check.ms", "ms", "lower"),
    ("charpoly.full_solve.self_ms", "ms", "lower"),
    ("charpoly.characteristic_polynomial.calls", "count", "lower"),
    ("charpoly.characteristic_polynomial.ms", "ms", "lower"),
    ("charpoly.parity_reduce.ms", "ms", "lower"),
    ("charpoly.solve_reduced.ms", "ms", "lower"),
    ("models.build.calls", "count", "lower"),
    ("models.build.ms", "ms", "lower"),
    ("models.load_model_file.ms", "ms", "lower"),
    ("models.shifted_hamiltonian.ms", "ms", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_ms", "ms", "lower"),
    ("setup.import_numpy_ms", "ms", "lower"),
    ("setup.import_chiralspin_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


def _eigensolve_bucket(h, *_args, **_kwargs) -> str:
    n = np.shape(h)[0]
    if n <= 4:
        return "dim_le_4"
    return "dim_5_16" if n <= 16 else "dim_gt_16"


# Spans of these functions are named by a property of their arguments.
BUCKETS = {"linalg.hermitian_eigensolve": _eigensolve_bucket}


class Tracer:
    """Records [name, parent index, start ns, end ns] for every wrapped call."""

    def __init__(self):
        self.spans = []
        self.hits = 0
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        bucket = BUCKETS.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name if bucket is None else f"{name}.{bucket(*args, **kwargs)}"
            span = [label, stack[-1] if stack else -1, 0, 0]
            stack.append(len(self.spans))
            self.spans.append(span)
            span[2] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter_ns()
                stack.pop()
            if name == "chiral.search_partners":
                self.hits += len(result)
            return result

        return wrapper

    def install(self):
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "chiralspin"]
        for module_name, function_name in TARGETS:
            original = getattr(sys.modules[f"chiralspin.{module_name}"], function_name)
            wrapper = self._wrap(f"{module_name}.{function_name}", original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self):
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()


class Totals:
    """Per-span-name calls, inclusive and self nanoseconds, summed over the
    traced rounds."""

    def __init__(self):
        self.stats = {}
        self.candidates = 0
        self.hits = 0
        self.rounds = 0

    def add(self, tracer: Tracer):
        spans = tracer.spans
        covered = [0] * len(spans)
        for _, parent, start, end in spans:
            if parent >= 0:
                covered[parent] += end - start
        for i, (label, parent, start, end) in enumerate(spans):
            calls_ns_self = self.stats.setdefault(label, [0, 0, 0])
            calls_ns_self[0] += 1
            calls_ns_self[1] += end - start
            calls_ns_self[2] += end - start - covered[i]
            if label == "chiral.classify" and parent >= 0 and spans[parent][0] == "chiral.search_partners":
                self.candidates += 1
        self.hits += tracer.hits
        self.rounds += 1

    def metrics(self) -> dict:
        """Every span-derived PER_LAYER metric, per round."""
        out = {}
        for name, unit, _ in PER_LAYER:
            if name.startswith(("setup.", "trace.")):
                continue
            if name == "chiral.search.candidates":
                value = self.candidates / self.rounds
            elif name == "chiral.search.hit_ratio":
                value = self.hits / self.candidates if self.candidates else 0.0
            else:
                label, stat = name.rsplit(".", 1)
                calls, ns, self_ns = self.stats.get(label, (0, 0, 0))
                value = {"calls": calls, "ms": ns / 1e6, "self_ms": self_ns / 1e6}[stat] / self.rounds
            out[name] = {"value": value, "unit": unit}
        return out


def write_spans(spans, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,name,parent,start_ns,end_ns\n")
        for i, (label, parent, start, end) in enumerate(spans):
            fh.write(f"{i},{label},{parent},{start},{end}\n")
