"""Span tracer for the benchmark's traced run.

The tracer wraps the library's layer functions where their callers look
them up: a module-level function is replaced in every ``linca`` module that
holds a reference to it (so ``linca.linalg.rref_inplace`` and the names
``solver`` imports with ``from .linalg import ...`` are both covered), and
methods are replaced on their class.  Nothing under ``src/`` changes; the
originals are restored by ``uninstall``.

Each span records its name, start, end, parent span and query id.  Spans
stay in memory until the run ends.  A layer's self time is its span's
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from collections import Counter, defaultdict

# (span name, home module, attribute): module-level functions.
FUNCTIONS = [
    ("kernel.rref_inplace", "linca.linalg", "rref_inplace"),
    ("linalg.rref", "linca.linalg", "rref"),
    ("linalg.as_matrix", "linca.linalg", "as_matrix"),
    ("linalg.as_vector", "linca.linalg", "as_vector"),
    ("linalg.solve_affine_multi", "linca.linalg", "solve_affine_multi"),
    ("linalg.kernel_basis", "linca.linalg", "kernel_basis"),
    ("linalg.image_of_affine", "linca.linalg", "image_of_affine"),
    ("linalg.constrain_affine", "linca.linalg", "constrain_affine"),
    ("linalg.matmul", "linca.linalg", "matmul"),
    ("solver.left_inverse", "linca.solver", "_solve_left_inverse"),
    ("solver.witness.support", "linca.solver", "_support_kernel_witness"),
    ("solver.witness.constant", "linca.solver", "_constant_kernel_witness"),
    ("solver.witness.periodic", "linca.solver", "_periodic_kernel_witness"),
    ("solver.witness.fiber", "linca.solver", "_window_fiber_counterexample"),
    ("solver.chain", "linca.solver", "universal_spaces"),
    ("solver.lift", "linca.solver", "lift_element"),
    ("groups.interior", "linca.groups", "interior"),
    ("ca.compose", "linca.ca", "compose"),
    ("ca.normalize", "linca.ca", "normalize_rule"),
]

# (span name, module, class, method): methods, wrapped on the class.
METHODS = [
    ("linalg.from_spanning", "linca.linalg", "Subspace", "from_spanning"),
    ("ca.window_map", "linca.ca", "LinearCA", "window_map"),
    ("ca.apply_config", "linca.ca", "LinearCA", "apply_config"),
    ("groups.ball", "linca.groups", "IntegerGroup", "ball"),
    ("groups.ball", "linca.groups", "LatticeGroup", "ball"),
    ("groups.ball", "linca.groups", "FiniteGroup", "ball"),
    ("groups.ball", "linca.groups", "FreeGroup", "ball"),
]

# Layers reported as .calls and .self_s.
TIMED_LAYERS = [
    "kernel.rref_inplace",
    "linalg.solve_affine_multi",
    "linalg.kernel_basis",
    "linalg.image_of_affine",
    "linalg.constrain_affine",
    "linalg.matmul",
    "linalg.from_spanning",
    "solver.left_inverse",
    "solver.witness.support",
    "solver.witness.constant",
    "solver.witness.periodic",
    "solver.witness.fiber",
    "solver.chain",
    "solver.lift",
    "groups.ball",
    "groups.interior",
    "ca.window_map",
    "ca.compose",
    "ca.normalize",
    "ca.apply_config",
]
COERCE = ("linalg.rref", "linalg.as_matrix", "linalg.as_vector")
WITNESSES = [n for n in TIMED_LAYERS if n.startswith("solver.witness.")]


class Tracer:
    """In-memory spans plus the counters recorded at the same boundaries."""

    def __init__(self):
        # Each span is [name, start, end, parent index, query id].
        self.spans: list = []
        self._stack: list = []
        self.query = None
        self.counts: Counter = Counter()
        self.cells_max = 0
        self._restore: list = []

    # -- spans -------------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.query])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def _wrap(self, fn, name: str):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            tracer._observe(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observe(self, name: str, args, result) -> None:
        """Counters that need the arguments or result of a layer call."""
        if name == "kernel.rref_inplace":
            rows, cols = args[0].shape
            self.counts["kernel.cells"] += rows * cols
            self.cells_max = max(self.cells_max, rows * cols)
            self.counts["kernel.rank_sum"] += len(result)
        elif name == "solver.left_inverse":
            self.counts["solver.left_inverse.hits"] += result is not None
        elif name.startswith("solver.witness."):
            self.counts["solver.witness.hits"] += result is not None
        elif name == "solver.chain":
            self.counts["solver.chain.images"] += len(result.images)

    # -- installing the wrappers ---------------------------------------------

    def install(self) -> None:
        import linca.solver as solver

        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "linca"]
        for name, home, attr in FUNCTIONS:
            original = getattr(sys.modules[home], attr)
            wrapped = self._wrap(original, name)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapped)
        for name, home, cls_name, attr in METHODS:
            cls = getattr(sys.modules[home], cls_name)
            original = cls.__dict__[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(original.__func__, name))
            else:
                wrapped = self._wrap(original, name)
            self._restore.append((cls, attr, original))
            setattr(cls, attr, wrapped)
        seq = solver.ProjectiveAffineSequence
        level = seq.__dict__["level"]
        tracer = self

        def counted_level(self_, n):
            if n not in self_._levels:
                tracer.counts["solver.levels.computed"] += 1
            return level(self_, n)

        self._restore.append((seq, "level", level))
        seq.level = counted_level

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results ---------------------------------------------------------------

    def self_times(self) -> tuple[Counter, Counter]:
        """Calls and self time per span name."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        for (name, start, end, _, _), inner in zip(self.spans, child):
            calls[name] += 1
            self_s[name] += (end - start) - inner
        return calls, self_s

    def layer_metrics(self) -> dict:
        """Every per-layer metric by name, as {"value", "unit"}."""
        calls, self_s = self.self_times()
        out = {}

        def put(name, value, unit):
            out[name] = {"value": value, "unit": unit}

        for layer in TIMED_LAYERS:
            put(f"{layer}.calls", calls[layer], "count")
            put(f"{layer}.self_s", self_s[layer], "s")
        cells = self.counts["kernel.cells"]
        put("kernel.cells", cells, "count")
        put("kernel.cells_max", self.cells_max, "count")
        put("kernel.bytes_computed", 8 * cells, "bytes")
        put("kernel.rank_sum", self.counts["kernel.rank_sum"], "count")
        put("linalg.coerce_s", sum(self_s[n] for n in COERCE), "s")
        put(
            "solver.left_inverse.hit_ratio",
            _ratio(self.counts["solver.left_inverse.hits"], calls["solver.left_inverse"]),
            "ratio",
        )
        put(
            "solver.witness.hit_ratio",
            _ratio(self.counts["solver.witness.hits"], sum(calls[n] for n in WITNESSES)),
            "ratio",
        )
        put("solver.levels.computed", self.counts["solver.levels.computed"], "count")
        put("solver.chain.images", self.counts["solver.chain.images"], "count")
        put("jsonio.encode.self_s", self_s["jsonio.encode"], "s")
        put("jsonio.verify.self_s", self_s["jsonio.verify"], "s")
        put("unlayered.self_s", self_s["query"], "s")
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _ratio(hits: int, calls: int) -> float:
    """Useful outcomes over attempts; 0 when the layer never ran."""
    return hits / calls if calls else 0.0
