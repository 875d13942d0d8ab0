"""Outside-in tracer for the lcscohom modules.

The tracer wraps the public functions of each lcscohom module from the
benchmark's side, so nothing under ``src/`` knows it exists.  Modules bind
names with ``from .linalg import smith_normal_form``, so one function can sit
in many module namespaces; ``install`` replaces the original at every module
attribute (and class attribute) that holds it, and ``uninstall`` puts every
original back.

Every call records one span: group, function name, parent span, start and
end.  Spans stay in memory until ``write_spans`` at the end of the run.  A
group's self time is its spans' durations minus the time covered by their
child spans; time spent in the tracer's own counter hooks is charged to
neither, so it shows only in the traced wall time.
"""

import json
import time

# Group names are the per-layer metric prefixes reported by the benchmark.
SNF = "linalg.snf"
LATTICE = "linalg.lattice"
BUILD = "extensions.build"
SEARCH = "extensions.search"
GROUPS = (
    SNF,
    LATTICE,
    "reduced",
    "bicomplex",
    "structures",
    BUILD,
    SEARCH,
    "cli",
    "verify",
)

LATTICE_FUNCTIONS = {
    "kernel_mod_m",
    "integer_kernel",
    "solution_lattice_mod",
    "solve_mod",
    "lattice_quotient_invariants",
    "subquotient_invariants",
    "kernel_in_subgroup",
}
SEARCH_FUNCTIONS = {"classify_extensions", "cocycles_cohomologous", "extensions_equivalent"}
BUILD_FUNCTIONS = {"validate_extension_triple", "extract_cocycle"}
# Called once per matrix entry: a span there would time the tracer, not the
# program.  Its time stays in the calling function's span.
PER_ENTRY_HELPERS = {"tuple_index"}
_RAISED = object()


def group_of(module: str, name: str):
    """The layer group of the public function ``module.name``, or None."""
    short = module.rsplit(".", 1)[-1]
    if short == "linalg":
        if name == "smith_normal_form":
            return SNF
        return LATTICE if name in LATTICE_FUNCTIONS else None
    if short in ("structures", "corpus"):
        return "structures"
    if short == "extensions":
        if name in SEARCH_FUNCTIONS:
            return SEARCH
        if name.startswith(("build_", "force_")) or name in BUILD_FUNCTIONS:
            return BUILD
        return None
    if short in ("reduced", "bicomplex", "cli", "verify"):
        return None if name in PER_ENTRY_HELPERS else short
    return None


def _nnz(mat) -> int:
    return sum(1 for row in mat.data for x in row if x)


def _max_abs(mat) -> int:
    return max((abs(x) for row in mat.data for x in row), default=0)


def _snf_counts(counters, args, result):
    mat = args[0]
    counters["linalg.snf.entries"] += mat.rows * mat.cols
    counters["linalg.snf.nnz_in"] += _nnz(mat)
    counters["linalg.snf.nnz_out"] += _nnz(result.u) + _nnz(result.s) + _nnz(result.v)
    counters["linalg.snf.max_entry"] = max(
        counters["linalg.snf.max_entry"], _max_abs(result.u), _max_abs(result.v)
    )


def _search_space_counts(counters, args, result):
    c1 = args[0]
    counters["extensions.search.space"] += c1.coeffs.order ** c1.base.order


def _class_counts(counters, args, result):
    counters["extensions.classes"] += len(result)


COUNTER_HOOKS = {
    "smith_normal_form": _snf_counts,
    "cocycles_cohomologous": _search_space_counts,
    "classify_extensions": _class_counts,
}
COUNTERS = (
    "linalg.snf.entries",
    "linalg.snf.nnz_in",
    "linalg.snf.nnz_out",
    "linalg.snf.max_entry",
    "extensions.search.space",
    "extensions.classes",
    "cli.bytes_out",
)


def unit_of(metric):
    if metric.endswith(".self_s"):
        return "s"
    if metric == "cli.bytes_out":
        return "bytes"
    if metric == "trace.overhead_ratio":
        return "ratio"
    return "count"


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [group, name, parent, start, end]
        self.calls = dict.fromkeys(GROUPS, 0)
        self.self_s = dict.fromkeys(GROUPS, 0.0)
        self.counters = dict.fromkeys(COUNTERS, 0)
        # One frame per open span: [child seconds, span id]; the root frame
        # collects time of top-level spans and belongs to no group.
        self._stack = [[0.0, -1]]
        self._undo = []

    def wrap(self, fn, group):
        name = fn.__qualname__
        hook = COUNTER_HOOKS.get(fn.__name__)
        clock = self.clock
        stack = self._stack
        spans = self.spans
        calls = self.calls
        self_s = self.self_s
        counters = self.counters

        def traced(*args, **kwargs):
            parent = stack[-1]
            span_id = len(spans)
            frame = [0.0, span_id]
            spans.append(None)
            stack.append(frame)
            result = _RAISED
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span_id] = [group, name, parent[1], start, end]
                calls[group] += 1
                self_s[group] += (end - start) - frame[0]
                if hook is not None and result is not _RAISED:
                    hook(counters, args, result)
                parent[0] += clock() - start
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    def install(self, modules):
        """Wrap every traced function wherever one of ``modules`` binds it."""
        if self._undo:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for module in modules:
            for name, obj in vars(module).items():
                if name.startswith("_") or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, type):
                    if module.__name__.endswith(".linalg") and name == "LatticeTester":
                        for meth in ("__init__", "contains", "contains_all"):
                            orig = vars(obj)[meth]
                            self._set(obj, meth, self.wrap(orig, LATTICE))
                    continue
                group = group_of(module.__name__, name)
                if group is not None:
                    wrappers[id(obj)] = (obj, self.wrap(obj, group))
        for module in modules:
            for name, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(module, name, hit[1])
        return len(wrappers)

    def _set(self, owner, name, value):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def count(self, name, amount):
        self.counters[name] += amount

    def metrics(self):
        """Per-group calls and self seconds, plus the counters, by metric name."""
        out = {}
        for group in GROUPS:
            out[f"{group}.calls"] = self.calls[group]
            out[f"{group}.self_s"] = self.self_s[group]
        out.update(self.counters)
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["group", "name", "parent", "start", "end"],
                       "spans": self.spans}, fh)
