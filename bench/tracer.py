"""Span tracing of the specforms layers, installed from outside the package.

`Tracer.install()` wraps every public function of the layer modules, the
class-level `eval` of each scalar kernel model and the `__call__` of the
symbol classes, and rebinds every alias of each wrapped object it finds
in any loaded `specforms.*` module dict (names bound by `from .x import`
included) and in dicts held by those modules (such as dispatch tables).
Calls that look a name up at call time, like the deferred import inside
`momenta.momentum_eval`, reach the wrapper through the rebound module
attribute. `uninstall()` restores every binding.

Each finished call appends one span `(sid, parent_sid, name, t0, t1,
tag)` to in-memory column arrays owned by the calling thread; parents
come from a per-thread stack, so a span's parent always ran on the same
thread. Spans are aggregated into per-layer metrics by `layer_metrics`
and written out by `save_spans` once the run ends.
"""

import functools
import inspect
import itertools
import sys
from array import array
import threading
import time
from contextlib import contextmanager

import numpy as np

LAYERS = (
    "functions",
    "spectral",
    "divided",
    "simplex",
    "momenta",
    "moi",
    "forms",
    "instances",
    "experiments",
    "cli",
)

# Class-level methods traced besides module functions: (module, class, method).
# Kernel models reach `eval` through the class, so the class attribute is
# the binding to replace; symbol classes are called while a phi tensor is built.
CLASS_METHODS = (
    ("functions", "PowerKernel", "eval"),
    ("functions", "Polynomial", "eval"),
    ("functions", "CallableKernel", "eval"),
    ("divided", "DividedDifference", "__call__"),
    ("moi", "SeparableSymbol", "__call__"),
)

DIVIDED = "divided.divided_difference"
QUADRATURE = "momenta.momentum_quadrature"
INTEGRALS = ("moi.moi_exact", "moi.moi_binned")
SYMBOLS = (
    "divided.DividedDifference.__call__",
    "momenta.momentum_eval",
    "moi.SeparableSymbol.__call__",
)
DELTAS = (
    "forms.delta_symmetric",
    "forms.delta_bracket",
    "forms.model_delta_symmetric",
    "forms.model_delta_bracket",
)
SIMPLEX_RULES = ("simplex.subsimplex_rule", "simplex.join_rule")
SIMPLEX_SPLITS = ("simplex.split_by_kink", "simplex.graded_pieces")
SEGMENT = "forms.taylor_integral_form"
EIGEN = "spectral.eigendecompose"

# Node classes of a divided-difference call: the smallest adjacent gap of
# the sorted nodes relative to (1 + spread) is exactly 0, below NEAR_GAP,
# or larger. A single node has no gap and counts as separated.
NEAR_GAP = 1e-3
NODE_CLASSES = ("tie", "near", "separated")


def node_class(nodes):
    x = np.sort(np.asarray(nodes, dtype=float).ravel())
    if x.size < 2:
        return "separated"
    gap = float(np.min(np.diff(x))) / (1.0 + float(x[-1] - x[0]))
    if gap == 0.0:
        return "tie"
    return "near" if gap < NEAR_GAP else "separated"


def _tag_divided(args, kwargs):
    nodes = args[1] if len(args) > 1 else kwargs["nodes"]
    return NODE_CLASSES.index(node_class(nodes))


def _tag_integral(args, kwargs):
    request = args[0] if args else kwargs["request"]
    return request.dim ** (request.order + 1)


# Tags are computed from a call's arguments after it returns.
TAGGERS = {DIVIDED: _tag_divided}
TAGGERS.update({name: _tag_integral for name in INTEGRALS})


def _public_callables(module):
    """Public functions (and lru-cached functions) defined in `module`."""
    out = {}
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        target = getattr(obj, "__wrapped__", obj) if hasattr(obj, "cache_info") else obj
        if inspect.isfunction(target) and target.__module__ == module.__name__:
            out[name] = obj
    return out


def _package_modules():
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "specforms" or name.startswith("specforms."))
    ]


COLUMNS = (("sid", "q"), ("parent", "q"), ("name", "i"), ("t0", "d"), ("t1", "d"), ("tag", "q"))


class Tracer:
    """Collects spans from wrapped specforms functions; see module docstring."""

    def __init__(self):
        self.names = []
        self.buffers = []  # (thread id, {column: array}) in thread start order
        self.enabled = True
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._bindings = []  # (container, key, original, via_setattr)

    def _thread_state(self):
        """This thread's (call stack, column appenders), made on first use."""
        cols = {name: array(code) for name, code in COLUMNS}
        with self._lock:
            self.buffers.append((threading.get_ident(), cols))
        state = self._local.state = ([], tuple(cols[name].append for name, _ in COLUMNS))
        return state

    # -- installation -------------------------------------------------
    def _make_wrapper(self, name, fn):
        index = len(self.names)
        self.names.append(name)
        tagger = TAGGERS.get(name)
        local = self._local
        ids = self._ids
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            state = getattr(local, "state", None) or tracer._thread_state()
            stack = state[0]
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                put_sid, put_parent, put_name, put_t0, put_t1, put_tag = state[1]
                put_sid(sid)
                put_parent(parent)
                put_name(index)
                put_t0(t0)
                put_t1(t1)
                put_tag(tagger(args, kwargs) if tagger is not None else -1)

        return wrapper

    def install(self):
        """Wrap the layer functions and rebind every alias; returns self."""
        import specforms  # noqa: F401  (loads every layer module)

        originals = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            module = sys.modules[f"specforms.{layer}"]
            for name, obj in _public_callables(module).items():
                originals[id(obj)] = (obj, self._make_wrapper(f"{layer}.{name}", obj))
        for layer, cls_name, meth in CLASS_METHODS:
            cls = getattr(sys.modules[f"specforms.{layer}"], cls_name)
            if meth not in vars(cls):
                raise RuntimeError(f"{cls_name} does not define {meth}")
            original = vars(cls)[meth]
            wrapper = self._make_wrapper(f"{layer}.{cls_name}.{meth}", original)
            self._bind(cls, meth, original, wrapper, via_setattr=True)

        for module in _package_modules():
            for key, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._bind(module, key, value, hit[1], via_setattr=True)
                elif isinstance(value, dict):
                    for dkey, dval in list(value.items()):
                        hit = originals.get(id(dval))
                        if hit is not None and hit[0] is dval:
                            self._bind(value, dkey, dval, hit[1], via_setattr=False)
        return self

    def _bind(self, container, key, original, wrapper, via_setattr):
        if via_setattr:
            setattr(container, key, wrapper)
        else:
            container[key] = wrapper
        self._bindings.append((container, key, original, via_setattr))

    def uninstall(self):
        for container, key, original, via_setattr in reversed(self._bindings):
            if via_setattr:
                setattr(container, key, original)
            else:
                container[key] = original
        self._bindings.clear()

    @contextmanager
    def paused(self):
        """Run a block untraced (checks and warm-up are not measured)."""
        previous = self.enabled
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = previous

    # -- output -------------------------------------------------------
    def span_count(self):
        return sum(len(cols["sid"]) for _, cols in self.buffers)

    def save_spans(self, path):
        """Write the spans as compressed numpy columns plus the name table."""
        out = {"names": np.asarray(self.names)}
        threads = []
        for tid, cols in self.buffers:
            threads.append(np.full(len(cols["sid"]), tid, dtype=np.uint64))
        out["thread"] = np.concatenate(threads) if threads else np.zeros(0, np.uint64)
        for name, code in COLUMNS:
            parts = [np.frombuffer(cols[name], dtype=code) for _, cols in self.buffers if cols[name]]
            out[name] = np.concatenate(parts) if parts else np.zeros(0, dtype=code)
        np.savez_compressed(path, **out)


def calibrate_overhead(n=20000):
    """Seconds one traced call adds over a plain call, measured on a no-op."""

    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer._make_wrapper("calibration.noop", noop)
    clock = time.perf_counter
    best = None
    for _ in range(5):
        t0 = clock()
        for _ in range(n):
            noop()
        t1 = clock()
        for _ in range(n):
            wrapped()
        t2 = clock()
        extra = ((t2 - t1) - (t1 - t0)) / n
        best = extra if best is None else min(best, extra)
    return max(best, 0.0)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, timed_s, overhead_per_span):
    """Aggregate spans into the per-layer metrics, plus the bases of ratios."""
    names = tracer.names
    layer_of = [n.split(".", 1)[0] for n in names]
    calls = {}
    busy = {}
    self_by_layer = {layer: 0.0 for layer in LAYERS}
    busy_by_layer = {layer: 0.0 for layer in LAYERS}
    quad_self = 0.0
    nodes = [0, 0, 0]
    quad_reached = 0
    entries = 0
    symbol_evals = 0
    rules_in_quad = 0
    integrals_in_delta = 0
    eig_in_segment = 0
    outer_deltas = 0
    contexts = [(frozenset(), frozenset())]
    step = {}  # (context, name index) -> context of that span's children
    for _tid, cols in tracer.buffers:
        columns = [cols[name] for name, _ in COLUMNS]
        # Finish order lists children before their parent: self time.
        child_time = {}
        for sid, parent, idx, t0, t1, _tag in zip(*columns):
            own = (t1 - t0) - child_time.pop(sid, 0.0)
            if parent:
                child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
            self_by_layer[layer_of[idx]] += own
            if names[idx] == QUADRATURE:
                quad_self += own
        # Reversed finish order visits each span before its descendants,
        # so the open ancestors form a stack. Ancestor contexts (layers
        # and function names above a span) are interned: few call paths
        # repeat many times.
        open_spans = []  # (sid, context of its children, reached quadrature)
        for sid, parent, idx, t0, t1, tag in zip(*map(reversed, columns)):
            while open_spans and open_spans[-1][0] != parent:
                open_spans.pop()
            ctx = open_spans[-1][1] if open_spans else 0
            up_layers, up_names = contexts[ctx]
            name = names[idx]
            layer = layer_of[idx]
            dur = t1 - t0
            calls[name] = calls.get(name, 0) + 1
            if name not in up_names:
                busy[name] = busy.get(name, 0.0) + dur
            if layer not in up_layers:
                busy_by_layer[layer] += dur
            if name == DIVIDED:
                nodes[tag] += 1
            elif name == QUADRATURE:
                # Count each divided difference whose call reached quadrature once.
                for i in range(len(open_spans) - 1, -1, -1):
                    entry = open_spans[i]
                    if entry[2] == DIVIDED:
                        if not entry[3]:
                            open_spans[i] = entry[:3] + (True,)
                            quad_reached += 1
                        break
            if name in INTEGRALS:
                entries += tag
                if up_names.intersection(DELTAS):
                    integrals_in_delta += 1
            elif name in SYMBOLS and up_names.intersection(INTEGRALS):
                symbol_evals += 1
            elif name in SIMPLEX_RULES and QUADRATURE in up_names:
                rules_in_quad += 1
            elif name in DELTAS and not up_names.intersection(DELTAS):
                outer_deltas += 1
            elif name == EIGEN and SEGMENT in up_names:
                eig_in_segment += 1
            key = (ctx, idx)
            child_ctx = step.get(key)
            if child_ctx is None:
                child_ctx = step[key] = len(contexts)
                contexts.append((up_layers | {layer}, up_names | {name}))
            open_spans.append((sid, child_ctx, name, False))

    def n(*fns):
        return sum(calls.get(f, 0) for f in fns)

    def b(*fns):
        return sum(busy.get(f, 0.0) for f in fns)

    # Peak number of threads inside traced calls at once: with the worker
    # pool, the caller waiting in experiments.run counts as one of them.
    edges = sorted(
        (t, step_)
        for _tid, cols in tracer.buffers
        for parent, t0, t1 in zip(cols["parent"], cols["t0"], cols["t1"])
        if not parent
        for t, step_ in ((t0, 1), (t1, -1))
    )
    active = peak_threads = 0
    for _t, step_ in edges:
        active += step_
        peak_threads = max(peak_threads, active)

    evals = [f for f in names if f.endswith(".eval") and f.startswith("functions.")]
    dd_calls = n(DIVIDED)
    quad_calls = n(QUADRATURE)
    integral_calls = n(*INTEGRALS)
    segments = n(SEGMENT)
    metrics = {
        "momenta.momentum_quadrature.calls": quad_calls,
        "momenta.momentum_quadrature.self_s": quad_self,
        "momenta.rules_per_quadrature": _ratio(rules_in_quad, quad_calls),
        "divided.quadrature_share": _ratio(quad_reached, dd_calls),
        "simplex.rule.calls": n(*SIMPLEX_RULES),
        "simplex.split.calls": n(*SIMPLEX_SPLITS),
        "simplex.busy_s": busy_by_layer["simplex"],
        "divided.divided_difference.calls": dd_calls,
        "divided.self_s": self_by_layer["divided"],
        "divided.nodes.tie": nodes[0],
        "divided.nodes.near": nodes[1],
        "divided.nodes.separated": nodes[2],
        "moi.integral.calls": integral_calls,
        "moi.integral.busy_s": b(*INTEGRALS),
        "moi.self_s": self_by_layer["moi"],
        "moi.tensor_entries": entries,
        "moi.symbol_evals_per_entry": _ratio(symbol_evals, entries),
        "moi.self_us_per_entry": _ratio(self_by_layer["moi"] * 1e6, entries),
        "forms.delta.calls": outer_deltas,
        "forms.integrals_per_delta": _ratio(integrals_in_delta, outer_deltas),
        "forms.self_s": self_by_layer["forms"],
        "forms.taylor_integral_form.calls": segments,
        "forms.decompositions_per_segment": _ratio(eig_in_segment, segments),
        "spectral.eigendecompose.calls": n(EIGEN),
        "spectral.eigendecompose.busy_s": b(EIGEN),
        "spectral.busy_s": busy_by_layer["spectral"],
        "functions.eval.calls": n(*evals),
        "functions.eval.busy_s": b(*evals),
        "experiments.run.calls": n("experiments.run"),
        "experiments.run.busy_s": b("experiments.run"),
        "experiments.self_s": self_by_layer["experiments"],
        "experiments.threads_seen": peak_threads,
        "cli.main.busy_s": b("cli.main"),
        "cli.self_s": self_by_layer["cli"],
        "instances.generate_instance.busy_s": b("instances.generate_instance"),
        "trace.overhead_frac": _ratio(tracer.span_count() * overhead_per_span, timed_s),
    }
    bases = {
        "spans": tracer.span_count(),
        "symbol_evals_in_integrals": symbol_evals,
        "rules_in_quadrature": rules_in_quad,
        "divided_calls_reaching_quadrature": quad_reached,
        "integrals_in_deltas": integrals_in_delta,
        "eigendecompositions_in_segments": eig_in_segment,
        "timed_s": timed_s,
        "overhead_per_span_s": overhead_per_span,
        "calls": dict(sorted(calls.items())),
    }
    return metrics, bases
