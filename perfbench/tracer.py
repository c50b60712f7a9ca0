"""Span tracer for the traced benchmark run.

The tracer patches public entry points of an imported `bssyt` from the
outside; no file of the package changes.  Three kinds of binding:

* span: a call that does substantial work (a claim, a count, one word
  polynomial).  Each call is recorded as a span with its parent, start, end
  and the time its traced children took.
* hot: a leaf called per object (induced subshapes, corner counts,
  polynomial arithmetic).  Calls and time are summed per binding, and the
  time is charged to the enclosing span as child time, so a hot layer's
  work does not count as its caller's self time.
* generator: an enumerator.  Only the time spent producing each object is
  timed, and objects are counted.

A binding that no longer exists is reported as absent, never as zero.
"""

import functools
import importlib
import statistics
import time

clock = time.perf_counter_ns

# (module, attribute, kind, layer); the binding's name is "<module>.<attribute>".
BINDINGS = (
    ("jaggedness", "verify_conjecture_rect", "span", "jaggedness"),
    ("jaggedness", "verify_count_identity", "span", "jaggedness"),
    ("jaggedness", "verify_balanced_expectation", "span", "jaggedness"),
    ("jaggedness", "verify_weak_expectation_by_subshape", "span", "jaggedness"),
    ("jaggedness", "verify_double_sums", "span", "jaggedness"),
    ("jaggedness", "check_toggle_symmetric", "span", "jaggedness"),
    ("jaggedness", "expected_jaggedness_weak", "span", "jaggedness"),
    ("bijections", "verify_roundtrip", "span", "bijections"),
    ("hecke", "verify_fk_longest", "span", "hecke"),
    ("hecke", "verify_fk_ratio", "span", "hecke"),
    ("hecke", "verify_fk_bssyt_relation", "span", "hecke"),
    ("hecke", "fk_polynomial", "span", "hecke"),
    ("jaggedness", "count_ssyt", "span", "tableaux"),
    ("jaggedness", "count_bssyt", "span", "tableaux"),
    ("jaggedness", "count_rpp", "span", "tableaux"),
    ("hecke", "count_ssyt", "span", "tableaux"),
    ("hecke", "count_bssyt", "span", "tableaux"),
    ("jaggedness", "enumerate_rpp", "generator", "tableaux"),
    ("bijections", "enumerate_bssyt", "generator", "tableaux"),
    ("jaggedness", "induced_subshape", "hot", "tableaux"),
    ("jaggedness", "corner_count", "hot", "shapes"),
    ("jaggedness", "proper_outside_corner_count", "hot", "shapes"),
    ("jaggedness", "corners", "hot", "shapes"),
    ("jaggedness", "proper_outside_corners", "hot", "shapes"),
    ("jaggedness", "shape_jaggedness", "hot", "shapes"),
    ("exactmath", "IntPolynomial.__mul__", "hot", "exactmath"),
    ("exactmath", "IntPolynomial.__add__", "hot", "exactmath"),
)

LAYERS = ("cli", "tableaux", "jaggedness", "bijections", "hecke", "shapes", "exactmath")

_COUNTS = tuple(f"{m}.{a}" for m, a, _, _ in BINDINGS if a.startswith("count_"))
_ENUMERATORS = ("jaggedness.enumerate_rpp", "bijections.enumerate_bssyt")
_SHAPES = tuple(f"{m}.{a}" for m, a, _, layer in BINDINGS if layer == "shapes")
_ENTRY_POINTS = tuple(
    f"{m}.{a}" for m, a, kind, layer in BINDINGS
    if kind == "span" and layer == m and a != "fk_polynomial"
)


def _touching(layer):
    """Bindings whose absence would move time into or out of the layer:
    those that live in its module and those whose work it is."""
    return tuple(f"{m}.{a}" for m, a, _, owner in BINDINGS if layer in (m, owner))


# Per-layer metric: (unit, bindings it is derived from).
METRICS = {
    "cli.self_ms.p50": ("ms", _ENTRY_POINTS),
    "cli.self_s": ("s", _ENTRY_POINTS),
    "tableaux.count_s": ("s", _COUNTS),
    "tableaux.enumerate_s": ("s", _ENUMERATORS),
    "tableaux.objects": ("count", _ENUMERATORS),
    "tableaux.induced_subshape_calls": ("count", ("jaggedness.induced_subshape",)),
    "shapes.calls": ("count", _SHAPES),
    "bijections.us_per_tableau": ("us", _touching("bijections")),
    "hecke.fk_polynomial_s": ("s", ("hecke.fk_polynomial",)),
    "hecke.fk_polynomial_calls": ("count", ("hecke.fk_polynomial",)),
    "exactmath.poly_mul_calls": ("count", ("exactmath.IntPolynomial.__mul__",)),
    "exactmath.poly_mul_s": ("s", ("exactmath.IntPolynomial.__mul__",)),
    "exactmath.poly_add_calls": ("count", ("exactmath.IntPolynomial.__add__",)),
}
for _layer in LAYERS[1:]:
    METRICS[f"{_layer}.self_s"] = ("s", _touching(_layer))
# The word DP's polynomial arithmetic would land in hecke's self time.
METRICS["hecke.self_s"] = ("s", _touching("hecke") + _touching("exactmath"))


class Tracer:
    """Spans and per-binding aggregates of one traced pass at a time."""

    def __init__(self):
        self.spans = []  # (id, parent, name, layer, start_ns, end_ns, child_ns)
        self.hot = {}  # binding -> [calls, ns, objects]
        self._stack = []  # open spans: [id, child_ns]
        self._next_id = 0
        self._patches = []  # (owner, attribute, original, wrapper)
        self.absent = []
        for module_name, attr, kind, layer in BINDINGS:
            self._prepare(module_name, attr, kind, layer)

    def reset(self):
        self.spans = []
        for agg in self.hot.values():
            agg[:] = [0, 0, 0]

    def span(self, name, layer, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        frame = [self._next_id, 0]
        self._next_id += 1
        self._stack.append(frame)
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = clock()
            self._stack.pop()
            if parent is not None:
                parent[1] += end - start
            self.spans.append(
                (frame[0], parent[0] if parent else None, name, layer, start, end, frame[1])
            )

    def _wrap_span(self, name, layer, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, layer, fn, *args, **kwargs)

        return wrapper

    def _wrap_hot(self, name, fn):
        agg = self.hot.setdefault(name, [0, 0, 0])
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - start
                agg[0] += 1
                agg[1] += took
                if stack:
                    stack[-1][1] += took

        return wrapper

    def _wrap_generator(self, name, fn):
        agg = self.hot.setdefault(name, [0, 0, 0])
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            agg[0] += 1
            inner = fn(*args, **kwargs)
            while True:
                start = clock()
                try:
                    item = next(inner)
                except StopIteration:
                    took = clock() - start
                    agg[1] += took
                    if stack:
                        stack[-1][1] += took
                    return
                took = clock() - start
                agg[1] += took
                agg[2] += 1
                if stack:
                    stack[-1][1] += took
                yield item

        return wrapper

    def _prepare(self, module_name, attr, kind, layer):
        """Build the wrapper of one binding, or record it as absent."""
        name = f"{module_name}.{attr}"
        try:
            owner = importlib.import_module(f"bssyt.{module_name}")
        except ImportError:
            owner = None
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, leaf, None) if owner is not None else None
        if not callable(original):
            self.absent.append(name)
            return
        if kind == "span":
            wrapper = self._wrap_span(name, layer, original)
        elif kind == "hot":
            wrapper = self._wrap_hot(name, original)
        else:
            wrapper = self._wrap_generator(name, original)
        self._patches.append((owner, leaf, original, wrapper))

    def install(self):
        for owner, leaf, _, wrapper in self._patches:
            setattr(owner, leaf, wrapper)

    def uninstall(self):
        for owner, leaf, original, _ in self._patches:
            setattr(owner, leaf, original)

    def pass_metrics(self):
        """Per-layer figures of the pass traced since the last reset."""
        self_ns = dict.fromkeys(LAYERS, 0)
        cli_self_ms, count_ns, fk_ns, fk_calls = [], 0, 0, 0
        for _, _, name, layer, start, end, child in self.spans:
            own = end - start - child
            self_ns[layer] += own
            if name == "cli.main":
                cli_self_ms.append(own / 1e6)
            elif name in _COUNTS:
                count_ns += end - start
            elif name == "hecke.fk_polynomial":
                fk_ns += end - start
                fk_calls += 1
        layer_of = {f"{m}.{a}": layer for m, a, _, layer in BINDINGS}
        for name, (_, ns, _) in self.hot.items():
            self_ns[layer_of[name]] += ns

        def hot(name, field):
            return self.hot.get(name, (0, 0, 0))[field]

        tableaux_seen = hot("bijections.enumerate_bssyt", 2)
        out = {
            "cli.self_ms.p50": statistics.median(cli_self_ms) if cli_self_ms else 0.0,
            "tableaux.count_s": count_ns / 1e9,
            "tableaux.enumerate_s": sum(hot(n, 1) for n in _ENUMERATORS) / 1e9,
            "tableaux.objects": sum(hot(n, 2) for n in _ENUMERATORS),
            "tableaux.induced_subshape_calls": hot("jaggedness.induced_subshape", 0),
            "shapes.calls": sum(hot(n, 0) for n in _SHAPES),
            "bijections.us_per_tableau": (
                self_ns["bijections"] / 1e3 / tableaux_seen if tableaux_seen else 0.0
            ),
            "hecke.fk_polynomial_s": fk_ns / 1e9,
            "hecke.fk_polynomial_calls": fk_calls,
            "exactmath.poly_mul_calls": hot("exactmath.IntPolynomial.__mul__", 0),
            "exactmath.poly_mul_s": hot("exactmath.IntPolynomial.__mul__", 1) / 1e9,
            "exactmath.poly_add_calls": hot("exactmath.IntPolynomial.__add__", 0),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_ns[layer] / 1e9
        return out

    def absent_metrics(self):
        absent = set(self.absent)
        return sorted(m for m, (_, deps) in METRICS.items() if absent.intersection(deps))

    def span_records(self, pass_index):
        """Spans of the current pass as plain lists, times in seconds."""
        if not self.spans:
            return []
        origin = min(s[4] for s in self.spans)
        return [
            [pass_index, sid, parent, name, (start - origin) / 1e9, (end - start) / 1e9,
             (end - start - child) / 1e9]
            for sid, parent, name, _, start, end, child in self.spans
        ]
