"""Span tracing of the fishburn layers, installed from outside the package.

Every module binding of each traced function is replaced by a wrapper,
including the copies that modules import by name and the function objects
held in module-level dict tables (harness._SEQ_MARKERS, cli._BIJECTION_MAPS,
...).  Patching only the defining module would miss those copies.

Spans are aggregated in memory per name: calls, busy seconds (outermost
activations only, so recursion is not counted twice) and self seconds
(duration minus the time covered by traced child spans).  The enumeration
generators are timed inside each `next`, so their time is attributed to
seqcore even though the caller drives the loop.  Spans of the harness and
cli layers are also kept one by one, with their parent, and written out with
the rest when the worker exits.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

# layer (module) -> public functions whose calls are traced
TRACED = {
    "seqcore": ("enumerate_class", "contains_bivincular_A",
                "contains_bivincular_B"),
    "stats": ("scalar_stats", "set_stats", "perm_stats", "ealm", "mpair",
              "zpair", "mpos", "zpos"),
    "bijections": ("lehmer_code", "bv_code", "bv_decode", "beta", "beta_inv",
                   "gamma", "gamma_inv", "psi", "psi_inv", "phi", "phi_inv",
                   "upsilon"),
    "decomp": ("classify", "phi_P", "phi_P_inv", "xi_S4", "xi_S4_inv",
               "s2_reduce", "s2_insert", "s3_reduce", "s3_insert",
               "ealm_shift", "psi_F", "psi_F_inv", "mpair_shift", "vartheta",
               "vartheta_inv", "phi_G", "phi_G_inv", "zpair_shift", "theta_R",
               "theta_R_inv"),
    "genfun": ("fishburn_series", "series_G", "series_zeromax",
               "series_asczero", "eval_gf", "check_case_identity"),
    "harness": ("dist_table", "run_check", "spot_check_cache"),
    "cli": ("main",),
}
# TruncSeries methods, traced on the class under these short names
SERIES_METHODS = {"mul": "__mul__", "inverse": "inverse",
                  "truediv": "__truediv__"}

MODULES = ("fishburn", "fishburn.seqcore", "fishburn.stats",
           "fishburn.bijections", "fishburn.decomp", "fishburn.genfun",
           "fishburn.harness", "fishburn.cli")

_ENUM = "seqcore.enumerate_class"
_DIST = "harness.dist_table"
_KEPT = ("harness", "cli")


class _Record:
    """Running totals of the spans of one name."""
    __slots__ = ("name", "calls", "busy", "self_s", "active", "kept")

    def __init__(self, name):
        self.name = name
        self.calls = 0
        self.busy = 0.0
        self.self_s = 0.0
        self.active = 0
        self.kept = name.startswith(_KEPT)


class _Frame:
    __slots__ = ("rec", "start", "child", "miss", "index")

    def __init__(self, rec, start):
        self.rec = rec
        self.start = start
        self.child = 0.0
        self.miss = False
        self.index = -1


class Tracer:
    """Collects spans in memory; `install` patches the imported package."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.stack = []
        self.records = {}
        self.counts = Counter()
        self.spans = []  # [name, start, end, parent index] of _KEPT layers
        self.bindings = Counter()
        self.missing = []

    def record(self, name) -> _Record:
        rec = self.records.get(name)
        if rec is None:
            rec = self.records[name] = _Record(name)
        return rec

    # --- spans -------------------------------------------------------------

    def _open(self, rec):
        frame = _Frame(rec, time.perf_counter())
        if rec.kept:
            parent = next((f.index for f in reversed(self.stack)
                           if f.index >= 0), -1)
            frame.index = len(self.spans)
            self.spans.append([rec.name, frame.start, None, parent])
        rec.active += 1
        self.stack.append(frame)
        return frame

    def _close(self, frame):
        end = time.perf_counter()
        stack = self.stack
        stack.pop()
        duration = end - frame.start
        rec = frame.rec
        rec.calls += 1
        rec.self_s += duration - frame.child
        rec.active -= 1
        if not rec.active:
            rec.busy += duration
        if stack:
            stack[-1].child += duration
        if frame.index >= 0:
            self.spans[frame.index][2] = end
        return duration

    def _wrap(self, fn, name, label=None):
        tracer, rec = self, self.record(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._open(tracer.record(label(args)) if label else rec)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(frame)
        return traced

    # --- layer-specific wrappers ---------------------------------------------

    def _wrap_enumerate(self, fn):
        tracer, rec = self, self.record(_ENUM)

        @functools.wraps(fn)
        def traced(class_id, *args, **kwargs):
            for frame in reversed(tracer.stack):
                if frame.rec.name == _DIST:
                    frame.miss = True  # this table is being computed
                    break
            frame = tracer._open(rec)
            try:
                stream = fn(class_id, *args, **kwargs)
            finally:
                tracer._close(frame)
            return tracer._timed_stream(stream, f"{_ENUM}.{class_id.name}")
        return traced

    def _timed_stream(self, stream, name):
        # the span of each `next` is inlined and its frame reused: this runs
        # once per enumerated object, so it must stay cheap, and its own
        # cost must fall outside the timed interval
        rec = self.record(name)
        stack, clock = self.stack, time.perf_counter
        frame = _Frame(rec, 0.0)
        objects = 0
        try:
            while True:
                frame.child = 0.0
                stack.append(frame)
                start = clock()
                try:
                    obj = next(stream)
                except StopIteration:
                    return
                finally:
                    duration = clock() - start
                    stack.pop()
                    rec.calls += 1
                    rec.busy += duration  # a stream never nests in itself
                    rec.self_s += duration - frame.child
                    if stack:
                        stack[-1].child += duration
                objects += 1
                yield obj
        finally:
            self.counts[name + ".objects"] += objects

    def _wrap_contains(self, fn):
        """Counted, not timed: the test runs per permutation, and its time
        stays with the enumerator or the map that calls it."""
        tracer = self

        @functools.wraps(fn)
        def traced(p):
            stack = tracer.stack
            if stack and stack[-1].rec.name.startswith(_ENUM + "."):
                tracer.counts["seqcore.perm_avoid.tests"] += 1
            return fn(p)
        return traced

    def _wrap_dist_table(self, fn):
        tracer, rec = self, self.record(_DIST)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._open(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = tracer._close(frame)
                kind = "miss" if frame.miss else "hit"
                tracer.counts[f"{_DIST}.{kind}_count"] += 1
                tracer.counts[f"{_DIST}.{kind}_s"] += duration
        return traced

    # --- installation ----------------------------------------------------------

    def install(self):
        """Replace every binding of the traced functions in the package."""
        import importlib
        modules = [importlib.import_module(m) for m in MODULES]
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        replace = {}
        for layer, names in TRACED.items():
            home = by_name[layer]
            for fname in names:
                fn = getattr(home, fname, None)
                if fn is None:
                    self.missing.append(f"{layer}.{fname}")
                    continue
                replace[id(fn)] = (fn, self._wrapper(layer, fname, fn))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("__"):
                    continue
                new = self._swap(value, replace)
                if new is not value:
                    setattr(module, attr, new)
        series = by_name["genfun"].TruncSeries
        for short, attr in SERIES_METHODS.items():
            name = f"genfun.TruncSeries.{short}"
            setattr(series, attr, self._wrap(getattr(series, attr), name))
            self.bindings[name] += 1

    def _wrapper(self, layer, fname, fn):
        name = f"{layer}.{fname}"
        if name == _ENUM:
            return self._wrap_enumerate(fn)
        if name == _DIST:
            return self._wrap_dist_table(fn)
        if fname.startswith("contains_bivincular_"):
            return self._wrap_contains(fn)
        if name == "harness.run_check":
            return self._wrap(fn, name, lambda args: f"{name}.{args[0]}")
        return self._wrap(fn, name)

    def _swap(self, value, replace, depth=0):
        """Value with traced functions swapped in, two containers deep
        (a dict of tuples holding functions, as in the map tables)."""
        hit = replace.get(id(value))
        if hit is not None and hit[0] is value:
            self.bindings[_label(value)] += 1
            return hit[1]
        if depth == 2:
            return value
        if isinstance(value, dict):
            for key, item in list(value.items()):
                new = self._swap(item, replace, depth + 1)
                if new is not item:
                    value[key] = new
        elif isinstance(value, tuple):
            new = tuple(self._swap(item, replace, depth + 1) for item in value)
            if any(a is not b for a, b in zip(new, value)):
                return new
        return value

    # --- results ---------------------------------------------------------------

    def summary(self) -> dict:
        return {
            "functions": {r.name: {"calls": r.calls, "busy_s": r.busy,
                                   "self_s": r.self_s}
                          for r in sorted(self.records.values(),
                                          key=lambda r: r.name)},
            "counts": dict(self.counts),
            "bindings": dict(self.bindings),
            "missing": self.missing,
            "spans": [[name, start - self.origin, end - self.origin, parent]
                      for name, start, end, parent in self.spans],
        }


def _label(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
