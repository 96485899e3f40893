"""Per-layer tracing of quadcyl from outside the package.

`Tracer.install` wraps the public functions and methods listed in `SPECS`
at every binding: the defining module, every quadcyl module that imported
the name, and the class for methods.  Each call becomes a span (name,
start, end, parent span, pair index) kept in memory; `uninstall` restores
the originals.  A name missing from the package is reported as absent with
the reason, so deleting or merging library code does not break the
benchmark.

Self time is a span's duration minus the time covered by its child spans.
Everything runs in one thread, so spans nest and each layer's self time
bounds what speeding it up can save.

Counters beside calls and self time:

- failed: calls that raised a QuadcylError, also when the caller caught it;
- radicands_paid: height of the returned tower minus that of the tower
  passed in;
- steps / segments: steps or segments of the certificates replayed;
- bytes: characters of the documents written by `dumps`;
- hit_ratio: `sqrt_if_present` calls that found a root, over calls;
- charts_per_call: `LineChart` constructions inside `connect_on_X`, over
  its calls;
- chart_cache_hit_ratio: 1 - `chart_from_descriptor` calls inside
  `verify_path` over the steps it replayed.
"""

import inspect
import json
import sys
import time
from array import array
from dataclasses import dataclass

LEVELS = [str(k) for k in range(10)] + ["10plus"]


@dataclass(frozen=True)
class Spec:
    """One traced name.  `attrs` are the bindings inside `module`: a
    function name, or Class.method; several attributes share one metric
    (the reflected operators).  `extras` names the counters it feeds."""
    name: str
    module: str
    attrs: tuple
    extras: tuple = ()


SPECS = (
    Spec("tower.mul", "tower", ("TowerScalar.__mul__", "TowerScalar.__rmul__"),
         ("levels",)),
    Spec("tower.div", "tower",
         ("TowerScalar.__truediv__", "TowerScalar.__rtruediv__"), ("levels",)),
    Spec("tower.add", "tower", ("TowerScalar.__add__", "TowerScalar.__radd__",
                                "TowerScalar.__sub__", "TowerScalar.__rsub__")),
    Spec("tower.extend", "tower", ("Tower.extend",)),
    Spec("tower.sqrt_if_present", "tower", ("sqrt_if_present",), ("hits",)),
    Spec("projective.rank_of", "projective", ("rank_of",)),
    Spec("projective.det", "projective", ("det",)),
    Spec("projective.nullspace", "projective", ("nullspace",)),
    Spec("projective.mat_inverse", "projective", ("mat_inverse",)),
    Spec("projective.ProjPoint.canonical_coords", "projective",
         ("ProjPoint.canonical_coords",)),
    Spec("projective.point_on_quadric", "projective", ("point_on_quadric",),
         ("failed", "radicands")),
    Spec("charts.build_complement_charts", "charts",
         ("build_complement_charts",), ("radicands",)),
    Spec("charts.Chart.forward", "charts", ("Chart.forward",)),
    Spec("charts.Chart.backward", "charts", ("Chart.backward",)),
    Spec("charts.chart_from_descriptor", "charts", ("chart_from_descriptor",)),
    Spec("navigate.verify_path", "navigate", ("verify_path",),
         ("steps", "cache")),
    Spec("navigate.connect_complement", "navigate", ("connect_complement",)),
    Spec("navigate.connect_on_quadric", "navigate", ("connect_on_quadric",),
         ("failed",)),
    Spec("pencils.connect_on_X", "pencils", ("connect_on_X",),
         ("failed", "charts")),
    Spec("pencils.LineChart.init", "pencils", ("LineChart.__init__",)),
    Spec("pencils.LineChart.degeneracy_form", "pencils",
         ("LineChart.degeneracy_form",)),
    Spec("pencils.LineChart.inverse", "pencils", ("LineChart.inverse",)),
    Spec("pencils.find_line_through", "pencils", ("find_line_through",),
         ("failed", "radicands")),
    Spec("pencils.point_on_intersection", "pencils", ("point_on_intersection",),
         ("radicands",)),
    Spec("pencils.verify_on_X", "pencils", ("verify_on_X",), ("segments",)),
    Spec("serialize.path_to_obj", "serialize", ("path_to_obj",)),
    Spec("serialize.xpath_to_obj", "serialize", ("xpath_to_obj",)),
    Spec("serialize.path_from_obj", "serialize", ("path_from_obj",)),
    Spec("serialize.xpath_from_obj", "serialize", ("xpath_from_obj",)),
    Spec("serialize.loads", "serialize", ("loads",)),
    Spec("serialize.dumps", "serialize", ("dumps",), ("bytes",)),
    Spec("cli.main", "cli", ("main",)),
)

# (suffix, unit, better) of the counter each extra adds to a spec
EXTRA_METRICS = {
    "failed": ("failed", "count", "lower"),
    "radicands": ("radicands_paid", "count", "lower"),
    "steps": ("steps", "count", "lower"),
    "segments": ("segments", "count", "lower"),
    "bytes": ("bytes", "B", "lower"),
    "hits": ("hit_ratio", "ratio", "higher"),
    "charts": ("charts_per_call", "ratio", "lower"),
    "cache": ("chart_cache_hit_ratio", "ratio", "higher"),
}

# extras counted from a call's arguments and result
AFTER_CALL = ("hits", "bytes", "radicands", "steps", "segments")

CONNECT_ON_X = "pencils.connect_on_X"
LINE_CHART = "pencils.LineChart.init"
VERIFY_PATH = "navigate.verify_path"
CHART_FROM_DESCRIPTOR = "charts.chart_from_descriptor"


def metric_table():
    """[(metric name, unit, better)] of every per-layer metric, in order."""
    out = []
    for spec in SPECS:
        if "levels" in spec.extras:
            for what, unit in (("calls", "count"), ("self_s", "s")):
                out.extend(("%s.%s.l%s" % (spec.name, what, lv), unit, "lower")
                           for lv in LEVELS)
            continue
        if spec.name == "tower.extend":
            out.append(("tower.extend.calls", "count", "lower"))
        else:
            out.append((spec.name + ".calls", "count", "lower"))
            out.append((spec.name + ".self_s", "s", "lower"))
        for extra in spec.extras:
            suffix, unit, better = EXTRA_METRICS[extra]
            out.append((spec.name + "." + suffix, unit, better))
    # set by the benchmark: traced over untraced time of the same calls
    out.append(("trace.overhead", "ratio", "lower"))
    return out


def _lookup(modname, attr):
    """(owner, key, original) of one binding, or a reason it is absent."""
    mod = sys.modules.get("quadcyl." + modname)
    if mod is None:
        return None, "module quadcyl.%s does not exist" % modname
    owner, key = mod, attr
    if "." in attr:
        cls_name, key = attr.split(".", 1)
        owner = getattr(mod, cls_name, None)
        if not isinstance(owner, type):
            return None, "quadcyl.%s has no class %s" % (modname, cls_name)
        if key not in owner.__dict__:
            return None, "%s.%s has no method %s" % (modname, cls_name, key)
        return (owner, key, owner.__dict__[key]), None
    if not hasattr(mod, key):
        return None, "quadcyl.%s has no attribute %s" % (modname, key)
    return (mod, key, getattr(mod, key)), None


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self):
        from quadcyl.errors import QuadcylError
        self._error = QuadcylError
        self.names = [spec.name for spec in SPECS]
        # span names: tower operators carry their level bucket
        self.keys = []
        for spec in SPECS:
            if "levels" in spec.extras:
                self.keys.extend("%s@%s" % (spec.name, lv) for lv in LEVELS)
            else:
                self.keys.append(spec.name)
        self._ids = {k: i for i, k in enumerate(self.keys)}
        self.pair = -1
        # span columns
        self.s_name = array("i")
        self.s_parent = array("i")
        self.s_pair = array("i")
        self.s_start = array("d")
        self.s_end = array("d")
        self._stack = []            # [span index, child time]
        self._open = {n: 0 for n in self.names}
        self.calls = {}             # key -> calls; key is name or name@level
        self.self_s = {}
        self.count = {}             # name.counter -> total
        self.absent = {}            # name -> reason
        self.notes = {}             # metric -> why it reads 0
        self._patched = []

    # -- installing --------------------------------------------------------

    def install(self):
        for spec in SPECS:
            reasons = []
            for attr in spec.attrs:
                found, reason = _lookup(spec.module, attr)
                if found is None:
                    reasons.append(reason)
                    continue
                owner, key, orig = found
                wrapper = self._wrap(spec, orig)
                if isinstance(owner, type):
                    self._patch(owner, key, orig, wrapper)
                else:
                    self._rebind_everywhere(orig, wrapper)
            # a merged operator may keep one of its bindings only
            if len(reasons) == len(spec.attrs):
                self.absent[spec.name] = reasons[0]

    def _patch(self, owner, key, orig, wrapper):
        setattr(owner, key, wrapper)
        self._patched.append((owner, key, orig))

    def _rebind_everywhere(self, orig, wrapper):
        for modname, mod in list(sys.modules.items()):
            if modname != "quadcyl" and not modname.startswith("quadcyl."):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self._patch(mod, key, orig, wrapper)

    def uninstall(self):
        for owner, key, orig in reversed(self._patched):
            setattr(owner, key, orig)
        self._patched = []

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, spec, orig):
        name = spec.name
        if "levels" in spec.extras:
            keys = ["%s@%s" % (name, lv) for lv in LEVELS]

            def op(a, b):
                lv = a.level
                lb = getattr(b, "level", 0)
                if lb > lv:
                    lv = lb
                return self._run(name, keys[lv if lv < 10 else 10], orig,
                                 (a, b), {})
            return op
        extras = [e for e in spec.extras if e in AFTER_CALL]
        if not extras:
            return lambda *args, **kwargs: self._run(name, name, orig, args,
                                                     kwargs)
        sig = inspect.signature(orig)

        def func(*args, **kwargs):
            result = self._run(name, name, orig, args, kwargs)
            try:
                bound = sig.bind(*args, **kwargs).arguments
            except TypeError:
                bound = {}
            self._after(name, extras, bound, result)
            return result
        return func

    def _add(self, key, n):
        self.count[key] = self.count.get(key, 0) + n

    def _after(self, name, extras, bound, result):
        """Counters read from a call's arguments and result."""
        for extra in extras:
            if extra == "hits":
                self._add(name + ".hits", result is not None)
            elif extra == "bytes":
                self._add(name + ".bytes", len(result.encode("utf-8")))
            elif extra == "radicands":
                out = result[-1] if isinstance(result, tuple) and result \
                    else None
                if not hasattr(out, "height"):
                    self.notes[name + ".radicands_paid"] = \
                        "the result carries no tower"
                    continue
                passed = bound.get("tower")
                before = passed.height if passed is not None else 0
                self._add(name + ".radicands_paid", out.height - before)
            elif "path" in bound:
                path = bound["path"]
                self._add(name + "." + extra, len(getattr(path, extra)))

    def _run(self, name, key, orig, args, kwargs):
        stack = self._stack
        idx = len(self.s_start)
        self.s_name.append(self._ids[key])
        self.s_parent.append(stack[-1][0] if stack else -1)
        self.s_pair.append(self.pair)
        self.s_end.append(0.0)
        frame = [idx, 0.0]
        self._open[name] += 1
        if name == LINE_CHART and self._open[CONNECT_ON_X]:
            self._add(CONNECT_ON_X + ".charts", 1)
        elif name == CHART_FROM_DESCRIPTOR and self._open[VERIFY_PATH]:
            self._add(VERIFY_PATH + ".chart_builds", 1)
        stack.append(frame)
        start = time.perf_counter()
        self.s_start.append(start)
        try:
            return orig(*args, **kwargs)
        except self._error:
            self._add(name + ".failed", 1)
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            self._open[name] -= 1
            self.s_end[idx] = end
            dur = end - start
            if stack:
                stack[-1][1] += dur
            self.calls[key] = self.calls.get(key, 0) + 1
            self.self_s[key] = self.self_s.get(key, 0.0) + dur - frame[1]

    # -- results -------------------------------------------------------------

    def metrics(self):
        """({metric: value}, {metric: why it reads 0}) over everything
        traced.  Absent names and undefined ratios read 0."""
        values, notes = {}, dict(self.notes)
        for spec in SPECS:
            name = spec.name
            if "levels" in spec.extras:
                for lv in LEVELS:
                    key = "%s@%s" % (name, lv)
                    values["%s.calls.l%s" % (name, lv)] = self.calls.get(key, 0)
                    values["%s.self_s.l%s" % (name, lv)] = \
                        self.self_s.get(key, 0.0)
                continue
            calls = self.calls.get(name, 0)
            values[name + ".calls"] = calls
            if name != "tower.extend":
                values[name + ".self_s"] = self.self_s.get(name, 0.0)
            for extra in spec.extras:
                metric = name + "." + EXTRA_METRICS[extra][0]
                if extra in ("hits", "charts"):
                    values[metric] = self._ratio(
                        self.count.get(name + "." + extra, 0), calls,
                        metric, notes)
                elif extra == "cache":
                    steps = self.count.get(name + ".steps", 0)
                    builds = self.count.get(name + ".chart_builds", 0)
                    values[metric] = self._ratio(steps - builds, steps,
                                                 metric, notes)
                else:
                    values[metric] = self.count.get(metric, 0)
        for name, reason in self.absent.items():
            for metric in values:
                if metric.startswith(name + "."):
                    notes[metric] = "absent: " + reason
        return values, notes

    @staticmethod
    def _ratio(num, den, metric, notes):
        if not den:
            notes[metric] = "undefined: no calls"
            return 0
        return num / den

    def never_called(self):
        """Traced names present in the package that recorded no call."""
        called = {key.split("@")[0] for key in self.calls}
        return [n for n in self.names if n not in self.absent and
                n not in called]

    def self_time_by_root(self, keys):
        """{top-level span: self time of its spans named in keys}."""
        wanted = {self._ids[k] for k in keys}
        n = len(self.s_start)
        child = [0.0] * n
        root = [0] * n
        for i in range(n):
            p = self.s_parent[i]
            root[i] = i if p < 0 else root[p]
            if p >= 0:
                child[p] += self.s_end[i] - self.s_start[i]
        out = {}
        for i in range(n):
            if self.s_name[i] in wanted:
                own = self.s_end[i] - self.s_start[i] - child[i]
                out[root[i]] = out.get(root[i], 0.0) + own
        return out

    def roots(self):
        """Indices and durations of the top-level spans, in call order."""
        return [(i, self.s_end[i] - self.s_start[i])
                for i in range(len(self.s_start)) if self.s_parent[i] < 0]

    def write_spans(self, path):
        """Spans as text: a JSON header with the name table, then one
        "name parent pair start end" row per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.keys,
                                 "columns": ["name", "parent", "pair",
                                             "start", "end"]}) + "\n")
            for row in zip(self.s_name, self.s_parent, self.s_pair,
                           self.s_start, self.s_end):
                fh.write("%d %d %d %.9f %.9f\n" % row)
