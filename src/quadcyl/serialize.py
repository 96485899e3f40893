"""Text formats for forms, points, lines, pencils, and certificates.

Everything is UTF-8 JSON built from exact scalar serializations: rationals
as "p/q" strings, extension elements a + b*sqrt(d_k) as nested
{"a", "b", "level": k} objects, and a radicand list d_1, ..., d_h in
adjunction order as the context header of every document; a node names
its radicand only by its level in that list.
Writers emit canonical text (sorted keys, fixed indentation) so identical
inputs give byte-identical files; parsers reject anything that would not
round-trip, which is what makes certificates auditable by diff.

A certificate (format version 3) is a header {kind, version, problem,
size, radicands, from, to} plus either {form, steps} or {beta, gamma,
segments}; a segment is {line: {v1, v2}, steps}, a step is {chart, entry,
target, exit} and a step chart is {dist, dep, matrix}.  Every one of these
keys is read and used by the verifier, and the certificate parsers refuse
any object that has another key or lacks one of them.

A parser takes an optional base tower.  When given, the document's
radicand list must extend the base's list prefix-exactly, so a point or a
certificate is always interpreted in a field compatible with the form or
pencil file it accompanies.
"""

import json

from .errors import InputFormatError, TowerError
from .navigate import MovePath, MoveStep
from .pencils import Line, Pencil, XPath, XSegment
from .projective import ProjPoint, QuadForm, vec
from .tower import (
    DEFAULT_TOWER_LIMIT, Tower, scalar_from_obj, scalar_to_obj,
    tower_from_obj, tower_to_obj,
)

FORMAT_VERSION = 3


def dumps(obj) -> str:
    """Canonical document text: sorted keys, two-space indent, newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError("not valid JSON: %s" % exc) from None
    except RecursionError:
        raise InputFormatError("document is nested too deeply") from None


def _require(obj, key, kind):
    if not isinstance(obj, dict):
        raise InputFormatError("%s document must be an object" % kind)
    if key not in obj:
        raise InputFormatError("%s document is missing %r" % (kind, key))
    return obj[key]


def _check_kind(obj, kind):
    got = _require(obj, "kind", kind)
    if got != kind:
        raise InputFormatError("expected a %s document, got %r" % (kind, got))


def _check_keys(obj, keys, kind):
    """Refuse an object whose keys are not exactly keys, so a certificate
    carries no field that the reader skips."""
    if not isinstance(obj, dict):
        raise InputFormatError("%s must be an object" % kind)
    if obj.keys() != keys:
        missing = keys - obj.keys()
        if missing:
            raise InputFormatError("%s is missing %r" % (kind, min(missing)))
        raise InputFormatError("%s has the unknown key %r"
                               % (kind, min(obj.keys() - keys)))


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _size_of(obj, kind) -> int:
    n = _require(obj, "size", kind)
    if not _is_int(n) or n < 1:
        raise InputFormatError("%s size must be a positive integer" % kind)
    return n


def _tower_of(obj, kind, base, limit) -> Tower:
    rads = obj.get("radicands", [])
    if not isinstance(rads, list):
        raise InputFormatError("%s radicand header must be a list" % kind)
    return tower_from_obj(rads, limit, base=base)


def _coords_to_obj(coords) -> list:
    return [scalar_to_obj(c) for c in coords]


def _coords_from_obj(objs, tower, what):
    if not isinstance(objs, list) or not objs:
        raise InputFormatError("%s must be a nonempty list" % what)
    return vec(scalar_from_obj(c, tower) for c in objs)


def _point_to_obj(p: ProjPoint) -> list:
    return _coords_to_obj(p.canonical_coords())


def _point_from_obj(objs, tower, size, what) -> ProjPoint:
    cs = _coords_from_obj(objs, tower, what)
    if len(cs) != size:
        raise InputFormatError(
            "%s has %d coordinates, expected %d" % (what, len(cs), size))
    try:
        return ProjPoint(cs)
    except TowerError:
        raise InputFormatError("%s is the zero vector" % what) from None


def matrix_to_flat(rows) -> list:
    return [scalar_to_obj(c) for row in rows for c in row]


def _matrix_from_flat(objs, tower, size, what):
    if not isinstance(objs, list) or len(objs) != size * size:
        raise InputFormatError(
            "%s must hold %d row-major entries" % (what, size * size))
    cells = [scalar_from_obj(c, tower) for c in objs]
    return tuple(tuple(cells[i * size:(i + 1) * size]) for i in range(size))


# ---------------------------------------------------------------------------
# forms and points


def form_to_obj(form: QuadForm, tower: Tower) -> dict:
    return {
        "kind": "form",
        "size": form.size,
        "radicands": tower_to_obj(tower),
        "matrix": matrix_to_flat(form.matrix),
    }


def form_from_obj(obj, base: Tower | None = None,
                  limit: int = DEFAULT_TOWER_LIMIT):
    """Parse a form document into (QuadForm, tower)."""
    _check_kind(obj, "form")
    size = _size_of(obj, "form")
    tower = _tower_of(obj, "form", base, limit)
    rows = _matrix_from_flat(_require(obj, "matrix", "form"),
                             tower, size, "form matrix")
    try:
        return QuadForm(rows), tower
    except TowerError as exc:
        raise InputFormatError("bad form matrix: %s" % exc) from None


def point_to_obj(p: ProjPoint, tower: Tower) -> dict:
    return {
        "kind": "point",
        "size": len(p.coords),
        "radicands": tower_to_obj(tower),
        "coords": _point_to_obj(p),
    }


def point_from_obj(obj, base: Tower | None = None,
                   limit: int = DEFAULT_TOWER_LIMIT):
    _check_kind(obj, "point")
    size = _size_of(obj, "point")
    tower = _tower_of(obj, "point", base, limit)
    pt = _point_from_obj(_require(obj, "coords", "point"),
                         tower, size, "point")
    return pt, tower


# ---------------------------------------------------------------------------
# pencils and lines


def pencil_to_obj(p: Pencil, tower: Tower) -> dict:
    return {
        "kind": "pencil",
        "size": p.size,
        "radicands": tower_to_obj(tower),
        "beta": matrix_to_flat(p.beta.matrix),
        "gamma": matrix_to_flat(p.gamma.matrix),
    }


def pencil_from_obj(obj, base: Tower | None = None,
                    limit: int = DEFAULT_TOWER_LIMIT):
    _check_kind(obj, "pencil")
    size = _size_of(obj, "pencil")
    tower = _tower_of(obj, "pencil", base, limit)
    b = _matrix_from_flat(_require(obj, "beta", "pencil"),
                          tower, size, "first pencil matrix")
    g = _matrix_from_flat(_require(obj, "gamma", "pencil"),
                          tower, size, "second pencil matrix")
    try:
        return Pencil(QuadForm(b), QuadForm(g)), tower
    except (TowerError, InputFormatError) as exc:
        raise InputFormatError("bad pencil: %s" % exc) from None


def _span_to_obj(line: Line) -> dict:
    return {"v1": _coords_to_obj(line.v1), "v2": _coords_to_obj(line.v2)}


def _span_from_obj(obj, tower, size, kind) -> Line:
    v1 = _point_from_obj(_require(obj, "v1", kind), tower, size,
                         "first spanning point")
    v2 = _point_from_obj(_require(obj, "v2", kind), tower, size,
                         "second spanning point")
    return Line(v1.coords, v2.coords)


def line_to_obj(line: Line, tower: Tower) -> dict:
    return {"kind": "line", "size": len(line.v1),
            "radicands": tower_to_obj(tower), **_span_to_obj(line)}


def line_from_obj(obj, base: Tower | None = None,
                  limit: int = DEFAULT_TOWER_LIMIT):
    """Parse a line document into (Line, tower).

    Only the text format is checked here; whether the span really lies
    inside a given intersection is a question about a pencil, so callers
    revalidate with Line.through against the pencil they pair it with.
    """
    _check_kind(obj, "line")
    size = _size_of(obj, "line")
    tower = _tower_of(obj, "line", base, limit)
    return _span_from_obj(obj, tower, size, "line"), tower


# ---------------------------------------------------------------------------
# move certificates

_PROBLEMS = ("complement", "quadric")
_HEADER_KEYS = frozenset(("kind", "version", "problem", "size", "radicands",
                          "from", "to"))
_PATH_KEYS = _HEADER_KEYS | {"form", "steps"}
_XPATH_KEYS = _HEADER_KEYS | {"beta", "gamma", "segments"}
_SEGMENT_KEYS = frozenset(("line", "steps"))
_SPAN_KEYS = frozenset(("v1", "v2"))
_STEP_KEYS = frozenset(("chart", "entry", "target", "exit"))
_CHART_KEYS = frozenset(("dist", "dep", "matrix"))


def _descriptor_to_obj(desc: dict) -> dict:
    return {"dist": desc["dist"], "dep": desc["dep"],
            "matrix": matrix_to_flat(desc["matrix"])}


def _descriptor_from_obj(obj, tower, size) -> dict:
    """A step chart {dist, dep, matrix}; the matrix is size x size, size
    being that of the step's points."""
    _check_keys(obj, _CHART_KEYS, "step chart")
    for key in ("dist", "dep"):
        if not _is_int(obj[key]):
            raise InputFormatError("step chart %s must be an integer" % key)
    rows = _matrix_from_flat(obj["matrix"], tower, size, "chart matrix")
    return {"dist": obj["dist"], "dep": obj["dep"],
            "matrix": [list(row) for row in rows]}


def _step_to_obj(step: MoveStep) -> dict:
    return {
        "chart": _descriptor_to_obj(step.chart),
        "entry": _point_to_obj(step.entry),
        "target": _coords_to_obj(step.target),
        "exit": _point_to_obj(step.exit),
    }


def _step_from_obj(obj, tower, size) -> MoveStep:
    _check_keys(obj, _STEP_KEYS, "step")
    chart = _descriptor_from_obj(obj["chart"], tower, size)
    entry = _point_from_obj(obj["entry"], tower, size, "step entry")
    exit_p = _point_from_obj(obj["exit"], tower, size, "step exit")
    target = obj["target"]
    if not isinstance(target, list):
        raise InputFormatError("step target must be a list")
    return MoveStep(chart, entry,
                    tuple(scalar_from_obj(c, tower) for c in target), exit_p)


def _header_to_obj(path, problem: str, size: int) -> dict:
    """The fields every certificate shares; path is a MovePath or XPath."""
    return {
        "kind": "certificate",
        "version": FORMAT_VERSION,
        "problem": problem,
        "size": size,
        "radicands": tower_to_obj(path.tower),
        "from": _point_to_obj(path.start),
        "to": _point_to_obj(path.end),
    }


def _header_from_obj(obj, problems, keys, base, limit):
    """(problem, size, tower, start, end) of a certificate whose keys must
    be exactly keys."""
    _check_kind(obj, "certificate")
    version = _require(obj, "version", "certificate")
    if version != FORMAT_VERSION:
        raise InputFormatError(
            "unsupported certificate version %r; this reader takes "
            "version %d" % (version, FORMAT_VERSION))
    problem = _require(obj, "problem", "certificate")
    if problem not in problems:
        raise InputFormatError("unknown problem kind %r" % problem)
    _check_keys(obj, keys, "certificate")
    size = _size_of(obj, "certificate")
    tower = _tower_of(obj, "certificate", base, limit)
    start = _point_from_obj(obj["from"], tower, size, "start point")
    end = _point_from_obj(obj["to"], tower, size, "end point")
    return problem, size, tower, start, end


def _list_of(obj, key, kind="certificate"):
    items = _require(obj, key, kind)
    if not isinstance(items, list):
        raise InputFormatError("%s %s must be a list" % (kind, key))
    return items


def path_to_obj(path: MovePath) -> dict:
    obj = _header_to_obj(path, path.problem, path.form.size)
    obj["form"] = matrix_to_flat(path.form.matrix)
    obj["steps"] = [_step_to_obj(s) for s in path.steps]
    return obj


def path_from_obj(obj, base: Tower | None = None,
                  limit: int = DEFAULT_TOWER_LIMIT) -> MovePath:
    """Parse a fiber-move certificate.  The scalars are interpreted in the
    tower named by the radicand header, which must extend base when one is
    given; nothing about the moves themselves is checked here, that is
    verify_path's job."""
    problem, size, tower, start, end = _header_from_obj(
        obj, _PROBLEMS, _PATH_KEYS, base, limit)
    rows = _matrix_from_flat(obj["form"], tower, size, "certificate form")
    try:
        form = QuadForm(rows)
    except TowerError as exc:
        raise InputFormatError("bad certificate form: %s" % exc) from None
    steps = tuple(_step_from_obj(s, tower, size)
                  for s in _list_of(obj, "steps"))
    return MovePath(problem, form, start, end, steps, tower)


# ---------------------------------------------------------------------------
# intersection certificates: the same header, the pencil, and per segment a
# line inside X plus the complement steps made in its chart's image, all in
# the one tower of the certificate


def _segment_to_obj(seg: XSegment) -> dict:
    return {"line": _span_to_obj(seg.line),
            "steps": [_step_to_obj(s) for s in seg.steps]}


def _segment_from_obj(obj, tower, size) -> XSegment:
    _check_keys(obj, _SEGMENT_KEYS, "segment")
    _check_keys(obj["line"], _SPAN_KEYS, "segment line")
    line = _span_from_obj(obj["line"], tower, size, "segment line")
    steps = _list_of(obj, "steps", "segment")
    if not steps:
        raise InputFormatError("segment steps must not be empty")
    return XSegment(line,
                    tuple(_step_from_obj(s, tower, size - 2) for s in steps))


def xpath_to_obj(path: XPath) -> dict:
    obj = _header_to_obj(path, "ci", path.pencil.size)
    obj["beta"] = matrix_to_flat(path.pencil.beta.matrix)
    obj["gamma"] = matrix_to_flat(path.pencil.gamma.matrix)
    obj["segments"] = [_segment_to_obj(s) for s in path.segments]
    return obj


def xpath_from_obj(obj, base: Tower | None = None,
                   limit: int = DEFAULT_TOWER_LIMIT) -> XPath:
    _, size, tower, start, end = _header_from_obj(
        obj, ("ci",), _XPATH_KEYS, base, limit)
    b = _matrix_from_flat(obj["beta"], tower, size, "first pencil matrix")
    g = _matrix_from_flat(obj["gamma"], tower, size, "second pencil matrix")
    try:
        pencil = Pencil(QuadForm(b), QuadForm(g))
    except (TowerError, InputFormatError) as exc:
        raise InputFormatError("bad certificate pencil: %s" % exc) from None
    segments = tuple(_segment_from_obj(s, tower, size)
                     for s in _list_of(obj, "segments"))
    return XPath(pencil, start, end, segments, tower)


def certificate_from_obj(obj, base: Tower | None = None,
                         limit: int = DEFAULT_TOWER_LIMIT):
    """Parse either certificate flavor, dispatching on the problem kind."""
    problem = _require(obj, "problem", "certificate")
    if problem == "ci":
        return xpath_from_obj(obj, base, limit)
    return path_from_obj(obj, base, limit)
