"""Text formats for forms, points, lines, pencils, and certificates.

Everything is UTF-8 JSON built from exact scalar serializations: rationals
as "p/q" strings, extension elements a + b*sqrt(d_k) as nested
{"a", "b", "level": k} objects, and a radicand list d_1, ..., d_h in
adjunction order as the context header of every document; a node names
its radicand only by its level in that list.
Writers emit canonical compact text (sorted keys) so identical inputs give
byte-identical files; parsers reject anything that would not round-trip,
so certificates are auditable by diff (of `python -m json.tool` output).

Every document is the envelope {kind, size, radicands} plus the body of
its kind: a form adds {matrix}, a point {coords}, a pencil {beta, gamma}
and a line {v1, v2}.  One writer (_envelope) builds the envelope and one
reader (_open) checks it.  A parser refuses any object, a whole document
or one inside a certificate, that lacks one of its keys (radicands
included) or carries another, so no document keeps a key its reader skips.

A certificate (format version 3) is the envelope plus {version, problem,
from, to} and either {form, steps} or {beta, gamma, segments}; a segment
is {line: {v1, v2}, steps}, a step is {chart, entry, target, exit} and a
step chart is {dist, dep, matrix}.  The verifier uses every one of these
keys.  Step entries and exits are written as computed, any nonzero
representative (an exit is F u with u_d = 1, which replays without an
inverse); from, to and point documents are written canonically, first
nonzero coordinate 1.  Parsers accept any nonzero representative.

A parser takes an optional base tower (default: Tower.rationals()).  The
document's radicand list must extend the base's list prefix-exactly, so a
point or a certificate is always interpreted in a field compatible with
the form or pencil file it accompanies, and the base's height limit bounds
the document's tower.  The certificate writers take the same base, which
must lie on the path tower's chain: a header is base's radicands, then
those of the path's tower that a written scalar or a kept radicand uses,
renumbered in order.
"""

import json
from functools import partial

from .errors import InputFormatError, TowerError
from .navigate import MovePath, MoveStep
from .pencils import Line, Pencil, XPath, XSegment
from .projective import ProjPoint, QuadForm, vec
from .tower import (
    Tower, _scalar_from_obj, _scalar_to_obj, deeper_tower, parse_rational,
    scalar_to_obj, tower_from_obj, tower_to_obj,
)

FORMAT_VERSION = 3


def dumps(obj) -> str:
    """Canonical text: compact, sorted keys, newline (json's C encoder)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def loads(text: str):
    try:
        return json.loads(text)
    except ValueError as exc:
        # a JSONDecodeError, or an integer literal past Python's limit on
        # digits converted from text
        raise InputFormatError("not valid JSON: %s" % exc) from None
    except RecursionError:
        raise InputFormatError("document is nested too deeply") from None


def _check_keys(obj, keys, kind):
    """Refuse an object whose keys are not exactly keys, so a document
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


_ENVELOPE = frozenset(("kind", "size", "radicands"))


def _envelope(kind: str, size: int, radicands: list, **body) -> dict:
    """A document of this kind: the envelope over radicands, then body."""
    return {"kind": kind, "size": size, "radicands": radicands, **body}


def _open(obj, kind, keys, base):
    """(size, tower, read) of a document of this kind whose keys are
    exactly the envelope's and keys; its radicand list must extend base,
    and read is its scalar reader."""
    what = kind + " document"
    # a missing kind is named by the key check
    if isinstance(obj, dict) and obj.get("kind", kind) != kind:
        raise InputFormatError("expected a %s, got %r" % (what, obj["kind"]))
    _check_keys(obj, _ENVELOPE | keys, what)
    size = obj["size"]
    if not _is_int(size) or size < 1:
        raise InputFormatError("%s size must be a positive integer" % kind)
    rads = obj["radicands"]
    if not isinstance(rads, list):
        raise InputFormatError("%s radicand header must be a list" % kind)
    tower = tower_from_obj(rads, base)
    return size, tower, _reader(tower)


def _reader(tower):
    """The scalar parser of one document, over its tower.  Step matrices
    repeat a few rational literals ("0/1", "1/1") thousands of times, as
    whole scalars and as the leaves of nodes, so each distinct literal is
    parsed once per document into its scalar; the first sight of a
    literal still validates it.  The memo lives as long as the parse that
    made the reader."""
    literals = {}

    def read(obj):
        if obj.__class__ is not str:
            return _scalar_from_obj(obj, tower, literals)
        s = literals.get(obj)
        if s is None:
            s = literals[obj] = parse_rational(obj)
        return s
    return read


def _coords_to_obj(coords, write=scalar_to_obj) -> list:
    return [write(c) for c in coords]


def _point_to_obj(p: ProjPoint, write=scalar_to_obj) -> list:
    return _coords_to_obj(p.canonical_coords(), write)


def _point_from_obj(objs, read, size, what) -> ProjPoint:
    if not isinstance(objs, list) or not objs:
        raise InputFormatError("%s must be a nonempty list" % what)
    if len(objs) != size:
        raise InputFormatError(
            "%s has %d coordinates, expected %d" % (what, len(objs), size))
    cs = vec(read(c) for c in objs)
    try:
        return ProjPoint(cs)
    except TowerError:
        raise InputFormatError("%s is the zero vector" % what) from None


def _list_of(items, what) -> list:
    if not isinstance(items, list):
        raise InputFormatError("%s must be a list" % what)
    return items


def matrix_to_flat(rows, write=scalar_to_obj) -> list:
    return [write(c) for row in rows for c in row]


def _matrix_from_flat(objs, read, size, what):
    if not isinstance(objs, list) or len(objs) != size * size:
        raise InputFormatError(
            "%s must hold %d x %d row-major entries" % (what, size, size))
    cells = [read(c) for c in objs]
    return tuple(tuple(cells[i * size:(i + 1) * size]) for i in range(size))


def _form_from_flat(objs, read, size, what) -> QuadForm:
    rows = _matrix_from_flat(objs, read, size, what)
    try:
        return QuadForm(rows)
    except TowerError as exc:
        raise InputFormatError("bad %s: %s" % (what, exc)) from None


# ---------------------------------------------------------------------------
# forms and points


def form_to_obj(form: QuadForm, tower: Tower) -> dict:
    return _envelope("form", form.size, tower_to_obj(tower),
                     matrix=matrix_to_flat(form.matrix))


def form_from_obj(obj, base: Tower | None = None):
    """Parse a form document into (QuadForm, tower)."""
    size, tower, read = _open(obj, "form", {"matrix"}, base)
    return _form_from_flat(obj["matrix"], read, size, "form matrix"), tower


def point_to_obj(p: ProjPoint, tower: Tower) -> dict:
    return _envelope("point", len(p.coords), tower_to_obj(tower),
                     coords=_point_to_obj(p))


def point_from_obj(obj, base: Tower | None = None):
    size, tower, read = _open(obj, "point", {"coords"}, base)
    return _point_from_obj(obj["coords"], read, size, "point"), tower


# ---------------------------------------------------------------------------
# pencils and lines


def _pencil_body(p: Pencil, write=scalar_to_obj) -> dict:
    return {"beta": matrix_to_flat(p.beta.matrix, write),
            "gamma": matrix_to_flat(p.gamma.matrix, write)}


def _pencil_from_body(obj, read, size, what) -> Pencil:
    b = _matrix_from_flat(obj["beta"], read, size, "first pencil matrix")
    g = _matrix_from_flat(obj["gamma"], read, size, "second pencil matrix")
    try:
        return Pencil(QuadForm(b), QuadForm(g))
    except (TowerError, InputFormatError) as exc:
        raise InputFormatError("bad %s: %s" % (what, exc)) from None


def pencil_to_obj(p: Pencil, tower: Tower) -> dict:
    return _envelope("pencil", p.size, tower_to_obj(tower), **_pencil_body(p))


def pencil_from_obj(obj, base: Tower | None = None):
    size, tower, read = _open(obj, "pencil", {"beta", "gamma"}, base)
    return _pencil_from_body(obj, read, size, "pencil"), tower


def _span_to_obj(line: Line, write=scalar_to_obj) -> dict:
    return {"v1": _coords_to_obj(line.v1, write),
            "v2": _coords_to_obj(line.v2, write)}


def _span_from_obj(obj, read, size) -> Line:
    """The line of an object whose keys were checked to hold v1 and v2."""
    v1 = _point_from_obj(obj["v1"], read, size, "first spanning point")
    v2 = _point_from_obj(obj["v2"], read, size, "second spanning point")
    return Line(v1.coords, v2.coords)


def line_to_obj(line: Line, tower: Tower) -> dict:
    return _envelope("line", len(line.v1), tower_to_obj(tower),
                     **_span_to_obj(line))


def line_from_obj(obj, base: Tower | None = None):
    """Parse a line document into (Line, tower).

    Only the text format is checked here; whether the span really lies
    inside a given intersection is a question about a pencil, so callers
    revalidate against the pencil they pair it with, by Line.through or
    by building the line's chart.
    """
    size, tower, read = _open(obj, "line", _SPAN_KEYS, base)
    return _span_from_obj(obj, read, size), tower


# ---------------------------------------------------------------------------
# move certificates

_PROBLEMS = ("complement", "quadric")
_HEADER_KEYS = frozenset(("version", "problem", "from", "to"))
_PATH_KEYS = _HEADER_KEYS | {"form", "steps"}
_XPATH_KEYS = _HEADER_KEYS | {"beta", "gamma", "segments"}
_SEGMENT_KEYS = frozenset(("line", "steps"))
_SPAN_KEYS = frozenset(("v1", "v2"))
_STEP_KEYS = frozenset(("chart", "entry", "target", "exit"))
_CHART_KEYS = frozenset(("dist", "dep", "matrix"))


def _descriptor_to_obj(desc: dict, write) -> dict:
    return {"dist": desc["dist"], "dep": desc["dep"],
            "matrix": matrix_to_flat(desc["matrix"], write)}


def _descriptor_from_obj(obj, read, size) -> dict:
    """A step chart {dist, dep, matrix}; the matrix is size x size, size
    being that of the step's points."""
    _check_keys(obj, _CHART_KEYS, "step chart")
    for key in ("dist", "dep"):
        if not _is_int(obj[key]):
            raise InputFormatError("step chart %s must be an integer" % key)
    rows = _matrix_from_flat(obj["matrix"], read, size, "chart matrix")
    return {"dist": obj["dist"], "dep": obj["dep"],
            "matrix": [list(row) for row in rows]}


def _step_to_obj(step: MoveStep, write) -> dict:
    return {
        "chart": _descriptor_to_obj(step.chart, write),
        "entry": _coords_to_obj(step.entry.coords, write),
        "target": _coords_to_obj(step.target, write),
        "exit": _coords_to_obj(step.exit.coords, write),
    }


def _step_from_obj(obj, read, size) -> MoveStep:
    _check_keys(obj, _STEP_KEYS, "step")
    chart = _descriptor_from_obj(obj["chart"], read, size)
    entry = _point_from_obj(obj["entry"], read, size, "step entry")
    exit_p = _point_from_obj(obj["exit"], read, size, "step exit")
    target = tuple(read(c) for c in _list_of(obj["target"], "step target"))
    return MoveStep(chart, entry, target, exit_p)


def _header_to_obj(path, base, problem: str, size: int, body) -> dict:
    """The certificate of path (a MovePath or XPath) over base: the header
    every one shares, then body(write), whose scalars write writes."""
    base = Tower.rationals() if base is None else base
    tower, nodes = deeper_tower(path.tower, base), []
    write = partial(_scalar_to_obj, nodes=nodes)
    doc = {"version": FORMAT_VERSION, "problem": problem,
           "from": _point_to_obj(path.start, write),
           "to": _point_to_obj(path.end, write), **body(write)}
    used = set(range(1, base.height + 1)).union(n["level"] for n in nodes)
    rads = []
    for j in range(tower.height, 0, -1):  # d_j uses levels below j only
        if j in used:
            k = len(nodes)
            rads.append(write(tower.floor(j).radicand))
            used.update(n["level"] for n in nodes[k:])
    if len(rads) < tower.height:  # a level of base keeps its number
        new = dict(zip(sorted(used), range(1, len(rads) + 1)))
        for n in nodes:
            n["level"] = new[n["level"]]
    return _envelope("certificate", size, rads[::-1], **doc)


def _header_from_obj(obj, problems, keys, base):
    """(problem, size, tower, read, start, end) of a certificate whose keys
    beyond the envelope must be exactly keys; read is its scalar reader.
    The version and the problem are checked before the keys (the key
    check names an absent one), so a certificate of another version or
    problem is named as such."""
    if isinstance(obj, dict) and obj.get("kind") == "certificate":
        version = obj.get("version", FORMAT_VERSION)
        if not _is_int(version) or version != FORMAT_VERSION:
            raise InputFormatError(
                "unsupported certificate version %r; this reader takes "
                "version %d" % (version, FORMAT_VERSION))
        if obj.get("problem", problems[0]) not in problems:
            raise InputFormatError("unknown problem kind %r" % obj["problem"])
    size, tower, read = _open(obj, "certificate", keys, base)
    start = _point_from_obj(obj["from"], read, size, "start point")
    end = _point_from_obj(obj["to"], read, size, "end point")
    return obj["problem"], size, tower, read, start, end


def path_to_obj(path: MovePath, base: Tower | None = None) -> dict:
    """The fiber-move certificate of path over base, for path_from_obj."""
    def body(write):
        return {"form": matrix_to_flat(path.form.matrix, write),
                "steps": [_step_to_obj(s, write) for s in path.steps]}
    return _header_to_obj(path, base, path.problem, path.form.size, body)


def path_from_obj(obj, base: Tower | None = None) -> MovePath:
    """Parse a fiber-move certificate.  The scalars are interpreted in the
    tower named by the radicand header, which must extend base; nothing
    about the moves themselves is checked here, that is verify_path's
    job."""
    problem, size, tower, read, start, end = _header_from_obj(
        obj, _PROBLEMS, _PATH_KEYS, base)
    form = _form_from_flat(obj["form"], read, size, "certificate form")
    steps = tuple(_step_from_obj(s, read, size)
                  for s in _list_of(obj["steps"], "certificate steps"))
    return MovePath(problem, form, start, end, steps, tower)


# ---------------------------------------------------------------------------
# intersection certificates: the same header, the pencil, and per segment a
# line inside X plus the complement steps made in its chart's image, all in
# the one tower of the certificate


def _segment_to_obj(seg: XSegment, write) -> dict:
    return {"line": _span_to_obj(seg.line, write),
            "steps": [_step_to_obj(s, write) for s in seg.steps]}


def _segment_from_obj(obj, read, size) -> XSegment:
    _check_keys(obj, _SEGMENT_KEYS, "segment")
    _check_keys(obj["line"], _SPAN_KEYS, "segment line")
    line = _span_from_obj(obj["line"], read, size)
    steps = _list_of(obj["steps"], "segment steps")
    if not steps:
        raise InputFormatError("segment steps must not be empty")
    return XSegment(line,
                    tuple(_step_from_obj(s, read, size - 2) for s in steps))


def xpath_to_obj(path: XPath, base: Tower | None = None) -> dict:
    def body(write):
        return {**_pencil_body(path.pencil, write),
                "segments": [_segment_to_obj(s, write) for s in path.segments]}
    return _header_to_obj(path, base, "ci", path.pencil.size, body)


def xpath_from_obj(obj, base: Tower | None = None) -> XPath:
    _, size, tower, read, start, end = _header_from_obj(
        obj, ("ci",), _XPATH_KEYS, base)
    pencil = _pencil_from_body(obj, read, size, "certificate pencil")
    objs = _list_of(obj["segments"], "certificate segments")
    segments = tuple(_segment_from_obj(s, read, size) for s in objs)
    return XPath(pencil, start, end, segments, tower)


def certificate_from_obj(obj, base: Tower | None = None):
    """Parse either certificate flavor, dispatching on the problem kind."""
    if isinstance(obj, dict) and obj.get("problem") == "ci":
        return xpath_from_obj(obj, base)
    return path_from_obj(obj, base)
