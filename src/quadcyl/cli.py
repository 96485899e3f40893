"""Command line front end.

Builds forms and pencils, produces fiber-move certificates, verifies
them, and runs the line-chart audit.  All documents are the UTF-8 JSON
formats from serialize; the same seed and the same inputs always give
byte-identical output files.

Exit codes: 0 everything valid, 1 a verification or audit failure,
2 unusable input, 3 a search ran out of retries, 4 a tower would grow
past its height limit, 5 an internal error (a defect of quadcyl, not of
the input): any exception that is not a QuadcylError, ValueError
included, exits 5 with its repr on one error line and no traceback.

verify reads the reference document and every certificate, parses the
reference once, and replays the certificates in argument order in this
process.
"""

import argparse
import functools
import json
import random
import re
import sys

from . import serialize as ser
from .charts import ctsq_normalize, hyperbolic_normalize
from .errors import QuadcylError, RetryLimitError, TowerLimitError
from .navigate import connect_complement, connect_on_quadric, verify_path
from .pencils import (
    Line, chart_from_line, connect_on_X, eacx_build, find_line,
    find_line_through, pencil_smoothness, polar_degree_audit, verify_on_X,
)
from .projective import ProjPoint, is_zero_vec, vec
from .tower import Tower, parse_rational, tower_to_obj

EXIT_VALID = 0
EXIT_INVALID = 1
EXIT_INPUT = 2
EXIT_SEARCH = 3
EXIT_TOWER = 4
EXIT_INTERNAL = 5


class SystemExitCode(Exception):
    """Internal: unwind to main with a specific exit code."""

    def __init__(self, code: int, message: str = ""):
        super().__init__(message)
        self.code = code


def _failure(exc: Exception):
    """(exit code, message) for an exception that ended a command; the
    message is empty when there is nothing to print."""
    if isinstance(exc, SystemExitCode):
        return exc.code, str(exc)
    if isinstance(exc, TowerLimitError):
        return EXIT_TOWER, str(exc)
    if isinstance(exc, RetryLimitError):
        return EXIT_SEARCH, str(exc)
    if isinstance(exc, QuadcylError):
        return EXIT_INPUT, str(exc)
    return EXIT_INTERNAL, "internal error: %r" % (exc,)


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise SystemExitCode(EXIT_INPUT, "cannot read %s: %s" % (path, exc))


def _read_doc(path: str):
    return ser.loads(_read_text(path))


def _emit(args, text: str):
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise SystemExitCode(
                EXIT_INPUT, "cannot write %s: %s" % (args.out, exc))
    else:
        sys.stdout.write(text)


def _note(message: str):
    print(message, file=sys.stderr)


def _parse_point(text: str, size: int, base: Tower):
    """A point argument with size coordinates: either inline
    comma-separated rationals like "0,1,-2/3", or @file naming a point
    document read against base."""
    if text.startswith("@"):
        point, tower = ser.point_from_obj(_read_doc(text[1:]), base)
    else:
        parts = [p.strip() for p in text.split(",")]
        point, tower = ProjPoint(vec(parse_rational(p) for p in parts)), base
    if len(point) != size:
        raise SystemExitCode(
            EXIT_INPUT, "point %s has %d coordinates, expected %d"
            % (text, len(point), size))
    return point, tower


def _radicand_note(header: list) -> str:
    return "radicands: %s" % json.dumps(header, sort_keys=True)


# ---------------------------------------------------------------------------
# subcommands


def cmd_normalize(args) -> int:
    form, tower = ser.form_from_obj(_read_doc(args.form),
                                    Tower.rationals(args.tower_limit))
    if form.rank() < 3:
        raise SystemExitCode(
            EXIT_INPUT, "form has rank %d, need at least 3" % form.rank())
    ctsq = args.style == "ctsq"
    if args.point is not None and not ctsq:
        raise SystemExitCode(EXIT_INPUT, "--point only makes sense with --ctsq")
    if ctsq:
        if args.point is None:
            raise SystemExitCode(EXIT_INPUT, "--ctsq needs --point")
        point, tower = _parse_point(args.point, form.size, tower)
        frame = ctsq_normalize(form, point)
    else:
        frame, tower = hyperbolic_normalize(form, tower)
    split = {} if ctsq else {"pairs": frame.pairs, "has_z": frame.has_z}
    obj = ser._envelope(
        "frame", form.size, tower_to_obj(tower), style=args.style,
        rank=form.rank(), witness=ser.matrix_to_flat(frame.change.matrix),
        result=ser.matrix_to_flat(frame.change.pullback(form).matrix),
        **split)
    _emit(args, ser.dumps(obj))
    _note(_radicand_note(tower_to_obj(tower)))
    return EXIT_VALID


def cmd_connect(args) -> int:
    root = Tower.rationals(args.tower_limit)
    if args.target == "ci":
        if args.pencil is None:
            raise SystemExitCode(EXIT_INPUT, "connect ci needs --pencil")
        if args.form is not None:
            raise SystemExitCode(EXIT_INPUT, "--form is not for connect ci")
        pencil, base = ser.pencil_from_obj(_read_doc(args.pencil), root)
        p, tower = _parse_point(args.from_point, pencil.size, base)
        q, tower = _parse_point(args.to_point, pencil.size, tower)
        lines = []
        for path in args.line or ():
            line, tower = ser.line_from_obj(_read_doc(path), tower)
            lines.append(Line.through(pencil, line.v1, line.v2))
        xp = connect_on_X(pencil, p, q, lines=lines or None, tower=tower,
                          rng=random.Random(args.seed),
                          retry_limit=args.retry_limit)
        obj = ser.xpath_to_obj(xp, base)
        counts = "segments: %d, steps: %d" % (
            len(xp.segments), sum(len(s.steps) for s in xp.segments))
    else:
        if args.form is None:
            raise SystemExitCode(EXIT_INPUT,
                                 "connect %s needs --form" % args.target)
        if args.pencil or args.line:
            raise SystemExitCode(EXIT_INPUT,
                                 "--pencil/--line are only for connect ci")
        form, base = ser.form_from_obj(_read_doc(args.form), root)
        p, tower = _parse_point(args.from_point, form.size, base)
        q, tower = _parse_point(args.to_point, form.size, tower)
        if args.target == "complement":
            path = connect_complement(form, p, q, tower=tower)
        else:
            path = connect_on_quadric(form, p, q, tower=tower,
                                      rng=random.Random(args.seed),
                                      retry_limit=args.retry_limit)
        obj = ser.path_to_obj(path, base)
        counts = "steps: %d" % len(path.steps)
    _emit(args, ser.dumps(obj))
    _note(counts)
    _note(_radicand_note(obj["radicands"]))
    return EXIT_VALID


def cmd_verify(args) -> int:
    if (args.form is None) == (args.pencil is None):
        raise SystemExitCode(EXIT_INPUT,
                             "verify needs exactly one of --form/--pencil")
    ref_path = args.pencil or args.form
    ref_text = _read_text(ref_path)
    cert_texts = [_read_text(p) for p in args.certificate]
    # the reference is parsed once; a broken one would fail every
    # certificate alike, so the error names it and no report is written
    parse = ser.pencil_from_obj if args.pencil else ser.form_from_obj
    try:
        ref, tower = parse(ser.loads(ref_text),
                           Tower.rationals(args.tower_limit))
    except QuadcylError as exc:
        code, message = _failure(exc)
        raise SystemExitCode(code, "%s: %s" % (ref_path, message))
    results = []
    failure = None
    for path, text in zip(args.certificate, cert_texts):
        try:
            cert_obj = ser.loads(text)
            if args.pencil:
                report = verify_on_X(ref, ser.xpath_from_obj(cert_obj, tower))
            else:
                report = verify_path(ref, ser.path_from_obj(cert_obj, tower))
        except QuadcylError as exc:
            # the last unreadable file names the exit code
            code, message = _failure(exc)
            failure = code, "%s: %s" % (path, message)
            results.append({"file": path, "valid": False, "error": message})
        else:
            results.append({"file": path, **report.to_obj()})
    _emit(args, ser.dumps({"kind": "verify-report", "results": results}))
    if failure is not None:
        raise SystemExitCode(*failure)
    return EXIT_VALID if all(r["valid"] for r in results) else EXIT_INVALID


def cmd_audit(args) -> int:
    pencil, pencil_tower = ser.pencil_from_obj(
        _read_doc(args.pencil), Tower.rationals(args.tower_limit))
    smooth = pencil_smoothness(pencil)
    raw, tower = ser.line_from_obj(_read_doc(args.line), pencil_tower)
    chart = chart_from_line(pencil, raw)
    degrees = polar_degree_audit(chart, tower=tower)
    rng = random.Random(args.seed)
    trips = failures = 0
    while trips < args.samples:
        u = vec(rng.randint(-9, 9) for _ in range(pencil.size - 2))
        if is_zero_vec(u):
            continue
        u = ProjPoint(u)
        if chart.image(u).is_zero():
            continue
        trips += 1
        try:
            x = chart.inverse(u)
        except QuadcylError:
            failures += 1
            continue
        if not pencil.on_intersection(x) or chart.forward(x) != u:
            failures += 1
    passed = degrees.passed and failures == 0
    obj = {
        "kind": "audit-report",
        "radicands": tower_to_obj(pencil_tower),
        "smooth": smooth.smooth,
        "smoothness": smooth.to_obj(),
        "image_rank": chart.image.rank(),
        "degrees": degrees.to_obj(),
        "round_trips": trips,
        "round_trip_failures": failures,
        "passed": passed,
    }
    _emit(args, ser.dumps(obj))
    if not passed:
        return EXIT_INVALID
    if not smooth.smooth:
        _note("pencil is not smooth (discriminant is not squarefree)")
        return EXIT_INVALID
    return EXIT_VALID


def cmd_eacx_build(args) -> int:
    lambdas = [parse_rational(p.strip()) for p in args.lambdas.split(",")]
    pencil = eacx_build(lambdas)
    report = pencil_smoothness(pencil)
    _emit(args, ser.dumps(ser.pencil_to_obj(pencil, Tower.rationals())))
    _note("smooth: %s" % ("true" if report.smooth else "false"))
    return EXIT_VALID


def cmd_find_line(args) -> int:
    pencil, tower = ser.pencil_from_obj(_read_doc(args.pencil),
                                        Tower.rationals(args.tower_limit))
    rng = random.Random(args.seed)
    if args.point is not None:
        point, tower = _parse_point(args.point, pencil.size, tower)
        line, tower = find_line_through(pencil, point, rng=rng, tower=tower,
                                        retry_limit=args.retry_limit)
    else:
        line, tower = find_line(pencil, rng=rng, tower=tower,
                                retry_limit=args.retry_limit)
    _emit(args, ser.dumps(ser.line_to_obj(line, tower)))
    _note(_radicand_note(tower_to_obj(tower)))
    return EXIT_VALID


# ---------------------------------------------------------------------------
# wiring


def _at_least(low):
    """An argparse type: an integer of at least low, else exit 2."""
    def integer(text):
        if int(text) < low:
            raise argparse.ArgumentTypeError("must be at least %d" % low)
        return int(text)
    return integer


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and then reused; each
    parse starts from the defaults again."""
    shared = {
        "--seed": dict(type=int, default=0,
                       help="seed for every randomized search (default 0)"),
        "--retry-limit": dict(type=_at_least(0), default=64,
                              help="retry budget for randomized searches"),
        "--tower-limit": dict(type=_at_least(0), default=16,
                              help="maximum number of adjoined square roots"),
    }

    top = argparse.ArgumentParser(
        prog="quadcyl",
        description="exact cylinder charts and move certificates on "
                    "quadrics and intersections of two quadrics")
    sub = top.add_subparsers(dest="command", required=True)

    def command(name, summary, *options):
        """A subcommand taking --out and those of the shared options that
        its handler reads."""
        p = sub.add_parser(name, help=summary)
        # no option starts with a dash and a digit, so a value such as
        # "-3/2,1,0" after --from is a value, not an unknown flag
        p._negative_number_matcher = re.compile(r"^-\.?\d")
        for flag in options:
            p.add_argument(flag, **shared[flag])
        p.add_argument("--out", metavar="FILE",
                       help="write the result here instead of stdout")
        return p

    p = command("normalize", "bring a quadratic form to a standard shape",
                "--tower-limit")
    style = p.add_mutually_exclusive_group(required=True)
    style.add_argument("--hyperbolic", dest="style", action="store_const",
                       const="hyperbolic", help="split into hyperbolic pairs")
    style.add_argument("--ctsq", dest="style", action="store_const",
                       const="ctsq",
                       help="adapt coordinates to a point of the quadric")
    p.add_argument("--point", help="base point for --ctsq")
    p.add_argument("form", help="form document")

    p = command("connect", "produce a move certificate between two points",
                "--seed", "--retry-limit", "--tower-limit")
    p.add_argument("target", choices=("complement", "quadric", "ci"),
                   help="which space the points live in")
    p.add_argument("--form", help="form document (complement/quadric)")
    p.add_argument("--pencil", help="pencil document (ci)")
    p.add_argument("--line", action="append", metavar="FILE",
                   help="line document to try first (ci, repeatable)")
    p.add_argument("--from", dest="from_point", required=True,
                   help='start point: "1,2,3" or @file')
    p.add_argument("--to", dest="to_point", required=True,
                   help='end point: "1,2,3" or @file')

    p = command("verify", "replay certificates independently",
                "--tower-limit")
    p.add_argument("certificate", nargs="+", help="certificate documents")
    p.add_argument("--form", help="the ambient form document")
    p.add_argument("--pencil", help="the ambient pencil document")

    p = command("audit", "check a line chart: rank, degrees, round trips",
                "--seed", "--tower-limit")
    p.add_argument("--pencil", required=True, help="pencil document")
    p.add_argument("--line", required=True, help="line document")
    p.add_argument("--samples", type=_at_least(1), default=25,
                   help="round-trip sample count (default 25)")

    p = command("eacx-build", "build the diagonal pencil for given parameters")
    p.add_argument("--lambdas", required=True,
                   help='comma-separated values, e.g. "0,1,2,3,4,5"')

    p = command("find-line", "find a line inside the intersection",
                "--seed", "--retry-limit", "--tower-limit")
    p.add_argument("--pencil", required=True, help="pencil document")
    p.add_argument("--point", help="require the line to pass through here")

    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # looked up at call time, so the handlers may be replaced
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except Exception as exc:
        code, message = _failure(exc)
        if message:
            print("error: %s" % message, file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
