"""Command line front end.

Builds forms and pencils, produces fiber-move certificates, verifies
them, and runs the line-chart audit.  All documents are the UTF-8 JSON
formats from serialize; the same seed and the same inputs always give
byte-identical output files.

Exit codes: 0 everything valid, 1 a verification or audit failure,
2 unusable input, 3 a search ran out of retries, 4 a tower would grow
past its height limit, 5 an internal error (a defect of quadcyl, not of
the input).
"""

import argparse
import json
import os
import random
import re
import sys
from concurrent.futures import ProcessPoolExecutor

from . import serialize as ser
from .charts import ctsq_normalize, hyperbolic_normalize
from .errors import QuadcylError, RetryLimitError, TowerLimitError
from .navigate import connect_complement, connect_on_quadric, verify_path
from .pencils import (
    Line, chart_from_line, connect_on_X, eacx_build, find_line,
    find_line_through, pencil_smoothness, polar_degree_audit, verify_on_X,
)
from .projective import ProjPoint, vec
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


def _load_form(path: str, limit: int):
    return ser.form_from_obj(_read_doc(path), limit=limit)


def _load_pencil(path: str, limit: int):
    return ser.pencil_from_obj(_read_doc(path), limit=limit)


def _parse_point(text: str, size: int, base: Tower, limit: int):
    """A point argument with size coordinates: either inline
    comma-separated rationals like "0,1,-2/3", or @file naming a point
    document."""
    if text.startswith("@"):
        point, tower = ser.point_from_obj(_read_doc(text[1:]), base=base,
                                          limit=limit)
    else:
        parts = [p.strip() for p in text.split(",")]
        point, tower = ProjPoint(vec(parse_rational(p) for p in parts)), base
    if len(point) != size:
        raise SystemExitCode(
            EXIT_INPUT, "point %s has %d coordinates, expected %d"
            % (text, len(point), size))
    return point, tower


def _radicand_note(tower: Tower) -> str:
    return "radicands: %s" % json.dumps(tower_to_obj(tower), sort_keys=True)


# ---------------------------------------------------------------------------
# subcommands


def cmd_normalize(args) -> int:
    form, tower = _load_form(args.form, args.tower_limit)
    if form.rank() < 3:
        raise SystemExitCode(
            EXIT_INPUT, "form has rank %d, need at least 3" % form.rank())
    if args.point is not None and not args.ctsq:
        raise SystemExitCode(EXIT_INPUT, "--point only makes sense with --ctsq")
    if args.ctsq:
        if args.point is None:
            raise SystemExitCode(EXIT_INPUT, "--ctsq needs --point")
        point, tower = _parse_point(args.point, form.size, tower,
                                     args.tower_limit)
        frame = ctsq_normalize(form, point)
    else:
        frame, tower = hyperbolic_normalize(form, tower)
    obj = {
        "kind": "frame",
        "style": "ctsq" if args.ctsq else "hyperbolic",
        "size": form.size,
        "rank": frame.rank,
        "radicands": tower_to_obj(tower),
        "witness": ser.matrix_to_flat(frame.change.matrix),
        "result": ser.matrix_to_flat(
            form.transform(frame.change.matrix).matrix),
    }
    if not args.ctsq:
        obj["pairs"] = frame.pairs
        obj["has_z"] = frame.has_z
    _emit(args, ser.dumps(obj))
    _note(_radicand_note(tower))
    return EXIT_VALID


def cmd_connect(args) -> int:
    limit = args.tower_limit
    if args.target == "ci":
        if args.pencil is None:
            raise SystemExitCode(EXIT_INPUT, "connect ci needs --pencil")
        pencil, tower = _load_pencil(args.pencil, limit)
        p, tower = _parse_point(args.from_point, pencil.size, tower, limit)
        q, tower = _parse_point(args.to_point, pencil.size, tower, limit)
        lines = []
        for path in args.line or ():
            line, tower = ser.line_from_obj(_read_doc(path), base=tower,
                                            limit=limit)
            lines.append(Line.through(pencil, line.v1, line.v2))
        xp = connect_on_X(pencil, p, q, lines=lines or None, tower=tower,
                          seed=args.seed, retry_limit=args.retry_limit)
        _emit(args, ser.dumps(ser.xpath_to_obj(xp)))
        _note("segments: %d, steps: %d" % (
            len(xp.segments), sum(len(s.steps) for s in xp.segments)))
        _note(_radicand_note(xp.tower))
        return EXIT_VALID
    if args.form is None:
        raise SystemExitCode(EXIT_INPUT,
                             "connect %s needs --form" % args.target)
    if args.pencil or args.line:
        raise SystemExitCode(EXIT_INPUT,
                             "--pencil/--line are only for connect ci")
    form, tower = _load_form(args.form, limit)
    p, tower = _parse_point(args.from_point, form.size, tower, limit)
    q, tower = _parse_point(args.to_point, form.size, tower, limit)
    if args.target == "complement":
        path = connect_complement(form, p, q, tower=tower)
    else:
        path = connect_on_quadric(form, p, q, tower=tower, seed=args.seed,
                                  retry_limit=args.retry_limit)
    _emit(args, ser.dumps(ser.path_to_obj(path)))
    _note("steps: %d" % len(path.steps))
    _note(_radicand_note(path.tower))
    return EXIT_VALID


def _verify_one(ref_kind: str, ref_text: str, cert_text: str, limit: int):
    """Parse and check one certificate; runs in a worker process when
    --jobs asks for it, so everything crosses as plain text."""
    try:
        cert_obj = ser.loads(cert_text)
        if ref_kind == "pencil":
            pencil, tower = ser.pencil_from_obj(ser.loads(ref_text),
                                                limit=limit)
            xp = ser.xpath_from_obj(cert_obj, base=tower, limit=limit)
            report = verify_on_X(pencil, xp)
        else:
            form, tower = ser.form_from_obj(ser.loads(ref_text), limit=limit)
            path = ser.path_from_obj(cert_obj, base=tower, limit=limit)
            report = verify_path(form, path)
    except QuadcylError as exc:
        return None, str(exc)
    return report.to_obj(), None


def cmd_verify(args) -> int:
    if (args.form is None) == (args.pencil is None):
        raise SystemExitCode(EXIT_INPUT,
                             "verify needs exactly one of --form/--pencil")
    ref_kind = "pencil" if args.pencil else "form"
    ref_text = _read_text(args.pencil or args.form)
    cert_texts = [_read_text(p) for p in args.certificate]
    payloads = [(ref_kind, ref_text, t, args.tower_limit)
                for t in cert_texts]
    # the pool starts all its workers at once, so ask for no more than
    # there are certificates and CPUs
    jobs = min(args.jobs, len(payloads), os.cpu_count() or 1)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_verify_star, payloads))
    else:
        outcomes = [_verify_star(p) for p in payloads]
    results = []
    bad_input = None
    all_valid = True
    for path, (report, err) in zip(args.certificate, outcomes):
        if err is not None:
            bad_input = "%s: %s" % (path, err)
            results.append({"file": path, "valid": False, "error": err})
            all_valid = False
        else:
            results.append({"file": path, **report})
            all_valid = all_valid and report["valid"]
    _emit(args, ser.dumps({"kind": "verify-report", "results": results}))
    if bad_input is not None:
        raise SystemExitCode(EXIT_INPUT, bad_input)
    return EXIT_VALID if all_valid else EXIT_INVALID


def _verify_star(payload):
    return _verify_one(*payload)


def cmd_audit(args) -> int:
    limit = args.tower_limit
    pencil, pencil_tower = _load_pencil(args.pencil, limit)
    smooth = pencil_smoothness(pencil)
    raw, tower = ser.line_from_obj(_read_doc(args.line), base=pencil_tower,
                                   limit=limit)
    line = Line.through(pencil, raw.v1, raw.v2)
    chart = chart_from_line(pencil, line)
    degrees = polar_degree_audit(chart, tower=tower)
    rng = random.Random(args.seed)
    trips = failures = 0
    while trips < args.samples:
        u = ProjPoint(vec(rng.randint(-9, 9)
                          for _ in range(pencil.size - 2)))
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
    passed = (degrees.passed and failures == 0
              and 3 <= chart.image.rank() <= 4)
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
    _emit(args, ser.dumps(ser.pencil_to_obj(pencil, Tower.rationals(
        args.tower_limit))))
    _note("smooth: %s" % ("true" if report.smooth else "false"))
    return EXIT_VALID


def cmd_find_line(args) -> int:
    limit = args.tower_limit
    pencil, tower = _load_pencil(args.pencil, limit)
    rng = random.Random(args.seed)
    if args.point is not None:
        point, tower = _parse_point(args.point, pencil.size, tower, limit)
        line, tower = find_line_through(pencil, point, rng=rng, tower=tower,
                                        retry_limit=args.retry_limit)
    else:
        line, tower = find_line(pencil, rng=rng, tower=tower,
                                retry_limit=args.retry_limit)
    _emit(args, ser.dumps(ser.line_to_obj(line, tower)))
    _note(_radicand_note(tower))
    return EXIT_VALID


# ---------------------------------------------------------------------------
# wiring


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--seed", type=int, default=0,
                        help="seed for every randomized search (default 0)")
    shared.add_argument("--retry-limit", type=int, default=64,
                        help="retry budget for randomized searches")
    shared.add_argument("--tower-limit", type=int, default=16,
                        help="maximum number of adjoined square roots")
    shared.add_argument("--out", metavar="FILE",
                        help="write the result here instead of stdout")

    top = argparse.ArgumentParser(
        prog="quadcyl",
        description="exact cylinder charts and move certificates on "
                    "quadrics and intersections of two quadrics")
    sub = top.add_subparsers(dest="command", required=True)

    def command(name, summary):
        p = sub.add_parser(name, parents=[shared], help=summary)
        # no option starts with a dash and a digit, so a value such as
        # "-3/2,1,0" after --from is a value, not an unknown flag
        p._negative_number_matcher = re.compile(r"^-\.?\d")
        return p

    p = command("normalize", "bring a quadratic form to a standard shape")
    kind = p.add_mutually_exclusive_group(required=True)
    kind.add_argument("--hyperbolic", action="store_true",
                      help="split into hyperbolic pairs")
    kind.add_argument("--ctsq", action="store_true",
                      help="adapt coordinates to a point of the quadric")
    p.add_argument("--point", help="base point for --ctsq")
    p.add_argument("form", help="form document")
    p.set_defaults(func=cmd_normalize)

    p = command("connect", "produce a move certificate between two points")
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
    p.set_defaults(func=cmd_connect)

    p = command("verify", "replay certificates independently")
    p.add_argument("certificate", nargs="+", help="certificate documents")
    p.add_argument("--form", help="the ambient form document")
    p.add_argument("--pencil", help="the ambient pencil document")
    p.add_argument("--jobs", type=int, default=1,
                   help="verify this many certificates in parallel")
    p.set_defaults(func=cmd_verify)

    p = command("audit", "check a line chart: rank, degrees, round trips")
    p.add_argument("--pencil", required=True, help="pencil document")
    p.add_argument("--line", required=True, help="line document")
    p.add_argument("--samples", type=int, default=25,
                   help="round-trip sample count (default 25)")
    p.set_defaults(func=cmd_audit)

    p = command("eacx-build", "build the diagonal pencil for given parameters")
    p.add_argument("--lambdas", required=True,
                   help='comma-separated values, e.g. "0,1,2,3,4,5"')
    p.set_defaults(func=cmd_eacx_build)

    p = command("find-line", "find a line inside the intersection")
    p.add_argument("--pencil", required=True, help="pencil document")
    p.add_argument("--point", help="require the line to pass through here")
    p.set_defaults(func=cmd_find_line)

    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExitCode as exc:
        if str(exc):
            print("error: %s" % exc, file=sys.stderr)
        return exc.code
    except TowerLimitError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_TOWER
    except RetryLimitError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_SEARCH
    except (QuadcylError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        print("error: internal error: %r" % (exc,), file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
