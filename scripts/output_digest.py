"""Print one digest line per benchmark pair, to diff the outputs of two
commits.

For each pair that `bench/run.py` times on the given workload and seed
(`Workload.run_pairs`; on ci-deep also `Workload.traced_extra`, the
height-9 pair s909-p0), it runs `quadcyl connect` and `quadcyl verify`
in-process through `quadcyl.cli.main` and prints: the pair index, the
connect and verify exit codes, the certificate's sha256 and byte count,
the sha256 of its content (the parsed JSON re-written compactly with
sorted keys, so the same keys and values in any layout), the sha256 of
its `radicands` header, the `refusals=` of its corruptions, the verify
report without its `file` key, and the exit code of verifying the
certificate against the workload's wrong reference (a sound verifier
exits 1).  The refusals come from one `quadcyl verify` of seeded
corruptions of the certificate (see `corruptions`), as {name: {valid,
reason, index}}, or {valid, error} where the parser refuses the
corruption, so a change to the verifiers shows on its refusals too.  A
bump can leave a point projectively the same (one with a single nonzero
coordinate), and then the corruption is still valid.  Run it on both
commits and diff: no difference means every certificate, report, refusal
and exit code is byte-identical.  A change that alters certificate bytes
on purpose can still show, by the `content=` fields, that only whitespace
changed, or by the `radicands=` fields, that every tower is unchanged.
Both are computed here with json alone, not with quadcyl's own writer.

With --tools it digests instead the subcommands and pencil paths the
benchmark never runs: `normalize` in both styles on every grid form,
`eacx-build` on a few parameter lists (one with a repeated value),
`find-line` and `audit` on the hexagonal pencil and on an `eacx-build`
pencil, and `find-line`, two `connect ci` and their `verify` on the
hexagonal pencil under x = M y (no coordinate pair spans a line there, so
the searches draw random lines), then one `connect ci` and its `verify`
on the `eacx-build` pencil, whose only cheap line is the split-support
line.  Last come three runs of the certificate header rule, each with its
`verify`, on x0 x1 + x2 x3: `connect complement` and `connect quadric`
between point documents over Q(sqrt 2) with rational coordinates (the
header drops sqrt 2), and `connect complement` on that form written over
Q(sqrt 2) (the header keeps it, as the form's).  Each line gives the
run's name, its exit code and the sha256 of its output file and of its
stderr ("-" for no output file), with the work directory's path written
as "<work>".

    PYTHONPATH=src python3 scripts/output_digest.py --workload quadric-grid --seed 1
    PYTHONPATH=src python3 scripts/output_digest.py --workload ci-deep --seed 1 --pairs 3
    PYTHONPATH=src python3 scripts/output_digest.py --tools
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

from quadcyl import cli  # noqa: E402
from quadcyl import serialize as ser  # noqa: E402
from quadcyl.charts import hyperbolic_target  # noqa: E402
from quadcyl.pencils import Pencil, point_on_intersection  # noqa: E402
from quadcyl.projective import ProjPoint, vec  # noqa: E402
from quadcyl.tower import Tower, as_scalar  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, Workload, _inline, grid_quadric_point, grid_shapes,
    hexagonal_pencil, rational_pencil_point,
)

# eacx-build parameter lists; the last repeats a value, which is refused
LAMBDAS = ("0,1,2,3,4,5", "1,-2,3/2,7,0,4,9", "-3,-1,0,2,5,11,13,17",
           "0,1,2,2,3,4")


def run(argv, err=None):
    """Exit code of one CLI call; its stderr goes to err, else is
    dropped."""
    with contextlib.redirect_stderr(err or io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:  # argparse refusing the argument list
            return exc.code


def hexagonal_under_m():
    """The hexagonal forms under x = M y, where M has rows e_i + e_(i+1)
    for i < 5 and 2 e_0 + e_5: no coordinate pair spans a line of X, and
    neither form is diagonal."""
    m = [[0] * 6 for _ in range(6)]
    for i in range(5):
        m[i][i] = m[i][i + 1] = 1
    m[5][0], m[5][5] = 2, 1
    h = hexagonal_pencil()
    return Pencil(h.beta.transform(m), h.gamma.transform(m))


def under_m(x):
    """y with M y = x, for the M of hexagonal_under_m: y_(i+1) = x_i - y_i
    for i < 5, and 2 y_0 + y_5 = x_5 fixes y_0."""
    y = [x[5] - sum((-1) ** i * x[i] for i in range(5))]
    for i in range(5):
        y.append(x[i] - y[i])
    return y


def write_doc(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(ser.dumps(obj))
    return path


def connect_and_verify(work, name, ref, start, end, target="ci"):
    """The runs of `connect target` between two points and `verify` of its
    certificate, both against the reference document ref."""
    flag = "--pencil" if target == "ci" else "--form"
    cert = os.path.join(work, "connect-%s.json" % name)
    yield ("connect-%s" % name,
           ["connect", target, flag, ref, "--from=" + start,
            "--to=" + end, "--seed", "5"])
    yield "verify-%s" % name, ["verify", cert, flag, ref]


def tool_runs(work):
    """(name, argv) of every --tools run, in order; each writes
    work/<name>.json.  Later runs read the pencils and lines that earlier
    ones wrote, so each run is made only after the one before it has
    run."""
    grid = Workload("quadric-grid", 1, work)
    grid.setup()
    for n, r in grid_shapes():
        point = grid_quadric_point(random.Random(100 * n + r), n, r)
        form = grid.docs[(n, r)]
        yield ("normalize-hyperbolic-%d-%d" % (n, r),
               ["normalize", "--hyperbolic", form])
        yield ("normalize-ctsq-%d-%d" % (n, r),
               ["normalize", "--ctsq", "--point=" + _inline(point), form])
    for k, lams in enumerate(LAMBDAS):
        yield "eacx-build-%d" % k, ["eacx-build", "--lambdas=" + lams]
    hexagonal = write_doc(os.path.join(work, "hexagonal.pf"),
                          ser.pencil_to_obj(hexagonal_pencil(),
                                            Tower.rationals()))
    eacx = os.path.join(work, "eacx-build-0.json")
    through = _inline(rational_pencil_point(random.Random(1)))
    for name, pencil, points in (
            ("hexagonal", hexagonal, ("1,0,0,0,0,0", through)),
            ("eacx", eacx, ())):
        yield "find-line-%s" % name, ["find-line", "--pencil", pencil]
        for k, point in enumerate(points):
            yield ("find-line-%s-point%d" % (name, k),
                   ["find-line", "--pencil", pencil, "--point=" + point,
                    "--seed", "3"])
        yield ("audit-%s" % name,
               ["audit", "--pencil", pencil, "--line",
                os.path.join(work, "find-line-%s.json" % name)])
    hexagonal_m = write_doc(os.path.join(work, "hexagonal-m.pf"),
                            ser.pencil_to_obj(hexagonal_under_m(),
                                              Tower.rationals()))
    yield "find-line-hexagonal-m", ["find-line", "--pencil", hexagonal_m]
    # the second pair's first chart misses an endpoint, so a second
    # random line is drawn
    for k in (10, 12):
        rng = random.Random(k)
        start = _inline(under_m(rational_pencil_point(rng)))
        end = _inline(under_m(rational_pencil_point(rng)))
        yield from connect_and_verify(work, "hexagonal-m-%d" % k,
                                      hexagonal_m, start, end)
    # two points of the eacx-build pencil over one tower, as point documents
    with open(eacx, encoding="utf-8") as fh:
        pencil, tower = ser.pencil_from_obj(ser.loads(fh.read()))
    rng = random.Random(7)
    a, tower = point_on_intersection(pencil, rng=rng, tower=tower)
    b, tower = point_on_intersection(pencil, rng=rng, tower=tower,
                                     predicate=lambda y: y != a)
    start, end = ("@" + write_doc(os.path.join(work, "eacx-%s.pt" % name),
                                  ser.point_to_obj(x, tower))
                  for name, x in (("start", a), ("end", b)))
    yield from connect_and_verify(work, "eacx", eacx, start, end)
    # the header rule: rational points and a rational form over Q(sqrt 2)
    root2 = Tower.rationals().extend(as_scalar(2))

    def root2_point(name, coords):
        return "@" + write_doc(os.path.join(work, "root2-%s.pt" % name),
                               ser.point_to_obj(ProjPoint(vec(coords)), root2))
    split = grid.docs[(4, 4)]
    yield from connect_and_verify(
        work, "complement-root2-points", split,
        root2_point("a", (1, 1, 0, 0)), root2_point("b", (0, 3, 1, 5)),
        "complement")
    yield from connect_and_verify(
        work, "quadric-root2-points", split,
        root2_point("c", (1, 0, 0, 0)), root2_point("d", (0, 0, 1, 0)),
        "quadric")
    root2_form = write_doc(os.path.join(work, "root2.qf"), ser.form_to_obj(
        hyperbolic_target(4, 2, False), root2))
    yield from connect_and_verify(work, "complement-root2-form", root2_form,
                                  "1,1,0,0", "0,3,1,5", "complement")


def tool_digests(work):
    """One line per --tools run: name, exit code, output and stderr
    digests."""
    for name, argv in tool_runs(work):
        out = os.path.join(work, name + ".json")
        err = io.StringIO()
        rc = run(argv + ["--out", out], err)
        digest_out = "-"
        if os.path.exists(out):
            with open(out, encoding="utf-8") as fh:
                digest_out = sha256(fh.read(), work)
        yield "%s exit=%s out=%s stderr=%s" % (
            name, rc, digest_out, sha256(err.getvalue(), work))


def sha256(text, work):
    """The digest of text with the work directory's path replaced, since
    a verify report names its certificate files."""
    return hashlib.sha256(text.replace(work, "<work>").encode()).hexdigest()


def bump(coords, key):
    """Add 1 to coordinate key of a written point or block: to its
    rational, or to the rational part a of a nested a + b*sqrt(d)."""
    node = coords
    while isinstance(node[key], dict):
        node, key = node[key], "a"
    p, q = node[key].split("/")
    node[key] = "%d/%s" % (int(p) + int(q), q)


def unit_index(coords):
    """i where written coordinates are a multiple of e_i, else None."""
    support = [k for k, c in enumerate(coords)
               if not (isinstance(c, str) and c.startswith("0/"))]
    return support[0] if len(support) == 1 else None


def runs_of(obj):
    """The step lists of a certificate object: one per segment of a ci
    certificate, else its one list of steps."""
    if "segments" in obj:
        return [seg["steps"] for seg in obj["segments"]]
    return [obj["steps"]]


def corruptions(obj, rng):
    """(name, corrupted copy) of a certificate object: a bumped `from` or
    `to` coordinate; for a ci certificate whose first (last) segment lies
    on a coordinate line (e_i, e_j), `from` (`to`) plus e_i, which has
    the same projection but lies off X (from-along-line, to-along-line);
    a bumped entry, exit or target coordinate in the first and in the
    last step (of the first and the last segment, for a ci certificate);
    the last step dropped; and an empty path.  Those that need a step, a
    coordinate line, or a nonempty target, are left out where there is
    none."""
    def copy():
        return json.loads(json.dumps(obj))

    for name in ("from", "to"):
        c = copy()
        bump(c[name], rng.randrange(len(c[name])))
        yield name, c
    for name, k in (("from", 0), ("to", -1)) if obj.get("segments") else ():
        line = obj["segments"][k]["line"]
        i, j = unit_index(line["v1"]), unit_index(line["v2"])
        if i is not None and j is not None:
            c = copy()
            bump(c[name], i)
            yield "%s-along-line" % name, c
    if any(runs_of(obj)):
        for end, k in (("first", 0), ("last", -1)):
            for key in ("entry", "exit", "target"):
                c = copy()
                step = runs_of(c)[k][k]
                if step[key]:
                    bump(step[key], rng.randrange(len(step[key])))
                    yield "%s-%s" % (end, key), c
        c = copy()
        runs_of(c)[-1].pop()
        yield "drop-last", c
    c = copy()
    c["segments" if "segments" in c else "steps"] = []
    yield "empty", c


def refusals(pair, obj):
    """{name: verify result} for the seeded corruptions of a pair's
    certificate, verified together in one run against its reference."""
    names, files = [], []
    for name, copy in corruptions(obj, random.Random(pair.index)):
        names.append(name)
        files.append(write_doc("%s.%s" % (pair.cert, name), copy))
    out = pair.cert + ".refusals"
    run(["verify", pair.verify[1]] + files + ["--out", out])
    with open(out) as fh:
        results = json.load(fh)["results"]
    for path in files + [out]:
        os.remove(path)
    keys = ("valid", "reason", "index", "error")
    return {name: {k: r[k] for k in keys if k in r}
            for name, r in zip(names, results)}


def digest(workload, pair):
    connect_rc = run(pair.connect)
    verify_rc = wrong_rc = report = refused = None
    sha, size, content, rads = "-", 0, "-", "-"
    if os.path.exists(pair.cert):
        with open(pair.cert, "rb") as fh:
            data = fh.read()
        sha, size = hashlib.sha256(data).hexdigest(), len(data)
        obj = json.loads(data)
        content = hashlib.sha256(json.dumps(
            obj, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
        header = json.dumps(obj["radicands"], sort_keys=True)
        rads = hashlib.sha256(header.encode()).hexdigest()
        verify_rc = run(pair.verify)
        with open(pair.verify[-1]) as fh:
            results = json.load(fh)["results"]
        report = [{k: v for k, v in r.items() if k != "file"}
                  for r in results]
        wrong = list(pair.verify)
        wrong[1] = workload.wrong_reference(pair)
        wrong_rc = run(wrong)
        refused = refusals(pair, obj)
        os.remove(pair.cert)
    return ("%d connect=%s verify=%s sha256=%s bytes=%d content=%s "
            "radicands=%s refusals=%s report=%s wrong=%s") % (
        pair.index, connect_rc, verify_rc, sha, size, content, rads,
        json.dumps(refused, sort_keys=True),
        json.dumps(report, sort_keys=True), wrong_rc)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=WORKLOADS)
    mode.add_argument("--tools", action="store_true",
                      help="digest the subcommands the benchmark never runs")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=None,
                    help="digest only the first N pairs")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="digest-") as work:
        if args.tools:
            for line in tool_digests(work):
                print(line, flush=True)
            return 0
        workload = Workload(args.workload, args.seed, work)
        workload.setup()
        pairs = workload.run_pairs() + workload.traced_extra()
        for pair in pairs[:args.pairs]:
            print(digest(workload, pair), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
