"""Connect-then-verify benchmark of quadcyl.

    python3 bench/run.py --workload ci-deep --seed 1 --seconds 45 --trace 0

One process, one thread, a closed loop with one client: for each endpoint
pair it runs `quadcyl connect` and then `quadcyl verify` through
`quadcyl.cli.main` in-process, and checks both by exit code.  Certificates
stay opaque files.  Every run also verifies one of its certificates
against a form or pencil it does not belong to, which must exit 1.

The timed phase runs rounds over the run's pairs (Workload.run_pairs)
until `--seconds` of rounds have passed; each round runs every pair once.

Every time metric is in seconds at the reference speed.  A shared virtual
machine can change speed by up to half for tens of seconds at a time,
sometimes for a whole run, so wall seconds follow the machine more than
the program.  A fixed piece of reference work (exact rational arithmetic,
as in the library) is therefore timed right before and after every call
and every set-up, and each of them is scaled by REF_WORK_S over the mean
of its two reference timings: a call that took twice as long as the
reference work next to it counts 2 * REF_WORK_S seconds.  The wall-clock
figures are in the report line.

- `connect_s.p50`, `verify_s.p50`: median over the run's pairs of each
  pair's median over the rounds.
- `pairs_per_s`: pairs divided by the sum of those per-pair medians of
  connect plus verify.
- `setup_s`: median time of a fresh interpreter importing `quadcyl.cli`,
  plus the median time to write the workload's input documents, measured
  SETUP_EDGE times before the timed phase and as often after it, and once
  between rounds whenever SETUP_EVERY seconds of rounds have passed.  The
  set-ups are not part of the timed phase.

With `--trace 0` the last line carries the end-to-end metrics.  With
`--trace 1` the same timed phase runs untraced, then the leading pairs of
its first round (at least REPLAY_SECONDS of calls) are replayed under the
tracer (tracer.py), followed on ci-deep by a height-9 pair, and the last
line carries the per-layer metrics, including the tracer's overhead on the
replayed pairs against their untraced calls; a tiny run then checks that
every traced name the package defines records a call.  The line before
the last is the full report (wall-clock latency p50, mean and tail with
its level and sample count, failure fraction, negative control, run
metadata, absent names); it is also written to bench/out/, with the spans
of a traced run.

Workloads and the reasons for each are described in workloads.py.
"""

import argparse
import contextlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_EDGE = 4
SETUP_EVERY = 2.0
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0)
REPLAY_SECONDS = 2.0
EXIT_INVALID = 1
# The reference work: exact rational arithmetic on numbers of a few
# hundred bits, as in the library's deep towers.  REF_WORK_S is its
# fastest time on a 2-vCPU x86-64 VM with Python 3.11, the speed every
# time metric is scaled to.
REF_A = 3 ** 160 + 1
REF_B = 7 ** 110 + 3
REF_STEPS = 200
REF_WORK_S = 0.0018


def fail(message):
    print("bench: %s" % message, file=sys.stderr)
    sys.exit(2)


def import_quadcyl():
    if not os.path.isfile(os.path.join(SRC, "quadcyl", "__init__.py")):
        fail("no quadcyl package under %s" % SRC)
    sys.path.insert(0, SRC)
    import quadcyl.cli
    where = os.path.dirname(os.path.abspath(quadcyl.__file__))
    if where != os.path.join(SRC, "quadcyl"):
        fail("quadcyl was imported from %s, not from %s" % (where, SRC))


def reference_s():
    """Seconds the reference work takes now."""
    t0 = time.perf_counter()
    kept = {}
    for i in range(REF_STEPS):
        x = Fraction(REF_A + i, REF_B) * Fraction(REF_B - i, REF_A + 2 * i)
        kept[i % 31] = x + Fraction(i, 7)
    return time.perf_counter() - t0


def interpreter_startup_s():
    """Wall time of a fresh interpreter that imports quadcyl.cli."""
    env = dict(os.environ, PYTHONPATH=SRC)
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", "import quadcyl.cli"],
                          env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, timeout=120)
    dt = time.perf_counter() - t0
    if done.returncode != 0:
        fail("importing quadcyl.cli failed: %s" % done.stderr.decode()[-500:])
    return dt


def setup_once(workload):
    """(interpreter start-up, document build) of one set-up, in seconds
    at the reference speed."""
    before = reference_s()
    startup = interpreter_startup_s()
    t0 = time.perf_counter()
    workload.setup()
    build = time.perf_counter() - t0
    scale = 2 * REF_WORK_S / (before + reference_s())
    return startup * scale, build * scale


class Sink(io.StringIO):
    """stderr of the CLI: keeps the text of the current call only."""

    def reset(self):
        self.seek(0)
        self.truncate()


def run_cli(argv, sink):
    """(exit code, seconds, message).  An uncaught exception is a failed
    call, not the end of the benchmark."""
    from quadcyl import cli
    sink.reset()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stderr(sink):
            rc = cli.main(argv)
    except SystemExit as exc:  # e.g. argparse rejecting the argument list
        rc = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    except Exception as exc:  # noqa: BLE001 - recorded as a failed call
        rc = None
        sink.write("%s: %s" % (type(exc).__name__, exc))
    dt = time.perf_counter() - t0
    return rc, dt, sink.getvalue().strip()[-300:]


def run_pair(pair, sink, tracer=None, reference=False):
    """One connect then verify; the record of the pair.  With `reference`
    the reference work is timed before, between and after the calls."""
    ref = reference_s if reference else lambda: None
    if tracer is not None:
        tracer.pair = pair.index
    before = ref()
    rc_c, t_c, msg = run_cli(pair.connect, sink)
    between = ref()
    rec = {"pair": pair, "connect_rc": rc_c, "connect_s": t_c,
           "verify_rc": None, "verify_s": None, "message": msg,
           "refs": (before, between, None)}
    if rc_c == 0:
        rc_v, t_v, msg = run_cli(pair.verify, sink)
        rec.update(verify_rc=rc_v, verify_s=t_v, message=msg,
                   refs=(before, between, ref()))
    rec["ok"] = rc_c == 0 and rec["verify_rc"] == 0
    return rec


def timed_phase(workload, seconds, sink, setups):
    """Rounds over the run's pairs until `seconds` of them have passed:
    (records, wall time of the rounds, records of each round).  Each round
    runs every pair once, in a new seeded order.  Between rounds, once
    SETUP_EVERY seconds of them have passed, one set-up is measured and
    appended to `setups`."""
    pairs = workload.run_pairs()
    rng = random.Random(workload.seed)
    records, rounds = [], []
    wall = since = 0.0
    while True:
        order = list(pairs)
        rng.shuffle(order)
        t0 = time.perf_counter()
        rounds.append([run_pair(pair, sink, reference=True)
                       for pair in order])
        took = time.perf_counter() - t0
        records.extend(rounds[-1])
        wall += took
        since += took
        if wall >= seconds:
            break
        if since >= SETUP_EVERY:
            setups.append(setup_once(workload))
            since = 0.0
    return records, wall, rounds


def busy(rec):
    return rec["connect_s"] + (rec["verify_s"] or 0.0)


def leading(records, seconds):
    """The first records whose calls took `seconds` together, or all."""
    out, took = [], 0.0
    for rec in records:
        out.append(rec)
        took += busy(rec)
        if took >= seconds:
            break
    return out


def ref_times(records):
    """{pair index: (connect, verify)} in seconds at the reference speed,
    each the median over the rounds of the pair's calls that exited 0."""
    calls = {}
    for rec in records:
        if rec["ok"]:
            before, between, after = rec["refs"]
            calls.setdefault(rec["pair"].index, []).append((
                rec["connect_s"] * 2 * REF_WORK_S / (before + between),
                rec["verify_s"] * 2 * REF_WORK_S / (between + after)))
    return {index: (statistics.median(c for c, _ in times),
                    statistics.median(v for _, v in times))
            for index, times in calls.items()}


def tail(values):
    """The highest of TAIL_LEVELS with at least ten samples beyond it, as
    {level, value, samples}; None when there are too few samples."""
    xs = sorted(values)
    n = len(xs)
    for level in TAIL_LEVELS:
        rank = math.ceil(level / 100 * n)
        if n - rank >= 10:
            return {"level": "p%g" % level, "value": xs[rank - 1],
                    "samples": n}
    return None


def certificate_stats(records):
    """Bytes and tower height of every certificate, the height as the
    library parses it.  Runs outside the timed phase."""
    from quadcyl import serialize as ser
    sizes, heights = [], []
    for rec in records:
        if not rec["ok"]:
            continue
        with open(rec["pair"].cert, encoding="utf-8") as fh:
            text = fh.read()
        sizes.append(len(text.encode("utf-8")))
        heights.append(ser.certificate_from_obj(ser.loads(text)).tower.height)
    return sizes, heights


def negative_control(workload, records, sink):
    """Verify the smallest certificate of the run against a reference it
    does not belong to; a sound verifier exits 1."""
    ok = [r for r in records if r["ok"]]
    if not ok:
        return {"rejected": False, "reason": "no certificate to check"}
    rec = min(ok, key=lambda r: os.path.getsize(r["pair"].cert))
    pair = rec["pair"]
    argv = list(pair.verify)
    argv[1] = workload.wrong_reference(pair)
    rc, _, msg = run_cli(argv, sink)
    return {"pair": pair.index, "exit_code": rc,
            "rejected": rc == EXIT_INVALID, "message": msg}


def metadata():
    from quadcyl import tower
    lines = 0
    for dirpath, _dirs, files in os.walk(SRC):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), encoding="utf-8") as fh:
                    lines += sum(1 for _ in fh)
    one = getattr(tower, "ONE", None)
    backend = type(one.rat).__module__ if hasattr(one, "rat") else "unknown"
    return {"python": platform.python_version(), "backend": backend,
            "nproc": len(os.sched_getaffinity(0)), "src_lines": lines,
            "commit": git_commit()}


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    try:
        # the ceiling keeps git from finding a repository above the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def latency(values):
    """p50, mean and tail of per-call seconds, with the sample count."""
    if not values:
        return None
    return {"p50": statistics.median(values), "mean": statistics.mean(values),
            "tail": tail(values), "samples": len(values)}


def end_to_end(records, wall, setup_s, peak_rss_mb, sizes, heights):
    """The end-to-end metrics, and the wall-clock latency summaries of both
    commands over every call."""
    per_pair = ref_times(records)
    conn = [c for c, _ in per_pair.values()]
    ver = [v for _, v in per_pair.values()]
    metrics = {
        "pairs_per_s": (len(per_pair) / (sum(conn) + sum(ver))
                        if per_pair else 0.0, "1/s"),
        "connect_s.p50": (statistics.median(conn) if conn else 0.0, "s"),
        "verify_s.p50": (statistics.median(ver) if ver else 0.0, "s"),
        "cert_bytes.mean": (statistics.mean(sizes) if sizes else 0.0, "B"),
        "cert_height.mean": (statistics.mean(heights) if heights else 0.0,
                             "count"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    refs = [x for r in records for x in r["refs"] if x is not None]
    ok = [r for r in records if r["ok"]]
    wall_clock = {
        "connect_s": latency([r["connect_s"] for r in records]),
        "verify_s": latency([r["verify_s"] for r in records
                             if r["verify_s"] is not None]),
        "pairs_per_s": len(ok) / wall,
        "reference_s": {"p50": statistics.median(refs), "min": min(refs),
                        "samples": len(refs)},
    }
    return metrics, wall_clock


def traced_replay(workload, untraced, sink, spans_path):
    """Replay the given records' pairs, then the workload's extra pairs,
    under the tracer.  The overhead compares the replayed pairs with
    their untraced calls."""
    from tracer import Tracer
    tr = Tracer()
    tr.install()
    try:
        recs = [run_pair(r["pair"], sink, tr) for r in untraced]
        extra = [run_pair(pair, sink, tr) for pair in workload.traced_extra()]
    finally:
        tr.uninstall()
    tr.write_spans(spans_path)
    traced_s = sum(busy(r) for r in recs)
    untraced_s = sum(busy(r) for r in untraced)
    values, reasons = tr.metrics()
    values["trace.overhead"] = traced_s / untraced_s - 1
    cost = {"replay_traced_s": traced_s, "replay_untraced_s": untraced_s,
            "extra_traced_s": sum(busy(r) for r in extra),
            "split": command_split(tr, recs + extra)}
    return values, reasons, recs + extra, cost


def command_split(tr, recs):
    """Time of the traced connect and verify calls, and the self time of
    tower multiplications and divisions at levels 7-9 inside each."""
    roots = tr.roots()
    kinds = []
    for r in recs:
        kinds.append("connect")
        if r["verify_rc"] is not None:
            kinds.append("verify")
    if len(roots) != len(kinds):
        return None
    deep = ["tower.%s@%d" % (op, lv) for op in ("mul", "div")
            for lv in (7, 8, 9)]
    own = tr.self_time_by_root(deep)
    out = {}
    for kind, (idx, dur) in zip(kinds, roots):
        side = out.setdefault(kind, {"s": 0.0, "tower_l7_l9_self_s": 0.0})
        side["s"] += dur
        side["tower_l7_l9_self_s"] += own.get(idx, 0.0)
    for side in out.values():
        side["tower_l7_l9_share"] = side["tower_l7_l9_self_s"] / side["s"]
    return out


def coverage_check(work, sink):
    """A tiny traced run: every traced name the package defines must
    record at least one call.  Returns the names that recorded none."""
    from tracer import Tracer
    from workloads import Workload, hexagonal_pencil
    tr = Tracer()
    calls = []
    for name in ("ci-rational", "quadric-grid"):
        wl = Workload(name, 0, os.path.join(work, "coverage-" + name))
        wl.setup()
        batch = next(wl.batches())
        # one pair of each kind the workload makes
        seen = {}
        for pair in batch:
            seen.setdefault(pair.kind, pair)
        calls.extend(seen.values())
    pencil = os.path.join(work, "coverage-ci-rational", "hexagonal.pf")
    extra = [
        ["eacx-build", "--lambdas", "0,1,2,3,4,5",
         "--out", os.path.join(work, "coverage-eacx.pf")],
        ["find-line", "--pencil", pencil, "--point=1,0,0,0,0,0",
         "--out", os.path.join(work, "coverage-line.json")],
    ]
    tr.install()
    try:
        for pair in calls:
            run_pair(pair, sink, tr)
        for argv in extra:
            run_cli(argv, sink)
        # no CLI path on these inputs needs a random point of X
        pencils = sys.modules["quadcyl.pencils"]
        if hasattr(pencils, "point_on_intersection"):
            pencils.point_on_intersection(hexagonal_pencil(),
                                          rng=random.Random(0))
    finally:
        tr.uninstall()
    return tr.never_called()


def main():
    ap = argparse.ArgumentParser(description="quadcyl connect/verify benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    import_quadcyl()
    from workloads import WORKLOADS, Workload
    if args.workload not in WORKLOADS:
        fail("unknown workload %r; choose from %s" % (args.workload,
                                                      ", ".join(WORKLOADS)))
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    work = os.path.join(OUT, "work-%s-%d" % (tag, os.getpid()))
    os.makedirs(OUT, exist_ok=True)
    sink = Sink()
    try:
        workload = Workload(args.workload, args.seed, work)
        setups = [setup_once(workload) for _ in range(SETUP_EDGE)]
        records, wall, rounds = timed_phase(workload, args.seconds, sink,
                                            setups)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setups += [setup_once(workload) for _ in range(SETUP_EDGE)]
        startup, build = [s for s, _ in setups], [b for _, b in setups]
        setup_s = statistics.median(startup) + statistics.median(build)
        sizes, heights = certificate_stats(rounds[0])
        metrics, wall_clock = end_to_end(
            records, wall, setup_s, peak_rss_mb, sizes, heights)
        control = negative_control(workload, records, sink)
        failed = sum(1 for r in records if not r["ok"])
        correct = failed == 0 and control["rejected"]
        report = {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "metadata": metadata(),
            "end_to_end": {k: {"value": v, "unit": u}
                           for k, (v, u) in metrics.items()},
            "wall_clock": wall_clock,
            "failed_frac": failed / len(records),
            "timed_wall_s": wall,
            "setup": {"startup_s": startup, "documents_s": build},
            "samples": {"pairs": len(rounds[0]), "rounds": len(rounds)},
            "negative_control": control,
            "failures": [{"pair": r["pair"].index,
                          "argv": r["pair"].connect,
                          "connect_rc": r["connect_rc"],
                          "verify_rc": r["verify_rc"],
                          "message": r["message"]}
                         for r in records if not r["ok"]][:10],
        }
        last = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        if args.trace:
            from tracer import metric_table
            spans = os.path.join(OUT, "spans-%s.txt" % tag)
            values, reasons, recs, cost = traced_replay(
                workload, leading(rounds[0], REPLAY_SECONDS), sink,
                spans)
            missing = coverage_check(work, sink)
            traced_ok = all(r["ok"] for r in recs)
            correct = correct and traced_ok and not missing
            last = {m: {"value": values[m], "unit": u}
                    for m, u, _ in metric_table()}
            report.update(per_layer=last, per_layer_notes=reasons,
                          trace_cost=cost, traced_pairs=len(recs),
                          traced_all_ok=traced_ok,
                          never_called=missing, spans_file=spans)
        report["correct"] = correct
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(os.path.join(OUT, "report-%s.json" % tag), "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True, default=str)
    print(json.dumps(report, sort_keys=True, default=str))
    print(json.dumps({"correct": correct, "attempted": len(records),
                      "failed": failed, "metrics": last}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
