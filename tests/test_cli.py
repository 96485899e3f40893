"""End-to-end command line tests: exit codes and byte-exact outputs."""

import ast
import contextlib
import hashlib
import io
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from quadcyl.cli import main
from quadcyl.pencils import Line, Pencil
from quadcyl.projective import ProjPoint, QuadForm, quadform_from_terms, \
    rank_of, vec
from quadcyl.serialize import (
    certificate_from_obj, dumps, form_to_obj, line_from_obj, loads,
    path_to_obj, pencil_from_obj, pencil_to_obj, point_to_obj, xpath_to_obj,
)
from quadcyl.tower import Tower, as_scalar, scalar_from_obj


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    root = tmp_path_factory.mktemp("docs")
    tw = Tower.rationals()
    split = quadform_from_terms(4, {(0, 1): 1, (2, 3): 1})
    (root / "split.qf").write_text(dumps(form_to_obj(split, tw)))
    definite = quadform_from_terms(3, {(0, 0): 1, (1, 1): 1, (2, 2): 1})
    (root / "definite.qf").write_text(dumps(form_to_obj(definite, tw)))
    conic = quadform_from_terms(3, {(0, 1): 1, (2, 2): 1})
    (root / "conic.qf").write_text(dumps(form_to_obj(conic, tw)))
    rank2 = quadform_from_terms(3, {(0, 1): 1})
    (root / "rank2.qf").write_text(dumps(form_to_obj(rank2, tw)))
    beta = quadform_from_terms(6, {(0, 1): 1, (2, 3): 1, (4, 5): 1})
    gamma = quadform_from_terms(6, {(0, 5): 1, (1, 2): 1, (3, 4): 1})
    (root / "hex.pf").write_text(dumps(pencil_to_obj(Pencil(beta, gamma),
                                                     tw)))
    return root


def run(*argv) -> int:
    return main([str(a) for a in argv])


class TestNormalize:

    def test_hyperbolic_definite_adjoins_minus_one(self, docs, tmp_path):
        out = tmp_path / "frame.json"
        assert run("normalize", "--hyperbolic", docs / "definite.qf",
                   "--out", out) == 0
        obj = loads(out.read_text())
        assert obj["style"] == "hyperbolic"
        assert obj["radicands"] == ["-1/1"]
        assert obj["pairs"] == 1 and obj["has_z"] is True

    def test_hyperbolic_congruence_witness(self, docs, tmp_path):
        out = tmp_path / "frame.json"
        run("normalize", "--hyperbolic", docs / "definite.qf", "--out", out)
        obj = loads(out.read_text())
        from quadcyl.charts import hyperbolic_target
        from quadcyl.tower import tower_from_obj
        tw = tower_from_obj(obj["radicands"])
        n = obj["size"]
        cells = [scalar_from_obj(c, tw) for c in obj["result"]]
        result = tuple(tuple(cells[i * n:(i + 1) * n]) for i in range(n))
        assert result == hyperbolic_target(n, obj["pairs"],
                                           obj["has_z"]).matrix

    def test_ctsq_identity_frame(self, docs, tmp_path):
        out = tmp_path / "frame.json"
        assert run("normalize", "--ctsq", "--point", "0,1,0",
                   docs / "conic.qf", "--out", out) == 0
        obj = loads(out.read_text())
        n = obj["size"]
        expect = ["1/1" if i == j else "0/1"
                  for i in range(n) for j in range(n)]
        assert obj["witness"] == expect

    def test_rank_too_low(self, docs, tmp_path, capsys):
        assert run("normalize", "--hyperbolic", docs / "rank2.qf") == 2
        assert "rank 2" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert run("normalize", "--hyperbolic", tmp_path / "nope.qf") == 2


class TestConnect:

    def test_complement_connect_then_verify(self, docs, tmp_path):
        cert = tmp_path / "c.cert"
        assert run("connect", "complement", "--form", docs / "split.qf",
                   "--from", "1,1,0,0", "--to", "0,3,1,5", "--seed", 7,
                   "--out", cert) == 0
        assert run("verify", cert, "--form", docs / "split.qf",
                   "--out", tmp_path / "v.json") == 0

    def test_byte_identical_reruns(self, docs, tmp_path):
        a, b = tmp_path / "a.cert", tmp_path / "b.cert"
        for out in (a, b):
            run("connect", "complement", "--form", docs / "split.qf",
                "--from", "1,1,0,0", "--to", "0,3,1,5", "--seed", 7,
                "--out", out)
        assert a.read_bytes() == b.read_bytes()

    def test_grid_cone_certificate_golden(self, tmp_path):
        # x0 x1 + x2 x3 + x4^2 on P^5, a cone with one vertex coordinate;
        # (0:0:0:0:1:3) lies in no U or V chart, so the path starts in the
        # W chart.  The bytes pin the frame every complement chart uses.
        from quadcyl.charts import hyperbolic_target
        form, cert = tmp_path / "grid-6-5.qf", tmp_path / "c.cert"
        form.write_text(dumps(form_to_obj(hyperbolic_target(6, 2, True),
                                          Tower.rationals())))
        assert run("connect", "complement", "--form", form,
                   "--from", "0,0,0,0,1,3", "--to", "1,2,0,0,1,0",
                   "--out", cert) == 0
        data = cert.read_bytes()
        obj = loads(data.decode())
        # rank 5 joins both canonical points (1:t:0:...) through the first
        # two pairs, so it pays one radicand: q(p)/q(q) = 1/3 is not a
        # square, and 1/12 is in its square class
        assert len(obj["steps"]) == 4
        assert obj["radicands"] == ["1/12"]
        assert run("verify", cert, "--form", form,
                   "--out", tmp_path / "v.json") == 0
        assert hashlib.sha256(data).hexdigest() == (
            "b38a06f6e54d1891becfe8ab2539260c15b90501bdb89f0aa16cd0bfcf75b3ed")

    def test_unused_point_radicand_is_dropped(self, docs, tmp_path, capsys):
        # rational endpoints read from point documents over Q(sqrt 2): the
        # certificate, and the note on stderr, name only what it uses
        tw = Tower.rationals().extend(as_scalar(2))
        ends = []
        for name, coords in (("a.pt", (1, 1, 0, 0)), ("b.pt", (0, 3, 1, 5))):
            (tmp_path / name).write_text(
                dumps(point_to_obj(ProjPoint(vec(coords)), tw)))
            ends.append("@%s" % (tmp_path / name))
        cert = tmp_path / "c.cert"
        capsys.readouterr()
        assert run("connect", "complement", "--form", docs / "split.qf",
                   "--from", ends[0], "--to", ends[1], "--out", cert) == 0
        header = loads(cert.read_text())["radicands"]
        err = capsys.readouterr().err
        assert "2/1" not in header and "2/1" not in err
        assert "radicands: %s\n" % json.dumps(header) in err
        assert len(header) == 1  # q(a)/q(b) = 1/5 is not a square
        assert run("verify", cert, "--form", docs / "split.qf",
                   "--out", tmp_path / "v.json") == 0

    def test_reference_radicands_stay_as_the_prefix(self, tmp_path):
        # a form over Q(sqrt 2) with a rational matrix: no scalar of the
        # certificate uses sqrt 2, but verify reads the certificate
        # against the form, whose header must be its prefix
        from quadcyl.charts import hyperbolic_target
        form, cert = tmp_path / "r2.qf", tmp_path / "c.cert"
        form.write_text(dumps(form_to_obj(
            hyperbolic_target(4, 2, False),
            Tower.rationals().extend(as_scalar(2)))))
        assert run("connect", "complement", "--form", form,
                   "--from", "1,1,0,0", "--to", "0,3,1,5", "--out", cert) == 0
        assert loads(cert.read_text())["radicands"][0] == "2/1"
        assert run("verify", cert, "--form", form,
                   "--out", tmp_path / "v.json") == 0

    def test_equal_endpoints_zero_steps(self, docs, tmp_path):
        cert = tmp_path / "c.cert"
        assert run("connect", "complement", "--form", docs / "split.qf",
                   "--from", "1,1,0,0", "--to", "1,1,0,0",
                   "--out", cert) == 0
        assert loads(cert.read_text())["steps"] == []

    def test_quadric_connect_then_verify(self, docs, tmp_path):
        cert = tmp_path / "q.cert"
        assert run("connect", "quadric", "--form", docs / "split.qf",
                   "--from", "1,0,0,0", "--to", "0,0,1,0", "--seed", 5,
                   "--out", cert) == 0
        assert run("verify", cert, "--form", docs / "split.qf",
                   "--out", tmp_path / "v.json") == 0

    def test_ci_connect_then_verify(self, docs, tmp_path):
        cert = tmp_path / "x.cert"
        assert run("connect", "ci", "--pencil", docs / "hex.pf",
                   "--from", "1,0,0,0,0,0", "--to", "0,0,0,0,1,0",
                   "--seed", 3, "--out", cert) == 0
        assert run("verify", cert, "--pencil", docs / "hex.pf",
                   "--out", tmp_path / "v.json") == 0
        obj = loads((tmp_path / "v.json").read_text())
        assert obj["results"][0]["valid"] is True

    def test_ci_with_supplied_line(self, docs, tmp_path):
        line = tmp_path / "l.lf"
        assert run("find-line", "--pencil", docs / "hex.pf",
                   "--out", line) == 0
        cert = tmp_path / "x.cert"
        assert run("connect", "ci", "--pencil", docs / "hex.pf",
                   "--line", line, "--from", "1,0,0,0,0,0",
                   "--to", "0,1,0,0,0,0", "--out", cert) == 0
        assert run("verify", cert, "--pencil", docs / "hex.pf",
                   "--out", tmp_path / "v.json") == 0

    def test_point_off_quadric_rejected(self, docs, tmp_path, capsys):
        assert run("connect", "quadric", "--form", docs / "split.qf",
                   "--from", "1,1,0,0", "--to", "0,0,1,0") == 2

    @pytest.mark.parametrize("target, options, message", [
        ("ci", ["--pencil", "hex.pf", "--form", "garbage"],
         "--form is not for connect ci"),
        ("ci", [], "connect ci needs --pencil"),
        ("complement", ["--form", "split.qf", "--pencil", "hex.pf"],
         "--pencil/--line are only for connect ci"),
        ("quadric", ["--form", "split.qf", "--line", "garbage"],
         "--pencil/--line are only for connect ci"),
        ("complement", [], "connect complement needs --form"),
    ])
    def test_option_for_another_target_refused(self, docs, tmp_path, capsys,
                                               target, options, message):
        # "garbage" is a file that holds no document: the refusal comes
        # before any reference file is read
        files = {"hex.pf": docs / "hex.pf", "split.qf": docs / "split.qf",
                 "garbage": tmp_path / "garbage"}
        files["garbage"].write_text("garbage")
        cert = tmp_path / "c.cert"
        capsys.readouterr()
        assert run("connect", target, *[files.get(o, o) for o in options],
                   "--from", "1,0,0,0", "--to", "0,0,1,0",
                   "--out", cert) == 2
        assert capsys.readouterr().err == "error: %s\n" % message
        assert not cert.exists()

    def test_search_exhaustion_exit(self, docs, tmp_path):
        assert run("connect", "quadric", "--form", docs / "split.qf",
                   "--from", "1,0,0,0", "--to", "0,0,1,0",
                   "--retry-limit", 0) == 3

    def test_tower_limit_exit(self, docs, tmp_path):
        assert run("normalize", "--hyperbolic", docs / "definite.qf",
                   "--tower-limit", 0) == 4


class TestCountRanges:
    """The parser refuses --samples below 1 and --retry-limit or
    --tower-limit below 0 (exit 2), before any document is read.  Each
    command here, given a legal count, reads valid documents; 0 stays
    legal for the two limits (test_search_exhaustion_exit,
    test_tower_limit_exit)."""

    @pytest.fixture
    def audit_docs(self, tmp_path):
        pf, line = tmp_path / "diag.pf", tmp_path / "diag.lf"
        assert run("eacx-build", "--lambdas", "0,1,2,3,4,5", "--out", pf) == 0
        assert run("find-line", "--pencil", pf, "--out", line) == 0
        assert run("audit", "--pencil", pf, "--line", line,
                   "--samples", 1, "--out", tmp_path / "a.json") == 0
        return pf, line

    @pytest.mark.parametrize("flag, value, low", [
        ("--samples", -4, 1), ("--samples", 0, 1), ("--tower-limit", -1, 0)])
    def test_audit(self, audit_docs, capsys, flag, value, low):
        pf, line = audit_docs
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run("audit", "--pencil", pf, "--line", line, flag, value)
        assert exc.value.code == 2
        assert "argument %s: must be at least %d" % (flag, low) in \
            capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("connect", "quadric", "--form", "split.qf", "--from", "1,0,0,0",
         "--to", "0,0,1,0", "--retry-limit", -3),
        ("find-line", "--pencil", "hex.pf", "--retry-limit", -1),
        ("normalize", "--hyperbolic", "definite.qf", "--tower-limit", -1)])
    def test_limits(self, docs, capsys, argv):
        argv = [docs / a if str(a).endswith((".qf", ".pf")) else a
                for a in argv]
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 2
        assert "must be at least 0" in capsys.readouterr().err


class TestDashLeadingValues:
    """Values such as "-3/2,1,0,1" may follow their flag as a separate
    argument, not only as --flag=value."""

    def test_connect_from_and_to(self, docs, tmp_path):
        a, b = tmp_path / "a.cert", tmp_path / "b.cert"
        assert run("connect", "complement", "--form", docs / "split.qf",
                   "--from", "-3/2,1,0,1", "--to", "-1,3,1,5",
                   "--out", a) == 0
        assert run("connect", "complement", "--form", docs / "split.qf",
                   "--from=-3/2,1,0,1", "--to=-1,3,1,5", "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()
        assert run("verify", a, "--form", docs / "split.qf",
                   "--out", tmp_path / "v.json") == 0

    def test_normalize_point(self, docs, tmp_path):
        assert run("normalize", "--ctsq", "--point", "-1,1,1",
                   docs / "conic.qf", "--out", tmp_path / "f.json") == 0

    def test_find_line_point(self, docs, tmp_path):
        assert run("find-line", "--pencil", docs / "hex.pf",
                   "--point", "-1,0,0,0,0,0",
                   "--out", tmp_path / "l.lf") == 0

    def test_eacx_lambdas(self, tmp_path):
        assert run("eacx-build", "--lambdas", "-1,0,1,2,3,4",
                   "--out", tmp_path / "p.pf") == 0


class TestPointLength:
    """A point whose coordinate count differs from the form's or the
    pencil's size is an input error, inline or from a point document."""

    @pytest.mark.parametrize("argv", [
        ("connect", "complement", "--form", "{docs}/split.qf",
         "--from", "1,2", "--to", "0,3,1,5"),
        ("connect", "quadric", "--form", "{docs}/split.qf",
         "--from", "1,0,0,0", "--to", "0,0,1,0,0"),
        ("connect", "ci", "--pencil", "{docs}/hex.pf",
         "--from", "1,0,0,0,0,0,9", "--to", "0,0,0,0,1,0"),
        ("normalize", "--ctsq", "--point", "1,0", "{docs}/conic.qf"),
        ("find-line", "--pencil", "{docs}/hex.pf",
         "--point", "1,0,0,0,0,0,9"),
        ("connect", "complement", "--form", "{docs}/split.qf",
         "--from", "@{tmp}/short.pt", "--to", "0,3,1,5"),
    ], ids=["complement", "quadric", "ci", "normalize", "find-line",
            "point-document"])
    def test_wrong_length_is_input_error(self, docs, tmp_path, capsys,
                                         argv):
        (tmp_path / "short.pt").write_text(dumps(point_to_obj(
            ProjPoint(vec([1, 1, 0])), Tower.rationals())))
        argv = [a.format(docs=docs, tmp=tmp_path) for a in argv]
        assert run(*argv, "--out", tmp_path / "out.json") == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: point ")
        assert not (tmp_path / "out.json").exists()


# A one-step `connect complement` certificate on hyperbolic_target(4, 2,
# False) over the radicand header ["4/1"], from (1 : s-2 : 0 : 0) to
# (1 : s-3 : 1 : 1) with s = sqrt(4).  It replays as valid over a tower
# that adjoins sqrt(4), yet with s = 2 its start point (1:0:0:0) lies on
# the quadric.  Tower.extend refuses that radicand, so the library can no
# longer build this text; it is frozen here.
SQRT4_CERT = (
    '{"form":["0/1","1/2","0/1","0/1","1/2","0/1","0/1","0/1",'
    '"0/1","0/1","0/1","1/2","0/1","0/1","1/2","0/1"],'
    '"from":["1/1",{"a":"-2/1","b":"1/1","level":1},"0/1","0/1"],'
    '"kind":"certificate","problem":"complement",'
    '"radicands":["4/1"],"size":4,"steps":[{"chart":{"dep":1,'
    '"dist":0,"matrix":["1/1","0/1","0/1","0/1","0/1","1/1","0/1",'
    '"0/1","0/1","0/1","1/1","0/1","0/1","0/1","0/1","1/1"]},'
    '"entry":["1/1",{"a":"-2/1","b":"1/1","level":1},"0/1","0/1"],'
    '"exit":["1/1",{"a":"-3/1","b":"1/1","level":1},"1/1","1/1"],'
    '"target":["1/1","1/1"]}],"to":["1/1",{"a":"-3/1","b":"1/1",'
    '"level":1},"1/1","1/1"],"version":3}'
)

# SQRT4_CERT over the header ["2/1","3/1","6/1"], with z = sqrt6 -
# sqrt2*sqrt3 in place of s-2 and z-1 in place of s-3.  sqrt(6) already
# lies in Q(sqrt2, sqrt3), so z is zero in the field although its tree is
# not, and the start point (1:0:0:0) lies on the quadric; a tower that
# adjoins sqrt(6) after sqrt(2) and sqrt(3) replays it as valid.
SQRT6_CERT = (
    '{"form":["0/1","1/2","0/1","0/1","1/2","0/1","0/1","0/1",'
    '"0/1","0/1","0/1","1/2","0/1","0/1","1/2","0/1"],'
    '"from":["1/1",{"a":{"a":"0/1","b":{"a":"0/1","b":"-1/1",'
    '"level":1},"level":2},"b":"1/1","level":3},"0/1","0/1"],'
    '"kind":"certificate","problem":"complement",'
    '"radicands":["2/1","3/1","6/1"],"size":4,"steps":[{"chart":'
    '{"dep":1,"dist":0,"matrix":["1/1","0/1","0/1","0/1","0/1","1/1",'
    '"0/1","0/1","0/1","0/1","1/1","0/1","0/1","0/1","0/1","1/1"]},'
    '"entry":["1/1",{"a":{"a":"0/1","b":{"a":"0/1","b":"-1/1",'
    '"level":1},"level":2},"b":"1/1","level":3},"0/1","0/1"],'
    '"exit":["1/1",{"a":{"a":"-1/1","b":{"a":"0/1","b":"-1/1",'
    '"level":1},"level":2},"b":"1/1","level":3},"1/1","1/1"],'
    '"target":["1/1","1/1"]}],"to":["1/1",{"a":{"a":"-1/1","b":'
    '{"a":"0/1","b":"-1/1","level":1},"level":2},"b":"1/1",'
    '"level":3},"1/1","1/1"],"version":3}'
)


def planted(header, z, z_minus_one):
    """SQRT4_CERT over another header, with the node z in place of s-2
    and z_minus_one in place of s-3 (each given as its JSON text)."""
    text = SQRT4_CERT.replace('["4/1"]', header)
    text = text.replace('{"a":"-2/1","b":"1/1","level":1}', z)
    return text.replace('{"a":"-3/1","b":"1/1","level":1}', z_minus_one)


# Headers that square detection through rational radicands cannot refuse,
# each with a planted z that is zero in its field: 9 + 6*sqrt2 =
# 3*(1 + sqrt2)^2, so z = sqrt(9 + 6*sqrt2) - sqrt3*(1 + sqrt2);
# z = sqrt((1 + sqrt2 + sqrt3)^2) - (1 + sqrt2 + sqrt3); and 3 + 2*sqrt2 =
# (1 + sqrt2)^2, so z = sqrt(3 + 2*sqrt2) - 1 - sqrt2.
NESTED_HIDDEN_ZEROS = {
    "nested-class": planted(
        '["2/1",{"a":"9/1","b":"6/1","level":1},"3/1"]',
        '{"a":{"a":"0/1","b":"1/1","level":2},'
        '"b":{"a":"-1/1","b":"-1/1","level":1},"level":3}',
        '{"a":{"a":"-1/1","b":"1/1","level":2},'
        '"b":{"a":"-1/1","b":"-1/1","level":1},"level":3}'),
    "nested-square": planted(
        '["2/1","3/1",{"a":{"a":"6/1","b":"2/1","level":1},'
        '"b":{"a":"2/1","b":"2/1","level":1},"level":2}]',
        '{"a":{"a":{"a":"-1/1","b":"-1/1","level":1},"b":"-1/1",'
        '"level":2},"b":"1/1","level":3}',
        '{"a":{"a":{"a":"-2/1","b":"-1/1","level":1},"b":"-1/1",'
        '"level":2},"b":"1/1","level":3}'),
    "nested-unit": planted(
        '["2/1",{"a":"3/1","b":"2/1","level":1}]',
        '{"a":{"a":"-1/1","b":"-1/1","level":1},"b":"1/1","level":2}',
        '{"a":{"a":"-2/1","b":"-1/1","level":1},"b":"1/1","level":2}'),
}


@st.composite
def kummer_headers(draw):
    """2 to 6 distinct rational primes, with the product of two or more of
    them times a rational square planted among them."""
    primes = draw(st.lists(st.sampled_from((2, 3, 5, 7, 11, 13, 17, 19)),
                           min_size=2, max_size=6, unique=True))
    factors = draw(st.lists(st.sampled_from(primes), min_size=2,
                            unique=True))
    root = Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 9)))
    product = math.prod(factors) * root * root
    header = ["%d/1" % p for p in primes]
    header.insert(draw(st.integers(0, len(primes))),
                  "%d/%d" % (product.numerator, product.denominator))
    return header


class TestHiddenZeros:
    """A header whose tower is not a field lets a coordinate be zero in
    the field yet structurally nonzero, so a certificate that starts on
    the quadric replays as valid.  Every such header must exit 2."""

    @pytest.fixture
    def form(self, tmp_path):
        from quadcyl.charts import hyperbolic_target
        path = tmp_path / "q.qf"
        path.write_text(dumps(form_to_obj(hyperbolic_target(4, 2, False),
                                          Tower.rationals())))
        return path

    def verify(self, form, tmp_path, capsys, text):
        cert = tmp_path / "planted.cert"
        cert.write_text(text + "\n")
        capsys.readouterr()
        code = run("verify", cert, "--form", form,
                   "--out", tmp_path / "v.json")
        return code, capsys.readouterr().err

    def test_sqrt6_is_refused(self, form, tmp_path, capsys):
        code, err = self.verify(form, tmp_path, capsys, SQRT6_CERT)
        assert code == 2 and "already has a square root" in err

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 3 step 2: square "
                       "detection does not yet find roots through nested "
                       "radicands")
    @pytest.mark.parametrize("name", sorted(NESTED_HIDDEN_ZEROS))
    def test_nested_is_refused(self, form, tmp_path, capsys, name):
        code, err = self.verify(form, tmp_path, capsys,
                                NESTED_HIDDEN_ZEROS[name])
        assert code == 2 and "already has a square root" in err

    @pytest.mark.parametrize(
        "text", [SQRT6_CERT, *NESTED_HIDDEN_ZEROS.values()],
        ids=["sqrt6", *NESTED_HIDDEN_ZEROS])
    def test_planted_coordinate_is_zero(self, text):
        # an independent oracle: each radicand as a sympy square root, by
        # its header, and the start point's second coordinate from there
        sympy = pytest.importorskip("sympy")

        def value(obj):
            if isinstance(obj, str):
                return sympy.Rational(obj)
            return value(obj["a"]) + value(obj["b"]) * roots[obj["level"] - 1]
        obj = loads(text)
        roots = []
        for rad in obj["radicands"]:
            roots.append(sympy.sqrt(value(rad)))
        z = obj["from"][1]
        assert isinstance(z, dict)  # structurally nonzero
        x = sympy.Symbol("x")
        assert sympy.minimal_polynomial(value(z), x) == x


class TestVerify:

    def test_radicand_with_a_root_is_refused(self, tmp_path, capsys):
        from quadcyl.charts import hyperbolic_target
        form = tmp_path / "q.qf"
        form.write_text(dumps(form_to_obj(hyperbolic_target(4, 2, False),
                                          Tower.rationals())))
        cert = tmp_path / "sqrt4.cert"
        cert.write_text(SQRT4_CERT + "\n")
        assert loads(SQRT4_CERT)["radicands"] == ["4/1"]
        assert run("verify", cert, "--form", form,
                   "--out", tmp_path / "v.json") == 2
        assert "already has a square root" in capsys.readouterr().err

    @pytest.mark.parametrize("header", [
        ["1/4"], ["2/1", "2/1"], ["2/1", "8/1"],
        # products of rational radicands: 6 = 2*3, 24 = 2*3*2^2,
        # 10/9 = 2*5/3^2 and 30 = 2*3*5
        ["2/1", "3/1", "6/1"], ["2/1", "3/1", "24/1"], ["2/1", "5/1", "10/9"],
        ["2/1", "3/1", "5/1", "30/1"],
    ])
    def test_point_header_with_a_root_is_refused(self, docs, tmp_path,
                                                 capsys, header):
        pt = tmp_path / "p.pt"
        pt.write_text(dumps({"coords": ["1/1", "1/1", "0/1", "0/1"],
                             "kind": "point", "radicands": header,
                             "size": 4}))
        assert run("connect", "complement", "--form", docs / "split.qf",
                   "--from", "@%s" % pt, "--to", "0,3,1,5",
                   "--out", tmp_path / "c.cert") == 2
        assert "already has a square root" in capsys.readouterr().err
        assert not (tmp_path / "c.cert").exists()

    @given(kummer_headers())
    def test_planted_product_header_is_refused(self, docs, tmp_path_factory,
                                               header):
        pt = tmp_path_factory.getbasetemp() / "kummer.pt"
        pt.write_text(dumps({"coords": ["1/1", "1/1", "0/1", "0/1"],
                             "kind": "point", "radicands": header,
                             "size": 4}))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run("connect", "complement", "--form", docs / "split.qf",
                       "--from", "@%s" % pt, "--to", "0,3,1,5")
        assert code == 2 and "already has a square root" in err.getvalue()

    @pytest.mark.parametrize("change, named", [
        (lambda doc: doc.update(junk=1), "unknown key 'junk'"),
        (lambda doc: doc.pop("radicands"), "missing 'radicands'"),
    ], ids=["unknown-key", "no-radicands"])
    def test_form_with_other_keys_is_refused(self, docs, tmp_path, capsys,
                                             change, named):
        doc = loads((docs / "split.qf").read_text())
        change(doc)
        form = tmp_path / "f.qf"
        form.write_text(dumps(doc))
        assert run("connect", "complement", "--form", form, "--from",
                   "1,1,0,0", "--to", "0,3,1,5") == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("count", [1, 2])
    @pytest.mark.parametrize("change, code, message", [
        (lambda doc: doc.update(matrx=doc.pop("matrix")), 2,
         "form document is missing 'matrix'"),
        (lambda doc: doc.update(radicands=["2/1", "3/1"]), 4,
         "tower height limit 1 exceeded"),
    ], ids=["misspelt-key", "too-deep"])
    def test_broken_reference_is_named(self, docs, tmp_path, capsys, count,
                                       change, code, message):
        # a reference that cannot be read fails every certificate alike,
        # so the error names it once, not the certificates, and no report
        # is written
        cert = self.make_cert(docs, tmp_path)
        other = tmp_path / "c2.cert"
        other.write_bytes(cert.read_bytes())
        doc = loads((docs / "split.qf").read_text())
        change(doc)
        bad = tmp_path / "bad.qf"
        bad.write_text(dumps(doc))
        out = tmp_path / "v.json"
        capsys.readouterr()
        assert run("verify", "--form", bad, *[cert, other][:count],
                   "--tower-limit", 1, "--out", out) == code
        assert capsys.readouterr().err == "error: %s: %s\n" % (bad, message)
        assert not out.exists()

    def test_reference_parsed_once_per_command(self, docs, tmp_path,
                                               monkeypatch):
        from quadcyl import serialize
        cert = self.make_cert(docs, tmp_path)
        others = [tmp_path / "c2.cert", tmp_path / "c3.cert"]
        for other in others:
            other.write_bytes(cert.read_bytes())
        parse, calls = serialize.form_from_obj, []

        def counting(*args):
            calls.append(args)
            return parse(*args)
        monkeypatch.setattr(serialize, "form_from_obj", counting)
        assert run("verify", "--form", docs / "split.qf", cert, *others,
                   "--out", tmp_path / "v.json") == 0
        assert len(calls) == 1
        assert run("verify", "--form", docs / "split.qf", cert,
                   "--out", tmp_path / "v.json") == 0
        assert len(calls) == 2

    def make_cert(self, docs, tmp_path):
        cert = tmp_path / "c.cert"
        run("connect", "complement", "--form", docs / "split.qf",
            "--from", "1,1,0,0", "--to", "0,3,1,5", "--seed", 7,
            "--out", cert)
        return cert

    def test_corrupted_scalar_fails(self, docs, tmp_path):
        cert = self.make_cert(docs, tmp_path)
        bad = tmp_path / "bad.cert"
        obj = loads(cert.read_text())
        obj["steps"][0]["target"][-1] = "4/3"
        bad.write_text(dumps(obj))
        out = tmp_path / "v.json"
        assert run("verify", bad, "--form", docs / "split.qf",
                   "--out", out) == 1
        rep = loads(out.read_text())["results"][0]
        assert rep["valid"] is False
        assert "step" in rep["reason"]

    def test_wrong_form_fails(self, docs, tmp_path):
        cert = self.make_cert(docs, tmp_path)
        assert run("verify", cert, "--form", docs / "definite.qf",
                   "--out", tmp_path / "v.json") == 1

    def test_tower_limit_overflow_exits_4(self, docs, tmp_path, capsys):
        # a certificate deeper than --tower-limit exits 4, as connect does
        cert = tmp_path / "deep.cert"
        assert run("connect", "complement", "--form", docs / "definite.qf",
                   "--from", "1,2,3", "--to", "2,-1,5", "--out", cert) == 0
        assert len(loads(cert.read_text())["radicands"]) == 3
        capsys.readouterr()
        out = tmp_path / "v.json"
        assert run("verify", cert, "--form", docs / "definite.qf",
                   "--tower-limit", 1, "--out", out) == 4
        assert capsys.readouterr().err == \
            "error: %s: tower height limit 1 exceeded\n" % cert
        rep = loads(out.read_text())["results"][0]
        assert rep["valid"] is False and "limit 1" in rep["error"]

    def test_malformed_json_is_input_error(self, docs, tmp_path):
        bad = tmp_path / "broken.cert"
        bad.write_text("{nope")
        assert run("verify", bad, "--form", docs / "split.qf",
                   "--out", tmp_path / "v.json") == 2

    def test_deeply_nested_document_is_input_error(self, docs, tmp_path,
                                                   capsys):
        depth = 100000
        deep = tmp_path / "deep.json"
        deep.write_text(
            '{"kind": "point", "size": 4, "radicands": [], "coords": ['
            + '{"a": ' * depth + '"1/1"' + ', "b": "1/1", "level": 1}' * depth
            + ', "0/1", "0/1", "0/1"]}')
        capsys.readouterr()
        assert run("verify", deep, "--form", docs / "split.qf",
                   "--out", tmp_path / "v.json") == 2
        assert run("connect", "complement", "--form", docs / "split.qf",
                   "--from", "@%s" % deep, "--to", "1,1,0,0") == 2
        err = capsys.readouterr().err
        assert "nested too deeply" in err
        assert "Traceback" not in err

    def test_deeply_nested_extra_chart_key_is_input_error(self, docs,
                                                          tmp_path, capsys):
        # shallow enough for the JSON parser, even under the test runner's
        # own stack, so only the exact key set of a step chart keeps the
        # reader from walking it
        cert = self.make_cert(docs, tmp_path)
        obj = loads(cert.read_text())
        obj["steps"][0]["chart"]["extra"] = "@"
        depth = 800
        deep = tmp_path / "deep.cert"
        deep.write_text(dumps(obj).replace('"@"', "[" * depth + "]" * depth))
        capsys.readouterr()
        assert run("verify", deep, "--form", docs / "split.qf",
                   "--out", tmp_path / "v.json") == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "unknown key 'extra'" in err
        assert "Traceback" not in err

    def test_unexpected_exception_is_internal_error(self, docs, tmp_path,
                                                    capsys, monkeypatch):
        import quadcyl.cli as cli

        def broken(args):
            raise RuntimeError("simulated\ndefect")
        monkeypatch.setattr(cli, "cmd_verify", broken)
        cert = self.make_cert(docs, tmp_path)
        capsys.readouterr()
        assert run("verify", cert, "--form", docs / "split.qf") == 5
        err = capsys.readouterr().err
        assert err == \
            "error: internal error: RuntimeError('simulated\\ndefect')\n"

    def test_over_long_integer_certificate_is_reported(self, docs,
                                                          tmp_path, capsys):
        # json refuses an integer literal past Python's limit on digits
        # converted from text (4300 by default) with a plain ValueError; the
        # certificate holding one gets its own report entry, as "{nope" does
        cert = self.make_cert(docs, tmp_path)
        huge, bad = tmp_path / "huge.cert", tmp_path / "broken.cert"
        huge.write_text('{"kind": "certificate", "size": %s}' % ("7" * 5001))
        bad.write_text("{nope")
        out = tmp_path / "v.json"
        capsys.readouterr()
        assert run("verify", "--form", docs / "split.qf", cert, huge, bad,
                   "--out", out) == 2
        results = loads(out.read_text())["results"]
        assert [r["valid"] for r in results] == [True, False, False]
        assert results[1]["file"] == str(huge)
        assert results[1]["error"].startswith("not valid JSON: Exceeds")
        assert results[2]["error"].startswith("not valid JSON")
        err = capsys.readouterr().err
        assert err.startswith("error: %s: not valid JSON" % bad)
        assert run("verify", "--form", docs / "split.qf", bad, huge,
                   "--out", out) == 2
        assert capsys.readouterr().err.startswith(
            "error: %s: not valid JSON: Exceeds" % huge)

    @pytest.mark.parametrize("digits, message", [
        (5001, "not valid JSON: Exceeds the limit (4300 digits)"),
        # below the limit, but size * size is above it
        (4000, "form matrix must hold 999"),
    ], ids=["over-limit", "square-over-limit"])
    def test_long_size_reference_is_named(self, docs, tmp_path, capsys,
                                          digits, message):
        cert = self.make_cert(docs, tmp_path)
        ref = tmp_path / "huge.qf"
        ref.write_text((docs / "split.qf").read_text().replace(
            '"size":4', '"size":%s' % ("9" * digits)))
        out = tmp_path / "v.json"
        capsys.readouterr()
        assert run("verify", "--form", ref, cert, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: %s: %s" % (ref, message))
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()

    def test_cli_import_loads_no_process_pool(self):
        import os
        import subprocess
        import sys
        import quadcyl
        src = os.path.dirname(os.path.dirname(quadcyl.__file__))
        code = ("import sys, quadcyl.cli; print(sorted(m for m in sys.modules"
                " if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
        done = subprocess.run([sys.executable, "-c", code], check=True,
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=60)
        assert done.stdout == "[]\n"

    @pytest.mark.parametrize("ref, target, ends", [
        ("split.qf", "complement", ("1,1,0,0", "0,3,1,5")),
        ("hex.pf", "ci", ("1,0,0,0,0,0", "0,0,0,0,1,0")),
    ], ids=["form", "pencil"])
    def test_indented_files_still_verify(self, docs, tmp_path, ref, target,
                                         ends):
        # files written with the earlier two-space indent carry the same
        # keys and values, so format version 3 reads them unchanged
        flag = "--pencil" if ref.endswith(".pf") else "--form"
        ref_doc, cert = tmp_path / ref, tmp_path / "c.cert"
        ref_doc.write_bytes((docs / ref).read_bytes())
        assert run("connect", target, flag, ref_doc, "--from", ends[0],
                   "--to", ends[1], "--seed", 3, "--out", cert) == 0
        compact = cert.read_text()
        report = tmp_path / "v.json"
        assert run("verify", cert, flag, ref_doc, "--out", report) == 0
        compact_report = report.read_bytes()
        for doc in (ref_doc, cert):
            doc.write_text(json.dumps(loads(doc.read_text()), sort_keys=True,
                                      indent=2) + "\n")
        assert cert.read_text() != compact
        assert run("verify", cert, flag, ref_doc, "--out", report) == 0
        assert report.read_bytes() == compact_report
        back = certificate_from_obj(loads(cert.read_text()))
        to_obj = xpath_to_obj if target == "ci" else path_to_obj
        assert dumps(to_obj(back)) == compact

    def test_needs_exactly_one_reference(self, docs, tmp_path):
        cert = self.make_cert(docs, tmp_path)
        assert run("verify", cert) == 2
        assert run("verify", cert, "--form", docs / "split.qf",
                   "--pencil", docs / "hex.pf") == 2


class TestAuditAndBuilders:

    def test_eacx_build_and_audit(self, docs, tmp_path):
        pf = tmp_path / "diag.pf"
        assert run("eacx-build", "--lambdas", "0,1,2,3,4,5",
                   "--out", pf) == 0
        pen, _ = pencil_from_obj(loads(pf.read_text()))
        assert pen.beta.matrix[0][0] == as_scalar(1)
        assert pen.gamma.matrix[5][5] == as_scalar(5)
        line = tmp_path / "diag.lf"
        assert run("find-line", "--pencil", pf, "--out", line) == 0
        out = tmp_path / "audit.json"
        assert run("audit", "--pencil", pf, "--line", line,
                   "--out", out) == 0
        obj = loads(out.read_text())
        assert obj["smooth"] is True
        assert obj["image_rank"] in (3, 4)
        assert obj["degrees"]["total_degree"] == 3
        assert obj["round_trip_failures"] == 0

    @pytest.mark.parametrize("seed", [3030, 73529])
    def test_audit_redraws_zero_image_point(self, tmp_path, seed):
        # these seeds draw the all-zero image vector among their samples
        pf = tmp_path / "diag.pf"
        assert run("eacx-build", "--lambdas", "0,1,2,3,4,5",
                   "--out", pf) == 0
        line = tmp_path / "diag.lf"
        assert run("find-line", "--pencil", pf, "--out", line) == 0
        out = tmp_path / "audit.json"
        assert run("audit", "--pencil", pf, "--line", line,
                   "--seed", seed, "--out", out) == 0
        obj = loads(out.read_text())
        assert obj["round_trips"] == 25
        assert obj["round_trip_failures"] == 0

    def test_audit_discriminant_readable(self, tmp_path):
        # the discriminant of a pencil over Q(sqrt 2) names level 1, so the
        # report carries the pencil's radicands to read it against
        from quadcyl.pencils import eacx_build, pencil_smoothness
        from quadcyl.tower import tower_from_obj
        tw = Tower.rationals().extend(as_scalar(2))
        pencil = eacx_build([0, 1, 2, 3, 4, tw.generator(1)])
        pf, line = tmp_path / "r2.pf", tmp_path / "r2.lf"
        pf.write_text(dumps(pencil_to_obj(pencil, tw)))
        assert run("find-line", "--pencil", pf, "--out", line) == 0
        out = tmp_path / "audit.json"
        assert run("audit", "--pencil", pf, "--line", line,
                   "--out", out) == 0
        obj = loads(out.read_text())
        assert obj["radicands"] == ["2/1"]
        rtw = tower_from_obj(obj["radicands"])
        disc = [scalar_from_obj(c, rtw)
                for c in obj["smoothness"]["discriminant"]]
        assert disc == pencil_smoothness(pencil).discriminant
        assert any(c.level != 0 for c in disc)

    def test_audit_bad_line_is_input_error(self, docs, tmp_path):
        line = tmp_path / "hex.lf"
        assert run("find-line", "--pencil", docs / "hex.pf",
                   "--out", line) == 0
        obj = loads(line.read_text())
        short = dict(obj, size=5, v1=obj["v1"][:5], v2=obj["v2"][:5])
        same = dict(obj, v2=obj["v1"])
        for bad in (short, same):
            line.write_text(dumps(bad))
            assert run("audit", "--pencil", docs / "hex.pf",
                       "--line", line) == 2

    @pytest.mark.parametrize("size", [5, 7])
    def test_connect_line_of_wrong_size_is_input_error(self, docs, tmp_path,
                                                       capsys, size):
        line = tmp_path / "hex.lf"
        assert run("find-line", "--pencil", docs / "hex.pf",
                   "--out", line) == 0
        obj = loads(line.read_text())
        pad = [obj["v1"][0]] * max(size - 6, 0)
        line.write_text(dumps(dict(obj, size=size, v1=(obj["v1"] + pad)[:size],
                                   v2=(obj["v2"] + pad)[:size])))
        capsys.readouterr()
        assert run("connect", "ci", "--pencil", docs / "hex.pf",
                   "--line", line, "--from", "1,0,0,0,0,0",
                   "--to", "0,1,0,0,0,0") == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: line and pencil sizes differ"]

    def test_eacx_duplicate_is_input_error(self, tmp_path, capsys):
        assert run("eacx-build", "--lambdas", "0,1,1,3,4,5") == 2

    def test_audit_nonsmooth_pencil_exits_nonzero(self, docs, tmp_path,
                                                  capsys):
        line = tmp_path / "hex.lf"
        run("find-line", "--pencil", docs / "hex.pf", "--out", line)
        out = tmp_path / "audit.json"
        assert run("audit", "--pencil", docs / "hex.pf", "--line", line,
                   "--out", out) == 1
        obj = loads(out.read_text())
        assert obj["smooth"] is False
        # the chart itself is still healthy and fully reported
        assert obj["image_rank"] == 3
        assert obj["degrees"]["total_degree"] == 3
        assert obj["passed"] is True
        assert "not smooth" in capsys.readouterr().err

    def test_find_line_output_is_valid(self, docs, tmp_path):
        out = tmp_path / "l.lf"
        assert run("find-line", "--pencil", docs / "hex.pf",
                   "--out", out) == 0
        raw, _ = line_from_obj(loads(out.read_text()))
        beta = quadform_from_terms(6, {(0, 1): 1, (2, 3): 1, (4, 5): 1})
        gamma = quadform_from_terms(6, {(0, 5): 1, (1, 2): 1, (3, 4): 1})
        Line.through(Pencil(beta, gamma), raw.v1, raw.v2)

    def test_find_line_through_point(self, docs, tmp_path):
        out = tmp_path / "l.lf"
        assert run("find-line", "--pencil", docs / "hex.pf",
                   "--point", "1,0,0,0,0,0", "--out", out) == 0
        raw, _ = line_from_obj(loads(out.read_text()))
        assert rank_of((raw.v1, raw.v2, vec([1, 0, 0, 0, 0, 0]))) == 2

    def test_find_line_deterministic(self, docs, tmp_path):
        a, b = tmp_path / "a.lf", tmp_path / "b.lf"
        for out in (a, b):
            run("find-line", "--pencil", docs / "hex.pf", "--seed", 9,
                "--out", out)
        assert a.read_bytes() == b.read_bytes()


class TestRepeatedMain:
    """main builds its parser once per process, and every call still
    starts from the defaults."""

    def test_options_do_not_carry_over(self, monkeypatch):
        import quadcyl.cli as cli
        seen = []

        def record(args):
            seen.append(args)
            return 0
        monkeypatch.setattr(cli, "cmd_connect", record)
        monkeypatch.setattr(cli, "cmd_verify", record)
        assert run("connect", "ci", "--pencil", "p.pf", "--line", "A",
                   "--from", "1,0", "--to", "0,1", "--seed", 5) == 0
        assert run("connect", "ci", "--pencil", "p.pf",
                   "--from", "1,0", "--to", "0,1") == 0
        assert run("verify", "c.cert", "--form", "f.qf", "--out", "o.json",
                   "--tower-limit", 7) == 0
        assert run("verify", "c.cert", "--form", "f.qf") == 0
        first, second, third, fourth = seen
        assert first.line == ["A"] and first.seed == 5
        assert second.line is None and second.seed == 0
        assert third.out == "o.json" and third.tower_limit == 7
        assert fourth.out is None and fourth.tower_limit == 16
        assert cli._build_parser() is cli._build_parser()


def args_read(tree):
    """{function name: the attributes of its args parameter that it
    reads}, for the module-level functions of the tree, counting those
    read by a module function it hands args to."""
    funcs = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}

    def reads(name, seen):
        out = set()
        for node in ast.walk(funcs[name]):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "args"):
                out.add(node.attr)
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id in funcs and node.func.id not in seen
                  and any(isinstance(a, ast.Name) and a.id == "args"
                          for a in node.args)):
                out |= reads(node.func.id, seen | {node.func.id})
        return out
    return {name: reads(name, {name}) for name in funcs}


class TestOptionContract:
    """Each subcommand declares exactly the options its handler reads."""

    def test_declared_options_are_the_ones_read(self):
        import argparse
        import inspect
        import quadcyl.cli as cli
        read = args_read(ast.parse(inspect.getsource(cli)))
        top = cli._build_parser()
        [sub] = [a for a in top._actions
                 if isinstance(a, argparse._SubParsersAction)]
        assert sorted(sub.choices) == sorted(
            name[len("cmd_"):].replace("_", "-")
            for name in read if name.startswith("cmd_"))
        for name, parser in sub.choices.items():
            declared = {a.dest for a in parser._actions if a.dest != "help"}
            handler = read["cmd_" + name.replace("-", "_")]
            assert declared == handler, name

    def test_readme_table_lists_each_parser_option(self):
        # README's "Command line" table names, for each subcommand, the
        # flags its parser declares: no more, no fewer
        import argparse
        import os
        import re
        import quadcyl.cli as cli
        readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
        with open(readme, encoding="utf-8") as fh:
            text = fh.read()
        table = text.split("## Command line", 1)[1].split(
            "| subcommand | options |", 1)[1].split("\n\n", 1)[0]
        documented = {}
        for row in table.splitlines()[2:]:
            name, options = row.strip("|").split("|")
            documented[name.strip().strip("`")] = set(
                re.findall(r"`(--[a-z-]+)`", options))
        [sub] = [a for a in cli._build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
        declared = {name: {flag for a in parser._actions
                           for flag in a.option_strings
                           if flag not in ("-h", "--help")}
                    for name, parser in sub.choices.items()}
        assert documented == declared

    def test_contract_check_follows_args_into_helpers(self):
        tree = ast.parse("def cmd_a(args):\n    helper(args, 1)\n"
                         "    return args.x\n"
                         "def helper(args, n):\n    return args.out\n"
                         "def cmd_b(args):\n    return other(args.y)\n"
                         "def other(v):\n    return v.z\n")
        read = args_read(tree)
        assert read["cmd_a"] == {"x", "out"} and read["cmd_b"] == {"y"}

    @pytest.mark.parametrize("argv, option", [
        (("normalize", "--hyperbolic", "f.qf"), "--seed"),
        (("normalize", "--hyperbolic", "f.qf"), "--retry-limit"),
        (("verify", "c.cert", "--form", "f.qf"), "--seed"),
        (("verify", "c.cert", "--form", "f.qf"), "--retry-limit"),
        (("verify", "c.cert", "--form", "f.qf"), "--jobs"),
        (("audit", "--pencil", "p.pf", "--line", "l.lf"), "--retry-limit"),
        (("eacx-build", "--lambdas", "0,1,2,3,4,5"), "--seed"),
        (("eacx-build", "--lambdas", "0,1,2,3,4,5"), "--retry-limit"),
        (("eacx-build", "--lambdas", "0,1,2,3,4,5"), "--tower-limit"),
    ], ids=lambda v: v if isinstance(v, str) else v[0])
    def test_unread_option_is_refused(self, argv, option, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, option, "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: %s 1" % option \
            in capsys.readouterr().err


class TestRationalHotPath:
    """Rational work never builds a Fraction: a grid form's connect and
    verify calls, complement and quadric, construct none."""

    def test_grid_form_connect_and_verify(self, tmp_path, monkeypatch):
        from fractions import Fraction
        from quadcyl.charts import hyperbolic_target
        form = tmp_path / "grid-6-5.qf"  # x0 x1 + x2 x3 + x4^2
        form.write_text(dumps(form_to_obj(hyperbolic_target(6, 2, True),
                                          Tower.rationals())))
        built = []
        new = Fraction.__new__

        def counting(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)
        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
        Fraction(1, 3)
        assert len(built) == 1  # the counter sees constructions
        built.clear()
        for target, a, b in (("complement", "1/2,2,3,-1,2,5", "-3,1,0,4,1,-2"),
                             ("quadric", "2,-2,1,3,1,0", "1/3,-21,-1,2,3,4")):
            cert = tmp_path / (target + ".cert")
            assert run("connect", target, "--form", form, "--from", a,
                       "--to", b, "--out", cert) == 0
            assert run("verify", cert, "--form", form,
                       "--out", tmp_path / "report.json") == 0
        monkeypatch.undo()
        assert built == []

    def test_tower_imports_no_gmpy2(self):
        import inspect
        import quadcyl.tower
        tree = ast.parse(inspect.getsource(quadcyl.tower))
        names = [alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.Import) for alias in node.names]
        names += [node.module for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.module]
        assert names and not any(n.split(".")[0] == "gmpy2" for n in names)


class TestLongCoefficients:

    def test_refused_literal_gives_a_short_error(self, docs, capsys):
        literal = "1" + "0" * 99990 + "/2"
        assert run("connect", "complement", "--form", docs / "definite.qf",
                   "--from", literal + ",1,1", "--to", "1,2,3") == 2
        err = capsys.readouterr().err
        assert "not in lowest terms" in err and len(err.encode()) < 200

    def test_5000_digit_entry_connects_and_verifies(self, tmp_path):
        # 10**5000 + 1: past Python's 4300-digit int/str conversion limit
        big = "1" + "0" * 4999 + "1/1"
        doc = {"kind": "form", "size": 3, "radicands": [],
               "matrix": ["1/1", "0/1", "0/1", "0/1", "-1/1", "0/1",
                          "0/1", "0/1", big]}
        form, cert = tmp_path / "big.qf", tmp_path / "c.cert"
        form.write_text(dumps(doc))
        assert run("connect", "complement", "--form", form,
                   "--from", "1,0,0", "--to", "0,0,1", "--out", cert) == 0
        obj = loads(cert.read_text())
        assert big in obj["form"] and big in obj["radicands"]
        assert run("verify", cert, "--form", form,
                   "--out", tmp_path / "v.json") == 0
