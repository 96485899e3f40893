"""End-to-end command line tests: exit codes and byte-exact outputs."""

import json

import pytest

from quadcyl.cli import main
from quadcyl.pencils import Line, Pencil
from quadcyl.projective import ProjPoint, QuadForm, quadform_from_terms, \
    rank_of, vec
from quadcyl.serialize import (
    dumps, form_to_obj, line_from_obj, loads, pencil_from_obj,
    pencil_to_obj, point_to_obj,
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

    def test_search_exhaustion_exit(self, docs, tmp_path):
        assert run("connect", "quadric", "--form", docs / "split.qf",
                   "--from", "1,0,0,0", "--to", "0,0,1,0",
                   "--retry-limit", 0) == 3

    def test_tower_limit_exit(self, docs, tmp_path):
        assert run("normalize", "--hyperbolic", docs / "definite.qf",
                   "--tower-limit", 0) == 4


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


class TestVerify:

    def make_cert(self, docs, tmp_path):
        cert = tmp_path / "c.cert"
        run("connect", "complement", "--form", docs / "split.qf",
            "--from", "1,1,0,0", "--to", "0,3,1,5", "--seed", 7,
            "--out", cert)
        return cert

    def test_corrupted_scalar_fails(self, docs, tmp_path):
        cert = self.make_cert(docs, tmp_path)
        bad = tmp_path / "bad.cert"
        bad.write_text(cert.read_text().replace('"5/3"', '"4/3"', 1))
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

    def test_parallel_matches_serial(self, docs, tmp_path):
        cert = self.make_cert(docs, tmp_path)
        one, two = tmp_path / "one.json", tmp_path / "two.json"
        assert run("verify", cert, cert, "--form", docs / "split.qf",
                   "--out", one) == 0
        assert run("verify", cert, cert, "--form", docs / "split.qf",
                   "--jobs", 2, "--out", two) == 0
        assert one.read_bytes() == two.read_bytes()

    def test_pool_capped_by_certificates_and_cpus(self, docs, tmp_path,
                                                  monkeypatch):
        # a stand-in pool that records its size and maps serially, so no
        # process is started whatever --jobs asks for
        from quadcyl import cli
        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
        cert = self.make_cert(docs, tmp_path)
        cases = [(8, 64, 3, 3), (8, 2, 3, 2), (2, 64, 3, 2),
                 (None, 64, 3, None), (8, 64, 1, None), (8, 0, 3, None)]
        for cpus, jobs, count, expected in cases:
            monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
            sizes.clear()
            assert run("verify", *[cert] * count, "--form",
                       docs / "split.qf", "--jobs", jobs) == 0
            assert sizes == ([] if expected is None else [expected])

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
        assert any(not c.is_rational() for c in disc)

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
