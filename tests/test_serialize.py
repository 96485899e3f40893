"""Document format tests: bit-exact round trips and strict parsing."""

import pytest

from quadcyl.errors import InputFormatError
from quadcyl.navigate import connect_complement, connect_on_quadric, \
    verify_path
from quadcyl.pencils import Pencil, connect_on_X, find_line, verify_on_X
from quadcyl.projective import ProjPoint, QuadForm, quadform_from_terms, vec
from quadcyl.serialize import (
    certificate_from_obj, dumps, form_from_obj, form_to_obj, line_from_obj,
    line_to_obj, loads, path_from_obj, path_to_obj, pencil_from_obj,
    pencil_to_obj, point_from_obj, point_to_obj, xpath_from_obj, xpath_to_obj,
)
from quadcyl.tower import Tower, as_scalar


def hexagonal_pencil():
    beta = quadform_from_terms(6, {(0, 1): 1, (2, 3): 1, (4, 5): 1})
    gamma = quadform_from_terms(6, {(0, 5): 1, (1, 2): 1, (3, 4): 1})
    return Pencil(beta, gamma)


def pt(*cs):
    return ProjPoint(vec(cs))


def sample_complement_path():
    q = quadform_from_terms(4, {(0, 1): 1, (2, 3): 1})
    return q, connect_complement(q, pt(1, 1, 0, 0), pt(0, 3, 1, 5))


class TestScalarDocuments:

    def test_form_round_trip_rational(self):
        q = quadform_from_terms(3, {(0, 1): 1, (2, 2): 1})
        text = dumps(form_to_obj(q, Tower.rationals()))
        q2, tw2 = form_from_obj(loads(text))
        assert dumps(form_to_obj(q2, tw2)) == text

    def test_form_round_trip_with_radicals(self):
        tw = Tower.rationals().extend(as_scalar(2))
        s2 = tw.generator(1)
        rows = ((as_scalar(1), s2 / 2), (s2 / 2, as_scalar(-1)))
        # 2x2 is below the rank floor for charts but fine as a document
        q = QuadForm(rows)
        text = dumps(form_to_obj(q, tw))
        q2, tw2 = form_from_obj(loads(text))
        assert tw2.height == 1
        assert q2.matrix[0][1] == s2 / 2
        assert dumps(form_to_obj(q2, tw2)) == text

    def test_form_golden_bytes(self):
        q = quadform_from_terms(2, {(0, 0): 1})
        expected = (
            '{\n'
            '  "kind": "form",\n'
            '  "matrix": [\n'
            '    "1/1",\n'
            '    "0/1",\n'
            '    "0/1",\n'
            '    "0/1"\n'
            '  ],\n'
            '  "radicands": [],\n'
            '  "size": 2\n'
            '}\n'
        )
        assert dumps(form_to_obj(q, Tower.rationals())) == expected

    def test_point_round_trip(self):
        p = pt(0, 3, 5)
        text = dumps(point_to_obj(p, Tower.rationals()))
        p2, tw2 = point_from_obj(loads(text))
        assert p2 == p
        assert dumps(point_to_obj(p2, tw2)) == text

    def test_point_golden_bytes_one_radical(self):
        tw = Tower.rationals().extend(as_scalar(2))
        s2 = tw.generator(1)
        expected = (
            '{\n'
            '  "coords": [\n'
            '    "1/1",\n'
            '    {\n'
            '      "a": "1/2",\n'
            '      "b": "-3/1",\n'
            '      "level": 1\n'
            '    }\n'
            '  ],\n'
            '  "kind": "point",\n'
            '  "radicands": [\n'
            '    "2/1"\n'
            '  ],\n'
            '  "size": 2\n'
            '}\n'
        )
        text = dumps(point_to_obj(pt(2, 1 - 6 * s2), tw))
        assert text == expected
        p2, tw2 = point_from_obj(loads(text))
        assert dumps(point_to_obj(p2, tw2)) == text

    def test_points_serialize_canonically(self):
        obj = point_to_obj(pt(0, 3, 5), Tower.rationals())
        assert obj["coords"] == ["0/1", "1/1", "5/3"]

    def test_pencil_round_trip(self):
        pen = hexagonal_pencil()
        text = dumps(pencil_to_obj(pen, Tower.rationals()))
        pen2, tw2 = pencil_from_obj(loads(text))
        assert pen2.beta.matrix == pen.beta.matrix
        assert pen2.gamma.matrix == pen.gamma.matrix
        assert dumps(pencil_to_obj(pen2, tw2)) == text

    def test_line_round_trip(self):
        pen = hexagonal_pencil()
        line, tw = find_line(pen)
        text = dumps(line_to_obj(line, tw))
        line2, _ = line_from_obj(loads(text))
        assert line2.v1 == line.v1
        assert line2.v2 == line.v2


class TestStrictParsing:

    def form_obj(self):
        q = quadform_from_terms(2, {(0, 0): 1})
        return form_to_obj(q, Tower.rationals())

    def test_wrong_kind(self):
        obj = self.form_obj()
        obj["kind"] = "point"
        with pytest.raises(InputFormatError, match="expected a form"):
            form_from_obj(obj)

    def test_missing_key(self):
        obj = self.form_obj()
        del obj["matrix"]
        with pytest.raises(InputFormatError, match="missing"):
            form_from_obj(obj)

    def test_wrong_entry_count(self):
        obj = self.form_obj()
        obj["matrix"] = obj["matrix"][:-1]
        with pytest.raises(InputFormatError, match="row-major"):
            form_from_obj(obj)

    def test_unreduced_rational_rejected(self):
        obj = self.form_obj()
        obj["matrix"][0] = "2/4"
        with pytest.raises(InputFormatError, match="lowest terms"):
            form_from_obj(obj)

    def test_negative_denominator_rejected(self):
        obj = self.form_obj()
        obj["matrix"][0] = "1/-2"
        with pytest.raises(InputFormatError, match="positive"):
            form_from_obj(obj)

    def test_unknown_radicand_rejected(self):
        # the form's radicand header is empty, so no level 1 exists
        obj = self.form_obj()
        obj["matrix"][0] = {"a": "0/1", "b": "1/1", "level": 1}
        with pytest.raises(InputFormatError, match=r"outside 1\.\.0"):
            form_from_obj(obj)

    def test_zero_point_rejected(self):
        obj = point_to_obj(pt(1, 0), Tower.rationals())
        obj["coords"] = ["0/1", "0/1"]
        with pytest.raises(InputFormatError, match="zero vector"):
            point_from_obj(obj)

    def test_asymmetric_form_rejected(self):
        obj = self.form_obj()
        obj["matrix"][1] = "1/1"
        with pytest.raises(InputFormatError, match="bad form"):
            form_from_obj(obj)

    def test_not_json(self):
        with pytest.raises(InputFormatError, match="JSON"):
            loads("{nope")

    @pytest.mark.parametrize("key, value", [
        ("kind", "standard-u"), ("index", 1), ("on_quadric", False),
        ("cone_lifted", True), ("vertex_dim", 1), ("size", 4), ("seed", 7),
    ])
    def test_unread_certificate_key_rejected(self, key, value):
        # the step chart keys of format v2, and its header seed
        obj = path_to_obj(sample_complement_path()[1])
        where = obj if key == "seed" else obj["steps"][0]["chart"]
        where[key] = value
        with pytest.raises(InputFormatError, match="unknown key %r" % key):
            path_from_obj(obj)

    def test_bool_is_not_an_integer(self):
        obj = point_to_obj(pt(1), Tower.rationals())
        assert point_from_obj(obj)[0] == pt(1)
        obj["size"] = True
        with pytest.raises(InputFormatError, match="size must be"):
            point_from_obj(obj)
        for key in ("dist", "dep"):
            obj = path_to_obj(sample_complement_path()[1])
            obj["steps"][0]["chart"][key] = True
            with pytest.raises(InputFormatError,
                               match="%s must be an integer" % key):
                path_from_obj(obj)


class TestCertificates:

    def sample_path(self):
        return sample_complement_path()

    def test_round_trip_bit_exact(self):
        q, path = self.sample_path()
        text = dumps(path_to_obj(path))
        back = path_from_obj(loads(text))
        assert dumps(path_to_obj(back)) == text
        assert verify_path(q, back).valid

    def test_round_trip_with_adjunction(self):
        # a definite form forces a radical frame, so the certificate
        # carries nontrivial radicand and scalar nodes
        q = quadform_from_terms(3, {(0, 0): 1, (1, 1): 1, (2, 2): 1})
        path = connect_complement(q, pt(1, 0, 0), pt(0, 1, 2))
        assert path.tower.height >= 1
        text = dumps(path_to_obj(path))
        back = path_from_obj(loads(text))
        assert dumps(path_to_obj(back)) == text
        assert verify_path(q, back).valid

    def test_on_quadric_problem_kind(self):
        q = quadform_from_terms(4, {(0, 1): 1, (2, 3): 1})
        path = connect_on_quadric(q, pt(1, 0, 0, 0), pt(0, 0, 1, 0), seed=2)
        back = path_from_obj(loads(dumps(path_to_obj(path))))
        assert back.problem == "quadric"
        assert verify_path(q, back).valid

    def test_serialization_is_deterministic(self):
        _, path1 = self.sample_path()
        _, path2 = self.sample_path()
        assert dumps(path_to_obj(path1)) == dumps(path_to_obj(path2))

    def test_base_tower_prefix_enforced(self):
        q = quadform_from_terms(3, {(0, 0): 1, (1, 1): 1, (2, 2): 1})
        path = connect_complement(q, pt(1, 0, 0), pt(0, 1, 2))
        obj = path_to_obj(path)
        good = Tower.rationals()
        assert path_from_obj(obj, base=good).tower.height == \
            path.tower.height
        wrong = Tower.rationals().extend(as_scalar(7))
        with pytest.raises(InputFormatError, match="does not match the base"):
            path_from_obj(obj, base=wrong)

    def test_bad_version(self):
        _, path = self.sample_path()
        obj = path_to_obj(path)
        assert obj["version"] == 3
        for version in (1, 2, 99):
            obj["version"] = version
            with pytest.raises(InputFormatError,
                               match="version %d;" % version):
                path_from_obj(obj)

    def test_unknown_problem(self):
        _, path = self.sample_path()
        obj = path_to_obj(path)
        obj["problem"] = "banana"
        with pytest.raises(InputFormatError, match="problem"):
            path_from_obj(obj)

    def test_corrupt_scalar_still_parses_then_fails_verify(self):
        # flipping one digit keeps the file well formed; the damage must
        # surface in verification, not parsing
        q, path = self.sample_path()
        text = dumps(path_to_obj(path))
        bad = text.replace('"5/3"', '"4/3"', 1)
        assert bad != text
        back = path_from_obj(loads(bad))
        rep = verify_path(q, back)
        assert not rep.valid

    def test_dispatch_helper(self):
        q, path = self.sample_path()
        back = certificate_from_obj(path_to_obj(path))
        assert back.problem == "complement"


class TestIntersectionCertificates:

    def sample(self):
        pen = hexagonal_pencil()
        a = pt(1, 0, 0, 0, 0, 0)
        b = pt(0, 0, 0, 0, 1, 0)
        return pen, connect_on_X(pen, a, b, seed=3)

    def test_round_trip_bit_exact(self):
        pen, xp = self.sample()
        text = dumps(xpath_to_obj(xp))
        back = xpath_from_obj(loads(text))
        assert dumps(xpath_to_obj(back)) == text
        assert verify_on_X(pen, back).valid

    def test_dispatch_helper(self):
        pen, xp = self.sample()
        back = certificate_from_obj(xpath_to_obj(xp))
        assert verify_on_X(pen, back).valid

    def test_empty_segment_steps_rejected(self):
        _, xp = self.sample()
        obj = xpath_to_obj(xp)
        obj["segments"][0]["steps"] = []
        with pytest.raises(InputFormatError, match="must not be empty"):
            xpath_from_obj(obj)

    def test_tampered_line_fails_verification(self):
        pen, xp = self.sample()
        obj = xpath_to_obj(xp)
        seg = obj["segments"][0]
        seg["line"]["v1"] = ["1/1", "1/1", "0/1", "0/1", "0/1", "0/1"]
        back = xpath_from_obj(obj)
        rep = verify_on_X(pen, back)
        assert not rep.valid
        assert "bad line" in rep.reason

    def test_wrapper_fields_present(self):
        _, xp = self.sample()
        obj = xpath_to_obj(xp)
        for seg in obj["segments"]:
            assert set(seg) == {"line", "steps"}
            assert seg["steps"]
            for step in seg["steps"]:
                assert set(step) == {"chart", "entry", "target", "exit"}
                assert len(step["entry"]) == xp.pencil.size - 2
