"""Document format tests: bit-exact round trips and strict parsing."""

import gc
import random
import re

import pytest

from quadcyl.errors import InputFormatError, TowerError, TowerLimitError
from quadcyl.navigate import MovePath, connect_complement, \
    connect_on_quadric, verify_path
from quadcyl.pencils import Pencil, connect_on_X, find_line, verify_on_X
from quadcyl.projective import ProjPoint, QuadForm, quadform_from_terms, vec
from quadcyl.serialize import (
    certificate_from_obj, dumps, form_from_obj, form_to_obj, line_from_obj,
    line_to_obj, loads, path_from_obj, path_to_obj, pencil_from_obj,
    pencil_to_obj, point_from_obj, point_to_obj, xpath_from_obj, xpath_to_obj,
)
from quadcyl.tower import Tower, as_scalar, scalar_from_obj, scalar_to_obj


def hexagonal_pencil():
    beta = quadform_from_terms(6, {(0, 1): 1, (2, 3): 1, (4, 5): 1})
    gamma = quadform_from_terms(6, {(0, 5): 1, (1, 2): 1, (3, 4): 1})
    return Pencil(beta, gamma)


def pt(*cs):
    return ProjPoint(vec(cs))


def sample_complement_path():
    q = quadform_from_terms(4, {(0, 1): 1, (2, 3): 1})
    return q, connect_complement(q, pt(1, 1, 0, 0), pt(0, 3, 1, 5))


def without_first_radicand(doc):
    """The certificate doc as it reads with its first radicand dropped:
    every node one level down, the header one entry shorter."""
    def down(obj):
        if isinstance(obj, list):
            return [down(v) for v in obj]
        if not isinstance(obj, dict):
            return obj
        out = {k: down(v) for k, v in obj.items()}
        if "level" in obj:
            out["level"] -= 1
        return out
    out = down(doc)
    out["radicands"] = out["radicands"][1:]
    return out


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
        expected = ('{"kind":"form","matrix":["1/1","0/1","0/1","0/1"],'
                    '"radicands":[],"size":2}\n')
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
        expected = ('{"coords":["1/1",{"a":"1/2","b":"-3/1","level":1}],'
                    '"kind":"point","radicands":["2/1"],"size":2}\n')
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

    @pytest.mark.parametrize("kind", ["form", "point", "pencil", "line",
                                      "path", "xpath"])
    def test_every_document_has_exactly_its_keys(self, kind):
        # each kind of document, as its writer makes it, with one unknown
        # key added and then with its radicand header removed
        pen = hexagonal_pencil()
        made = {
            "form": lambda: (form_to_obj(pen.beta, Tower.rationals()),
                             form_from_obj),
            "point": lambda: (point_to_obj(pt(1, 2), Tower.rationals()),
                              point_from_obj),
            "pencil": lambda: (pencil_to_obj(pen, Tower.rationals()),
                               pencil_from_obj),
            "line": lambda: (line_to_obj(*find_line(pen)), line_from_obj),
            "path": lambda: (path_to_obj(sample_complement_path()[1]),
                             certificate_from_obj),
            "xpath": lambda: (xpath_to_obj(connect_on_X(
                pen, pt(1, 0, 0, 0, 0, 0), pt(0, 0, 0, 0, 1, 0),
                rng=random.Random(3))), certificate_from_obj),
        }
        obj, parse = made[kind]()
        parse(obj)
        with pytest.raises(InputFormatError, match="unknown key 'junk'"):
            parse(dict(obj, junk=1))
        del obj["radicands"]
        with pytest.raises(InputFormatError, match="missing 'radicands'"):
            parse(obj)

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

    def test_unused_radicand_dropped_and_levels_renumbered(self):
        # sqrt 2 comes with the start tower and no scalar uses it: the
        # writer over Q drops it and moves every node above it down one
        # level; the writer over the start tower keeps it as the prefix,
        # as it would a reference document's; both replay
        q = quadform_from_terms(3, {(0, 0): 1, (1, 1): 1, (2, 2): 1})
        tw = Tower.rationals().extend(as_scalar(2))
        path = connect_complement(q, pt(1, 2, 3), pt(2, -1, 5), tower=tw)
        kept, doc = path_to_obj(path, tw), path_to_obj(path)
        rads = kept["radicands"]
        assert len(rads) == path.tower.height
        assert rads[0] == "2/1" and any(isinstance(r, dict) for r in rads)
        assert doc == without_first_radicand(kept)
        for obj, base in ((doc, None), (kept, tw)):
            back = path_from_obj(loads(dumps(obj)), base)
            assert back.tower.height == len(obj["radicands"])
            assert verify_path(q, back).valid
            assert dumps(path_to_obj(back, base)) == dumps(obj)

    def test_radicand_a_kept_radicand_uses_is_kept(self):
        # over Q(sqrt 3, sqrt 2, sqrt(1 + sqrt 2)) the one scalar node is
        # sqrt(1 + sqrt 2): sqrt 3 goes, and sqrt 2 stays only because the
        # kept radicand 1 + sqrt 2 uses it; both move down one level
        tw = Tower.rationals().extend(as_scalar(3)).extend(as_scalar(2))
        tw = tw.extend(1 + tw.generator(2))
        q = quadform_from_terms(3, {(0, 0): 1, (1, 1): 1, (2, 2): 1})
        p = pt(1, tw.generator(3), 0)
        obj = path_to_obj(MovePath("complement", q, p, p, (), tw))
        assert obj["radicands"] == [
            "2/1", {"a": "1/1", "b": "1/1", "level": 1}]
        assert obj["from"][1] == {"a": "0/1", "b": "1/1", "level": 2}
        back = path_from_obj(loads(dumps(obj)))
        assert back.start.coords[1] * back.start.coords[1] == \
            1 + back.tower.generator(1)
        assert verify_path(q, back).valid

    def test_base_off_the_chain_refused(self):
        _, path = self.sample_path()
        _, xp = TestIntersectionCertificates().sample()
        other = Tower.rationals().extend(as_scalar(7))
        deeper = path.tower.extend(as_scalar(7))
        with pytest.raises(TowerError):
            path_to_obj(path, other)
        with pytest.raises(TowerError):
            xpath_to_obj(xp, other)
        # a base the path's tower lies under is on the chain; its
        # radicands all stay
        assert path_to_obj(path, deeper)["radicands"] == \
            path_to_obj(path)["radicands"] + ["7/1"]

    def test_on_quadric_problem_kind(self):
        q = quadform_from_terms(4, {(0, 1): 1, (2, 3): 1})
        path = connect_on_quadric(q, pt(1, 0, 0, 0), pt(0, 0, 1, 0),
                                  rng=random.Random(2))
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

    def test_base_tower_fixes_the_limit(self):
        q = quadform_from_terms(3, {(0, 0): 1, (1, 1): 1, (2, 2): 1})
        obj = path_to_obj(connect_complement(q, pt(1, 0, 0), pt(0, 1, 2)))
        assert len(obj["radicands"]) == 3
        assert path_from_obj(obj, base=Tower.rationals(3)).tower.height == 3
        for parse in (path_from_obj, certificate_from_obj):
            with pytest.raises(TowerLimitError, match="limit 2"):
                parse(obj, base=Tower.rationals(2))

    def test_bad_version(self):
        _, path = self.sample_path()
        obj = path_to_obj(path)
        assert obj["version"] == 3
        # 3.0 equals 3 but is not an integer, so it would not round-trip
        for version in (1, 2, 99, 3.0, "3", True):
            obj["version"] = version
            with pytest.raises(InputFormatError,
                               match=re.escape("version %r;" % (version,))):
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
        return pen, connect_on_X(pen, a, b, rng=random.Random(3))

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

    def test_unused_radicand_dropped_and_levels_renumbered(self):
        # the endpoints come over Q(sqrt 2), which no scalar uses; the
        # segment's nested radicand moves down one level
        pen = hexagonal_pencil()
        tw = Tower.rationals().extend(as_scalar(2))
        xp = connect_on_X(pen, pt(1, 0, 0, 0, 0, 0), pt(0, 0, 0, 0, 1, 0),
                          tower=tw, rng=random.Random(3))
        kept, doc = xpath_to_obj(xp, tw), xpath_to_obj(xp)
        rads = kept["radicands"]
        assert len(rads) == xp.tower.height
        assert rads[0] == "2/1" and any(isinstance(r, dict) for r in rads)
        assert doc == without_first_radicand(kept)
        for obj, base in ((doc, None), (kept, tw)):
            back = xpath_from_obj(loads(dumps(obj)), base)
            assert back.tower.height == len(obj["radicands"])
            assert verify_on_X(pen, back).valid
            assert dumps(xpath_to_obj(back, base)) == dumps(obj)

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

    def test_written_by_the_c_encoder(self):
        # json's pure-Python encoder, which any indent selects, leaves
        # reference cycles of closures behind on every call; the C encoder
        # leaves none, so an empty collection shows which one ran
        _, xp = self.sample()
        obj = xpath_to_obj(xp)
        gc.collect()
        gc.disable()
        try:
            text = dumps(obj)
            assert gc.collect() == 0
        finally:
            gc.enable()
        body = text[:-1]
        assert text.endswith("\n") and not body.endswith("\n")
        assert not re.search(r"\s", re.sub(r'"(?:[^"\\]|\\.)*"', '""', body))
        assert dumps(loads(text)) == text

    def test_wrapper_fields_present(self):
        _, xp = self.sample()
        obj = xpath_to_obj(xp)
        for seg in obj["segments"]:
            assert set(seg) == {"line", "steps"}
            assert seg["steps"]
            for step in seg["steps"]:
                assert set(step) == {"chart", "entry", "target", "exit"}
                assert len(step["entry"]) == xp.pencil.size - 2


def _cells(obj, out, in_list=False):
    """The rational literals that stand as whole scalars (list entries,
    not parts of a node) outside the radicand header, with repeats."""
    if isinstance(obj, str):
        if in_list:
            out.append(obj)
    elif isinstance(obj, dict):
        for key, value in obj.items():
            if key != "radicands":
                _cells(value, out)
    elif isinstance(obj, list):
        for value in obj:
            _cells(value, out, True)
    return out


class TestLiteralMemo:
    """One certificate parse reads each distinct rational scalar once, and
    keeps nothing after it returns."""

    @pytest.fixture
    def parsed(self, monkeypatch):
        import quadcyl.serialize as ser_mod
        texts = []
        real = ser_mod.parse_rational

        def counted(text):
            texts.append(text)
            return real(text)
        monkeypatch.setattr(ser_mod, "parse_rational", counted)
        return texts

    def test_each_literal_parsed_once_per_call(self, parsed):
        q = quadform_from_terms(4, {(0, 1): 1, (2, 3): 1})
        path = connect_complement(q, pt(1, 1, 0, 0), pt(0, 3, 1, 4))
        assert path.tower.height == 0
        obj = path_to_obj(path)
        literals = _cells(obj, [])
        assert len(literals) > 2 * len(set(literals))
        back = path_from_obj(obj)
        assert sorted(parsed) == sorted(set(literals))
        # the memo did not outlive the call: a second parse reads them all
        # again, into new scalars
        del parsed[:]
        again = path_from_obj(obj)
        assert sorted(parsed) == sorted(set(literals))
        assert again.start.coords[0] is not back.start.coords[0]
        assert dumps(path_to_obj(again)) == dumps(path_to_obj(back))

    def test_xpath_scalars_parsed_once(self, parsed):
        p = hexagonal_pencil()
        a, b = pt(1, 0, 0, 0, 0, 0), pt(0, 0, 1, 0, 0, 0)
        obj = xpath_to_obj(connect_on_X(p, a, b, rng=random.Random(1)))
        literals = _cells(obj, [])
        assert len(literals) > 2 * len(set(literals))
        back = xpath_from_obj(obj)
        assert sorted(parsed) == sorted(set(literals))
        assert dumps(xpath_to_obj(back)) == dumps(obj)

    def test_repeated_bad_literal_same_error(self):
        _, path = sample_complement_path()
        messages = []
        for spots in ((0,), (0, 5)):
            obj = path_to_obj(path)
            for i in spots:
                obj["steps"][0]["chart"]["matrix"][i] = "2/4"
            with pytest.raises(InputFormatError) as exc:
                path_from_obj(obj)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]
        assert "lowest terms" in messages[0]


class TestLongLiterals:
    """Integers past Python's int/str conversion limit (4300 digits by
    default) are written and read without touching that limit."""

    def test_5000_digit_rational_round_trip(self):
        import sys
        limit = sys.get_int_max_str_digits()
        num = 7 ** 5917          # 5001 digits
        den = 2 ** 16000 + 1     # 4817 digits
        x = as_scalar(num) / as_scalar(den)
        obj = scalar_to_obj(x)
        assert len(obj) > 9800 and "/" in obj
        text = dumps({"x": obj})
        back = scalar_from_obj(loads(text)["x"], Tower.rationals())
        assert back == x
        assert scalar_to_obj(-back) == "-" + obj
        assert sys.get_int_max_str_digits() == limit

    def test_long_node_coefficient(self):
        tw = Tower.rationals().extend(2)
        x = as_scalar(3 ** 10000) + as_scalar(5) * tw.generator(1)
        obj = scalar_to_obj(x)
        assert scalar_from_obj(loads(dumps(obj)), tw) == x

    def test_digit_cap(self):
        from quadcyl.tower import MAX_LITERAL_DIGITS, parse_rational
        at_cap = "1" + "0" * (MAX_LITERAL_DIGITS - 2) + "/3"
        assert parse_rational(at_cap).den == 3
        over = "1" + "0" * (MAX_LITERAL_DIGITS - 1) + "/3"
        with pytest.raises(InputFormatError, match=str(MAX_LITERAL_DIGITS)):
            parse_rational(over)

    @pytest.mark.parametrize("text,reason", [
        ("1/-" + "0" * 599 + "7" * 601, "denominator must be positive"),
        ("0" + "7" * 5000 + "/3", "leading zero"),
        ("7" * 5000 + "/" + "7" * 4000, "lowest terms"),
        ("-" + "0" * 5000 + "/1", "leading zero"),
        ("7" * 5000 + ".5", "not a rational literal"),
        ("-0/" + "7" * 5000, "negative zero"),
    ], ids=["negative-denominator", "leading-zero", "unreduced", "minus-zeros",
            "not-a-literal", "negative-zero"])
    def test_long_literals_refused_like_short_ones(self, text, reason):
        with pytest.raises(InputFormatError, match=reason) as info:
            scalar_from_obj(text, Tower.rationals())
        # the message quotes a bounded head of the literal and its length
        message = str(info.value)
        assert len(message) < 120
        assert "%r... (%d characters)" % (text[:40], len(text)) in message
