import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from reeskit import cli, rees, verify
from reeskit.cli import (Config, REGISTRY, ScriptError, emit, execute_script,
                         main, parse_script, render_value)
from reeskit.decompose import ComponentReport
from reeskit.gb import Ideal
from reeskit.intersection import WeightedComponent

REGRESSIONS = Path(__file__).resolve().parent.parent / "regressions"


def run_text(src, **cfg):
    doc = execute_script(parse_script(src), Config(**cfg))
    return doc, emit(doc).decode()


class TestParser:
    def test_ideal_binding(self):
        script = parse_script("ring R = zmod 101 [x,y]; ideal I = x^2 - y;")
        assert [s.kind for s in script.statements] == ["ring", "bind"]
        assert script.statements[1].data["kw"] == "ideal"

    def test_call_with_two_args(self):
        script = parse_script(
            "ring R = zmod 101 [x,y];\n"
            "print intersectInP(ideal(x), ideal(y));")
        call = script.statements[1].data["expr"]
        assert call.kind == "call" and len(call.data["args"]) == 2

    def test_nonprime_characteristic_reported(self):
        doc, _ = run_text("ring R = zmod 4 [x];")
        assert doc.status == 2
        assert "prime" in doc.message

    def test_syntax_error_has_position(self):
        with pytest.raises(ScriptError) as err:
            parse_script("ring R = zmod 101 [x,y]\nprint x;")
        assert "line" in str(err.value)

    def test_sign_binds_looser_than_power(self):
        _, out = run_text("ring R = zmod 101 [x,y];\n"
                          "print -x^2; print -2^2;\n"
                          "print x*-y^2; print (-x)^2;")
        assert out == "-x^2\n-4\n-x*y^2\nx^2\n"

    # each comma list (ring quotient, matrix rows, list literal, call
    # arguments) and each empty-list check meets the end of the input
    TRUNCATED = {"call": "ring P = zmod 101 [x,y];\nprint ideal(x",
                 "empty-call": "ring P = zmod 101 [x,y];\nprint ideal(",
                 "list": "ring P = zmod 101 [x,y];\nprint [x",
                 "empty-list": "ring P = zmod 101 [x,y];\nprint [",
                 "matrix": "ring P = zmod 101 [x,y];\nprint matrix[[x",
                 "quotient": "ring P = zmod 101 [x] / (x"}

    @pytest.mark.parametrize("src", TRUNCATED.values(), ids=TRUNCATED)
    def test_truncated_script_is_a_parse_error(self, src):
        with pytest.raises(ScriptError, match="unexpected end of input"):
            parse_script(src)

    def test_line_numbers_count_newlines_in_strings(self):
        doc, out = run_text('ring P = zmod 101 [x,y];\nprint "a\nb";\n'
                            'print foo;')
        assert out == "a\nb\n"
        assert doc.status == 2
        assert doc.message.startswith("line 4 col 7:")
        script = parse_script('print "a\nbc" ;')
        assert script.statements[0].data["expr"].data["value"] == "a\nbc"
        with pytest.raises(ScriptError, match="line 2 col 5:"):
            parse_script('print "a\nbc" ?')

    def test_unknown_identifier_reported(self):
        doc, _ = run_text("ring R = zmod 101 [x]; print zz;")
        assert doc.status == 2
        assert "zz" in doc.message

    def test_unknown_operation_reported(self):
        doc, _ = run_text("ring R = zmod 101 [x]; print frobnicate(x);")
        assert doc.status == 2


class TestExecution:
    def test_empty_script(self):
        doc, out = run_text("")
        assert doc.status == 0 and out == ""

    def test_conic_tangent_script(self):
        doc, out = run_text(
            "ring P = zmod 101 [x,y];\n"
            "ideal I = x^2 - y;\n"
            "print intersectInP(I, ideal(y));\n")
        assert doc.status == 0
        assert out == "{ (2, ideal[ y, x ]) }\n"

    def test_assertion_failure_sets_status_one(self):
        doc, _ = run_text(
            "ring P = zmod 101 [x,y];\n"
            "assertEqual(ideal(x), ideal(y));\n")
        assert doc.status == 1

    def test_assert_true_passes(self):
        doc, _ = run_text(
            "ring P = zmod 101 [x,y];\n"
            "assertTrue(isLinearType(ideal(x, y)));\n")
        assert doc.status == 0

    def test_use_switches_ring(self):
        doc, out = run_text(
            "ring P = zmod 32003 [x,y];\n"
            "let chart = blowupOf(ideal(x, y^2));\n"
            "use chart;\n"
            "print normalForm(y^2*w_0, ideal(x*w_1));\n")
        assert doc.status == 0
        assert out == "0\n"

    def test_quotient_ring_power_syntax(self):
        doc, out = run_text(
            "ring R = zmod 5 [x,y,z] / (ideal(x^5, y^5) + ideal(x,y,z)^6);\n"
            "print normalForm(x^5, ideal(0));\n")
        assert doc.status == 0
        assert out == "0\n"

    def test_ideal_arithmetic_in_scripts(self):
        doc, out = run_text(
            "ring P = zmod 101 [x,y];\n"
            "print eq(ideal(x)*ideal(y) + ideal(x^2), ideal(x*y, x^2));\n")
        assert out == "true\n"

    def test_int_against_polynomial_is_a_constant(self):
        # a script int compared with a polynomial is read in its ring
        doc, out = run_text(
            "ring P = zmod 101 [x,y];\n"
            "print eq(x - x, 0);\n"
            "print eq(x^0, 102);\n"
            "print neq(x, 0);\n"
            "assertEqual(x*0, 0);\n")
        assert doc.status == 0
        assert out == "true\ntrue\ntrue\n"

    def test_not_takes_a_bool_only(self):
        doc, out = run_text("ring P = zmod 101 [x,y];\n"
                            "print not(true);\nprint not(eq(x, y));\n")
        assert doc.status == 0 and out == "false\ntrue\n"
        for arg in ("0", "1", "ideal(0)", "x", "[]"):
            doc, out = run_text("ring P = zmod 101 [x,y];\n"
                                f"print not({arg});\n")
            assert doc.status == 2 and out == "", arg
            assert "not takes true or false" in doc.message

    def test_a_bool_is_not_a_polynomial(self):
        # ideal(...), typed bindings, ring quotients and op arguments share
        # the coercers, and none of them reads true as the constant 1
        for src in ("print ideal(true);", "ideal I = true;", "poly f = false;",
                    "print dim(true);", "ring Q = zmod 7 [a] / (true);"):
            doc, out = run_text("ring P = zmod 101 [x,y];\n" + src + "\n")
            assert (doc.status, out) == (2, ""), src
            assert doc.message.endswith(", got bool"), src

    def test_comparisons_take_integers_or_infinity(self):
        header = "ring P = zmod 101 [x,y];\n"
        doc, out = run_text(header + "print ge(infinity, 3);\n"
                            "print lt(1, 2);\nprint gt(2, infinity);\n")
        assert doc.status == 0 and out == "true\ntrue\nfalse\n"
        for args, kind in (("true, 1", "bool"), ('"a", "b"', "str"),
                           ("x, y", "Polynomial"), ("1, ideal(x)", "Ideal")):
            for op in ("ge", "gt", "le", "lt"):
                doc, out = run_text(header + f"print {op}({args});\n")
                assert (doc.status, out) == (2, ""), (op, args)
                assert doc.message == \
                    f"line 2 col 7: expected an integer, got {kind}"


class TestEmit:
    def test_boolean_and_int(self):
        doc, out = run_text(
            "ring P = zmod 101 [x,y]; print eq(1, 1); print dim(ideal(x));")
        assert out == "true\n1\n"

    def test_ideal_canonical_line(self):
        doc, out = run_text(
            "ring P = zmod 101 [x,y | w_0,w_1];\n"
            "print ideal(y*w_0 - x*w_1);\n")
        assert out == "ideal[ y*w_0 - x*w_1 ]\n"

    def test_unverified_weighted_component(self):
        from reeskit.gb import Ideal
        from reeskit.intersection import WeightedComponent
        from reeskit.polyring import make_ring
        ring = make_ring(101, ["x", "y"])
        x, y = ring.gens()
        comps = [WeightedComponent(2, Ideal(ring, (x, y)), certified=False)]
        assert render_value(comps) == "{ (2, ideal[ y, x ]) unverified }"

    def test_certified_and_unverified_reports(self):
        from reeskit.decompose import ComponentReport
        from reeskit.gb import Ideal
        from reeskit.polyring import make_ring
        ring = make_ring(101, ["x", "y"])
        x, y = ring.gens()
        comps = [ComponentReport(Ideal(ring, (x,)), True),
                 ComponentReport(Ideal(ring, (x - y, y ** 2)), False)]
        assert render_value(comps) == (
            "{ ideal[ x ] certified, ideal[ x - y, y^2 ] unverified }")

    def test_json_schema(self):
        doc, _ = run_text(
            "ring P = zmod 101 [x,y];\n"
            "print intersectInP(ideal(x^2 - y), ideal(y));\n")
        payload = json.loads(emit(doc, "json").decode())
        assert payload["schema"] == 1
        assert payload["results"][0]["kind"] == "components"
        assert payload["results"][0]["value"] == [
            {"m": 2, "generators": ["y", "x"], "certified": True}]

    def test_describe_every_kind(self):
        # kind, text line, JSON value and flags of one value of each kind
        from reeskit.cli import _describe
        src = ("ring P = zmod 101 [x,y];\n"
               "print x^2 - y;\n"
               "print groebnerBasis(ideal(x^2 - y, y));\n"
               "print matrix[[x, y]];\n"
               "print P;\n"
               "print ringmap(P, P, [y, x]);\n"
               "module M = ideal(x, y);\n"
               "print M;\n"
               "print blowupOf(ideal(x, y));\n"
               "print reesAlgebra(ideal(x, y));\n"
               "print hilbertSeries(ideal(x^2));\n"
               "print isReduction(ideal(x, y), ideal(x, y));\n"
               "print factorUnivariate(x^3 + x^2);\n"
               "print dimensionAndDegree(ideal(x));\n"
               "print [[1, x], []];\n"
               "print [];\n"
               'print "h";\n'
               "print infinity;\n"
               "print true;\n"
               "print 7;\n"
               "print ideal(x, y^2);\n")
        doc = execute_script(parse_script(src), Config())
        assert doc.status == 0, doc.message
        values = [e.value for e in doc.entries]
        P = values[0].ring
        x, y = P.gens()
        values += [
            [WeightedComponent(2, Ideal(P, (x, y))),
             WeightedComponent(1, Ideal(P, (y,)), certified=False)],
            [ComponentReport(Ideal(P, (x,)), True),
             ComponentReport(Ideal(P, (x - y, y ** 2)), False)],
            [ComponentReport(Ideal(P, (y,)), True)],
            WeightedComponent(3, Ideal(P, (x,))),
            ComponentReport(Ideal(P, (y,)), False),
        ]
        plain = [("poly", "x^2 - y"), ("gb", "gb[ y, x^2 ]"),
                 ("matrix", "matrix[ [x, y] ]"), ("ring", "zmod 101 [x,y]"),
                 ("ringmap", "ringmap[ x -> y, y -> x ]"),
                 ("module", "module[ x, y ]"),
                 ("blowup",
                  "blowup[ zmod 101 [x,y | w_0,w_1] / (y*w_0 - x*w_1) ]"),
                 ("rees", "rees[ zmod 101 [x,y | w_0,w_1] ; "
                          "ideal[ y*w_0 - x*w_1 ] ]"),
                 ("hilbertSeries", "(1 + T) / ((1 - T))"),
                 ("reduction", "reduction[ r = 0 ]")]
        unverified = ("unverified-component",)
        want = [(kind, text, text, ()) for kind, text in plain] + [
            ("tuple", "1 * (x)^2 * (x + 1)",
             {"unit": 1, "factors": [{"factor": "x", "multiplicity": 2},
                                     {"factor": "x + 1", "multiplicity": 1}]},
             ()),
            ("tuple", "(1, 1)", [1, 1], ()),
            ("list", "[[1, x], []]", [[1, "x"], []], ()),
            ("list", "[]", [], ()),
            ("value", "h", "h", ()),
            ("infinity", "infinity", "infinity", ()),
            ("bool", "true", True, ()),
            ("int", "7", 7, ()),
            ("ideal", "ideal[ x, y^2 ]", {"generators": ["x", "y^2"]}, ()),
            ("components", "{ (2, ideal[ y, x ]), (1, ideal[ y ]) unverified }",
             [{"m": 2, "generators": ["y", "x"], "certified": True},
              {"m": 1, "generators": ["y"], "certified": False}], unverified),
            ("primes",
             "{ ideal[ x ] certified, ideal[ x - y, y^2 ] unverified }",
             [{"generators": ["x"], "certified": True},
              {"generators": ["x - y", "y^2"], "certified": False}],
             unverified),
            ("primes", "{ ideal[ y ] certified }",
             [{"generators": ["y"], "certified": True}], ()),
            ("component", "(3, ideal[ x ])", "(3, ideal[ x ])", ()),
            ("prime", "ideal[ y ] unverified", "ideal[ y ] unverified", ()),
        ]
        assert [_describe(v) for v in values] == want

    def test_describe_flags_components_at_any_depth(self, monkeypatch):
        from reeskit import intersection
        from reeskit.cli import _describe
        from reeskit.polyring import make_ring
        P = make_ring(101, ["x", "y"])
        x, y = P.gens()
        doubtful = [WeightedComponent(1, Ideal(P, (y,)), certified=False)]
        sure = [ComponentReport(Ideal(P, (x,)), True)]
        unverified = ("unverified-component",)
        assert _describe([doubtful])[3] == unverified
        assert _describe([1, [sure, [doubtful, doubtful]]])[3] == unverified
        assert _describe([sure, [1, x]])[3] == ()
        # the same flag as the bare list, from a script under --json: the
        # op returns one unverified component, here the ideal it was given
        monkeypatch.setattr(
            intersection, "distinguished",
            lambda f, I, seed=0: [WeightedComponent(1, I, certified=False)])
        doc = execute_script(parse_script(
            "ring S = zmod 101 [x,y];\n"
            "let f = ringmap(S, S, [x, y]);\n"
            "print [distinguished(f, ideal(x - y))];\n"),
            Config())
        result, = json.loads(emit(doc, "json").decode())["results"]
        assert result["value"][0][0]["certified"] is False
        assert result["flags"] == ["unverified-component"]

    def test_round_trip_through_script_form(self):
        from reeskit.cli import as_script_text
        from reeskit.gb import Ideal
        from reeskit.polyring import FreeModuleMap, make_ring
        ring = make_ring(101, ["x", "y", "w_0"])
        x, y, w0 = ring.gens()
        for value in (Ideal(ring, (x ** 2 - y, y * w0 - 3)),
                      FreeModuleMap(ring, [[x, y], [w0, x - 1]]),
                      3 * x ** 2 * y - w0 + 1, -x ** 2 * y + 1):
            src = ("ring R = zmod 101 [x,y,w_0];\n"
                   f"print eq({as_script_text(value)}, {as_script_text(value)});\n")
            doc, out = run_text(src)
            assert doc.status == 0 and out == "true\n"
            # evaluate the script form and compare against the value itself
            src2 = ("ring R = zmod 101 [x,y,w_0];\n"
                    f"let v = {as_script_text(value)};\nprint v;\n")
            doc2 = execute_script(parse_script(src2), Config())
            got = doc2.entries[0].value
            if isinstance(value, Ideal):
                assert got == value or got.gens == tuple(value.display_gens())
            else:
                assert got == value


class TestDeterminism:
    CORPUS = ["versal_embedding", "morey_ulrich", "intersect_conic_tangent",
              "intersect_quartic_line", "intersect_improper", "intersect_self",
              "tacnode"]

    @pytest.mark.parametrize("name", CORPUS)
    def test_regression_scripts_match_frozen_output(self, name):
        src = (REGRESSIONS / f"{name}.rk").read_text()
        expected = (REGRESSIONS / f"{name}.expected.txt").read_bytes()
        doc = execute_script(parse_script(src), Config(seed=0))
        assert doc.status == 0, doc.message
        assert emit(doc) == expected

    @pytest.mark.parametrize("name", CORPUS)
    def test_regression_scripts_match_frozen_json(self, name):
        src = (REGRESSIONS / f"{name}.rk").read_text()
        expected = (REGRESSIONS / f"{name}.expected.json").read_bytes()
        doc = execute_script(parse_script(src), Config(seed=0))
        assert emit(doc, "json") == expected

    def test_double_run_byte_identical(self):
        src = (REGRESSIONS / "intersect_self.rk").read_text()
        a = emit(execute_script(parse_script(src), Config(seed=0)))
        b = emit(execute_script(parse_script(src), Config(seed=0)))
        assert a == b


class TestCoverage:
    def test_every_module_exposes_operations(self):
        modules = {mod for mod, _ in REGISTRY.values()}
        assert {"coeff", "polyring", "gb", "decompose", "rees",
                "intersection", "blowup"} <= modules

    def test_registry_spans_the_operation_map(self):
        expected = {
            # coeff
            "gfAdd", "gfSub", "gfMul", "gfDiv", "gfInv", "gfPow",
            "factorUnivariate", "factorMultivariate",
            # polyring
            "homogenize", "applyRingMap", "randomPoly", "ringmap",
            # gb
            "groebnerBasis", "normalForm", "eliminate", "kernelOfRingMap",
            "colonIdeal", "saturate", "intersectIdeals",
            "dimensionAndDegree", "hilbertSeries", "kernelOfMatrix",
            "minorsIdeal", "trimHomogeneous", "gradedPieceDim",
            # decompose
            "minimalPrimes", "decompose",
            # rees
            "universalEmbedding", "symmetricKernel", "symmetricAlgebraIdeal",
            "reesIdeal", "isLinearType", "normalCone",
            "associatedGradedRing", "multiplicity", "specialFiberIdeal",
            "analyticSpread", "minimalReduction", "isReduction",
            "reductionNumber", "whichGm", "jacobianDual",
            "expectedReesIdeal",
            # intersection
            "distinguished", "intersectInP",
            # blowup
            "blowupOf", "totalTransform", "strictTransform",
            "singularLocusIdeal", "isSmoothAwayFromIrrelevant",
        }
        missing = expected - set(REGISTRY)
        assert not missing

    SMOKE = {
        "gfAdd": "print gfAdd(101, 50, 51);",
        "gfSub": "print gfSub(101, 1, 2);",
        "gfMul": "print gfMul(5, 3, 4);",
        "gfDiv": "print gfDiv(101, 1, 2);",
        "gfInv": "print gfInv(101, 2);",
        "gfPow": "print gfPow(101, 2, 10);",
        "factorUnivariate": "print factorUnivariate(x^2);",
        "factorMultivariate": "print factorMultivariate(x*y);",
        "homogenize": 'print homogenize(ideal(x^2 - y), "h");',
        "applyRingMap": "print applyRingMap(ringmap(P, P, [x, y]), x);",
        "randomPoly": "print eq(randomPoly(2, 1), randomPoly(2, 1));",
        "ringmap": "print ringmap(P, P, [y, x]);",
        "ringOf": "print ringOf(x);",
        "transpose": "print transpose(matrix[[x, y]]);",
        "groebnerBasis": "print groebnerBasis(ideal(x^2 - y, y));",
        "normalForm": "print normalForm(x^2, ideal(x^2 - y));",
        "eliminate": 'print eliminate(ideal(x - y^2), "y");',
        "kernelOfRingMap": "print kernelOfRingMap(ringmap(P, P, [x, y]));",
        "colonIdeal": "print colonIdeal(ideal(x*y, y^2), y);",
        "saturate": "print saturate(ideal(x^2*y), x);",
        "intersectIdeals": "print intersectIdeals(ideal(x), ideal(y));",
        "dimensionAndDegree": "print dimensionAndDegree(ideal(x));",
        "dim": "print dim(ideal(x));",
        "degree": "print degree(ideal(x));",
        "codim": "print codim(ideal(x));",
        "hilbertSeries": "print hilbertSeries(ideal(x^2));",
        "kernelOfMatrix": "print kernelOfMatrix(matrix[[x, y]]);",
        "minorsIdeal": "print minorsIdeal(2, matrix[[x, y],[y, x]]);",
        "trimHomogeneous": "print trimHomogeneous(ideal(x, x^2, y));",
        "gradedPieceDim": "print gradedPieceDim(1, ideal(x, y));",
        "radicalMembership": "print radicalMembership(x, ideal(x^2));",
        "minimalPrimes": "print minimalPrimes(ideal(x^2*y));",
        "decompose": "print decompose(ideal(x*y));",
        "universalEmbedding": "module M = ideal(x, y); print universalEmbedding(M);",
        "symmetricKernel": "print symmetricKernel(matrix[[x, y]]);",
        "symmetricAlgebraIdeal": "print symmetricAlgebraIdeal(ideal(x, y));",
        "reesIdeal": "print reesIdeal(ideal(x, y));",
        "isLinearType": "print isLinearType(ideal(x, y));",
        "normalCone": "print normalCone(ideal(x, y));",
        "associatedGradedRing": "print associatedGradedRing(ideal(x));",
        "reesAlgebra": "print reesAlgebra(ideal(x, y));",
        "multiplicity": "print multiplicity(ideal(x, y));",
        "specialFiberIdeal": "print specialFiberIdeal(ideal(x, y));",
        "analyticSpread": "print analyticSpread(ideal(x, y));",
        "minimalReduction": "print minimalReduction(ideal(x, y));",
        "isReduction": "print isReduction(ideal(x, y), ideal(x, y));",
        "reductionNumber": "print reductionNumber(ideal(x, y), ideal(x, y));",
        "whichGm": "print whichGm(ideal(x, y));",
        "jacobianDual": "print jacobianDual(ideal(x^2, x*y));",
        "expectedReesIdeal": "print expectedReesIdeal(ideal(x, y));",
        "distinguished": None,  # exercised in test_intersection
        "intersectInP": "print intersectInP(ideal(x), ideal(y));",
        "blowupOf": "print blowupOf(ideal(x, y));",
        "totalTransform":
            "let c = blowupOf(ideal(x, y));"
            "print totalTransform(c, ideal(y));",
        "strictTransform":
            "let c = blowupOf(ideal(x, y));"
            "print strictTransform(c, ideal(y));",
        "singularLocusIdeal": "print singularLocusIdeal(ideal(x^2 - y));",
        "isSmoothAwayFromIrrelevant":
            "let c = blowupOf(ideal(x, y));"
            "print isSmoothAwayFromIrrelevant(c, strictTransform(c, ideal(y)));",
        "eq": "print eq(ideal(x), ideal(x));",
        "neq": "print neq(1, 2);",
        "ge": "print ge(2, 1);",
        "gt": "print gt(2, 1);",
        "le": "print le(1, 1);",
        "lt": "print lt(1, 2);",
        "not": "print not(eq(1, 2));",
        "idealGens": "print idealGens(ideal(x, y));",
        "chartRing": "print chartRing(blowupOf(ideal(x, y)));",
        "chartProjection": "print chartProjection(blowupOf(ideal(x, y)));",
        "chartIrrelevant": "print chartIrrelevant(blowupOf(ideal(x, y)));",
        "chartExceptional": "print chartExceptional(blowupOf(ideal(x, y)));",
    }

    def test_every_registered_op_is_reachable_from_scripts(self):
        header = "ring P = zmod 101 [x,y];\n"
        untested = []
        for name in REGISTRY:
            snippet = self.SMOKE.get(name)
            if snippet is None:
                if name not in self.SMOKE:
                    untested.append(name)
                continue
            doc = execute_script(parse_script(header + snippet), Config())
            assert doc.status == 0, f"{name}: {doc.message}"
        assert not untested, f"ops without a script snippet: {untested}"

    def test_distinguished_reachable(self):
        src = (
            "ring P = zmod 101 [x,y];\n"
            "ring Q = zmod 101 [x,y] / (y);\n"
            "use P;\n"
            "let f = ringmap(Q, P, [x, y]);\n"
            "print distinguished(f, ideal(x^2 - y));\n")
        doc = execute_script(parse_script(src), Config())
        assert doc.status == 0, doc.message


class TestMainEntry:
    def test_run_exit_codes(self, tmp_path):
        good = tmp_path / "good.rk"
        good.write_text("ring P = zmod 101 [x,y];\n"
                        "assertTrue(eq(ideal(x), ideal(x)));\n")
        bad = tmp_path / "bad.rk"
        bad.write_text("ring P = zmod 101 [x,y];\n"
                       "assertTrue(eq(ideal(x), ideal(y)));\n")
        ugly = tmp_path / "ugly.rk"
        ugly.write_text("ring P = zmod 4 [x];\n")
        assert main(["run", str(good)]) == 0
        assert main(["run", str(bad)]) == 1
        assert main(["run", str(ugly)]) == 2

    @pytest.mark.parametrize("src", TestParser.TRUNCATED.values(),
                             ids=TestParser.TRUNCATED)
    def test_truncated_script_exits_2(self, tmp_path, capsys, src):
        script = tmp_path / "cut.rk"
        script.write_text(src)
        assert main(["run", str(script)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("parse error: line ")
        assert "unexpected end of input" in err

    def test_apply_ring_map_to_a_module_exits_2(self, tmp_path, capsys):
        script = tmp_path / "m.rk"
        script.write_text("ring P = zmod 101 [x,y];\n"
                          "module M = ideal(x, y);\n"
                          "print applyRingMap(ringmap(P, P, [y, x]), M);\n")
        assert main(["run", str(script)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("line 3 col 7: cannot apply ring map to "
                       "PresentedModule\n")

    @pytest.mark.parametrize("src, message", [
        # raised by the op: the position of the call
        ("let m = ringmap(P, P, [y, x]);\nprint dim(m);\n",
         "line 3 col 7: expected an ideal, got RingMap"),
        # raised by the binding's coercion: the position of the statement
        ("ideal J = ringmap(P, P, [y, x]);\n",
         "line 2 col 1: expected an ideal, got RingMap"),
    ], ids=["op", "binding"])
    def test_script_errors_have_a_position(self, tmp_path, capsys, src,
                                           message):
        script = tmp_path / "m.rk"
        script.write_text("ring P = zmod 101 [x,y];\n" + src)
        assert main(["run", str(script)]) == 2
        assert capsys.readouterr() == ("", message + "\n")

    @pytest.mark.parametrize("src, message", [
        ("print gfAdd(101, 1);", "gfAdd takes 3 arguments, got 2"),
        ("print dim(ideal(x), 3);", "dim takes 1 argument, got 2"),
        ("print randomPoly(1, 2, true, 4);",
         "randomPoly takes 1 to 3 arguments, got 4"),
        ("print eliminate();", "eliminate takes at least 1 argument, got 0"),
        # the rows of an ideal's Jacobian dual live in the Rees ring the op
        # builds, so an ideal takes no rows
        ("print jacobianDual(ideal(x^2, x*y), [x], [y]);",
         "jacobianDual of an ideal takes 1 argument, got 3"),
    ], ids=["row", "hand-written", "defaults", "variadic", "ideal-form"])
    def test_a_wrong_argument_count_exits_2(self, tmp_path, capsys, src,
                                            message):
        script = tmp_path / "n.rk"
        script.write_text("ring P = zmod 101 [x,y];\n" + src + "\n")
        assert main(["run", str(script)]) == 2
        assert capsys.readouterr() == ("", f"line 2 col 7: {message}\n")

    @pytest.mark.parametrize("name", sorted(set(REGISTRY) - {"eliminate"}))
    def test_one_argument_too_many_is_reported(self, name):
        # nine arguments are too many for every op but the variadic
        # eliminate, and the message gives the op's own count; one more
        # than the most it takes fails the same way
        def message(n):
            doc, out = run_text("ring P = zmod 101 [x,y];\n"
                                f"print {name}({', '.join(['0'] * n)});\n")
            assert (doc.status, out) == (2, "")
            return doc.message
        m = re.fullmatch(rf"line 2 col 7: {name} takes ((?:\d+ to )?(\d+) "
                         r"arguments?), got 9", message(9))
        assert m, message(9)
        most = int(m[2])
        assert message(most + 1) == \
            f"line 2 col 7: {name} takes {m[1]}, got {most + 1}"

    # every chart operation and every ring-map use, given an ideal
    CHART = "line 2 col 7: expected a blowup chart, got Ideal"
    MAP = "line 2 col 7: expected a ring map, got Ideal"
    WRONG_ARGUMENT = {
        "totalTransform": ("print totalTransform(ideal(x), ideal(y));", CHART),
        "strictTransform": ("print strictTransform(ideal(x), ideal(y));",
                            CHART),
        "isSmoothAwayFromIrrelevant":
            ("print isSmoothAwayFromIrrelevant(ideal(x), ideal(y));", CHART),
        "chartRing": ("print chartRing(ideal(x));", CHART),
        "chartProjection": ("print chartProjection(ideal(x));", CHART),
        "chartIrrelevant": ("print chartIrrelevant(ideal(x));", CHART),
        "chartExceptional": ("print chartExceptional(ideal(x));", CHART),
        "applyRingMap": ("print applyRingMap(ideal(x), x);", MAP),
        "kernelOfRingMap": ("print kernelOfRingMap(ideal(x));", MAP),
        "distinguished": ("print distinguished(ideal(x), ideal(y));", MAP),
        "map": ("map f = ideal(x);",
                "line 2 col 1: expected a ring map, got Ideal"),
    }

    @pytest.mark.parametrize("name", WRONG_ARGUMENT)
    def test_wrong_chart_or_map_exits_2(self, tmp_path, capsys, name):
        src, message = self.WRONG_ARGUMENT[name]
        script = tmp_path / "w.rk"
        script.write_text("ring P = zmod 101 [x,y];\n" + src + "\n")
        assert main(["run", str(script)]) == 2
        assert capsys.readouterr() == ("", message + "\n")

    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
    def test_run_and_eval_report_errors_alike(self, tmp_path, capsys, flags):
        # text mode: the message on stderr; --json: only in the document
        script = tmp_path / "foo.rk"
        script.write_text("print foo;")
        got = []
        for argv in (["run", str(script)], ["eval", "foo"]):
            code = main(flags + argv)
            got.append((code,) + tuple(capsys.readouterr()))
        message = "line 1 col 7: unknown identifier 'foo'"
        if flags:
            doc = {"message": message, "results": [], "schema": 1,
                   "status": 2}
            want = (2, json.dumps(doc, separators=(",", ":")) + "\n", "")
        else:
            want = (2, "", message + "\n")
        assert got == [want, want]

    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
    def test_parse_errors_report_like_runtime_errors(self, tmp_path, capsys,
                                                     flags):
        # a script that does not parse fails with status 2; under --json
        # its message goes into the one document, as a runtime error's does
        script = tmp_path / "cut.rk"
        script.write_text("ring P = zmod 101 [x,y];\nprint ideal(x")
        for argv, where in ((["run", str(script)],
                             "line 2 col 13: unexpected end of input"),
                            (["eval", "ideal(x"],
                             "line 1 col 14: expected ')', found ';'")):
            code = main(flags + argv)
            got = (code,) + tuple(capsys.readouterr())
            message = "parse error: " + where
            if flags:
                doc = {"message": message, "results": [], "schema": 1,
                       "status": 2}
                want = (2, json.dumps(doc, separators=(",", ":")) + "\n", "")
            else:
                want = (2, "", message + "\n")
            assert got == want

    def test_eval_expression(self, capsys):
        code = main(["eval", "gfInv(101, 2)"])
        out = capsys.readouterr().out
        assert code == 0 and out == "51\n"

    def test_cli_subprocess_round_trip(self, tmp_path):
        script = tmp_path / "s.rk"
        script.write_text("ring P = zmod 101 [x,y];\n"
                          "print intersectInP(ideal(x^2 - y), ideal(y));\n")
        proc = subprocess.run(
            [sys.executable, "-m", "reeskit.cli", "--json", "run",
             str(script)], capture_output=True, text=True)
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["schema"] == 1

    def test_python_m_reeskit_runs_a_script(self):
        # the package runs as a module, with the frozen output byte for
        # byte; src/ goes first on the path, so this checkout is the one run
        src = str(REGRESSIONS.parent / "src")
        path = os.pathsep.join(filter(None, (src,
                                             os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "reeskit", "run",
             str(REGRESSIONS / "tacnode.rk")],
            capture_output=True, env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0, proc.stderr
        want = (REGRESSIONS / "tacnode.expected.txt").read_bytes()
        assert proc.stdout == want

    def test_env_seed_mirrors_flag(self, tmp_path, capsys, monkeypatch):
        script = tmp_path / "r.rk"
        script.write_text("ring P = zmod 101 [x,y];\n"
                          "print randomPoly(2, 0);\n")
        assert main(["--seed", "7", "run", str(script)]) == 0
        out_flag = capsys.readouterr().out
        monkeypatch.setenv("REESKIT_SEED", "7")
        assert main(["run", str(script)]) == 0
        out_env = capsys.readouterr().out
        assert out_flag == out_env

    def test_malformed_env_seed_exits_2(self, capsys, monkeypatch):
        # as --seed abc does: argparse's usage and one error line, no
        # traceback, where int() raised a ValueError that exited 1
        monkeypatch.setenv("REESKIT_SEED", "abc")
        with pytest.raises(SystemExit) as exc:
            main(["eval", "1"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert err.startswith("usage: reeskit ")
        assert [line for line in err.splitlines() if "error" in line] == \
            ["reeskit: error: REESKIT_SEED: invalid int value: 'abc'"]

    def test_verify_flag_runs_cross_checks(self, tmp_path):
        script = tmp_path / "v.rk"
        script.write_text("ring P = zmod 101 [x,y];\n"
                          "print reesIdeal(ideal(x^2, x*y, y^2));\n"
                          "print saturate(ideal(x^2*y), x);\n"
                          "print saturate(ideal(x^2*y, x*y^2), ideal(x, y));\n"
                          "print colonIdeal(ideal(x^2*y, x*y^2), ideal(x, y));\n"
                          "let c = blowupOf(ideal(x, y^2));\n"
                          "let st = strictTransform(c, ideal(x^2 - y^4));\n"
                          "print st;\n"
                          "print isSmoothAwayFromIrrelevant(c, st);\n"
                          "print factorMultivariate((x^2 + y)*(x*y - 3));\n"
                          "print multiplicity(ideal(x^3, x*y, y^4));\n"
                          "print radicalMembership(x*y, ideal(x^2, y^3));\n")
        assert main(["--verify", "run", str(script)]) == 0

    def test_verify_catches_a_wrong_factorization(self, monkeypatch):
        from reeskit import coeff
        src = ("ring P = zmod 101 [x,y];\n"
               "print factorMultivariate((x^2 + y)*(x*y - 3));\n")
        assert run_text(src, verify=True)[0].status == 0
        monkeypatch.setattr(coeff, "_hensel_factors",
                            lambda f, used, p, rng, bound: [f])
        doc, _ = run_text(src, verify=True)
        assert doc.status != 0 and "cross-check failed" in doc.message

    def test_verify_catches_a_wrong_multiplicity(self, monkeypatch):
        from reeskit import rees
        src = ("ring P = zmod 101 [x,y];\n"
               "print multiplicity(ideal(x^3, x*y, y^4));\n")
        doc, _ = run_text(src, verify=True)
        assert doc.status == 0 and doc.entries[0].value == 7
        # h = 6 + t, so e = 7; a wrong h = 1 + 2t + 3t^2 claims e = 6, but
        # the colengths 6, 19, 39 of I, I^2, I^3 have second difference 7
        monkeypatch.setattr(rees, "_normal_cone_series",
                            lambda I: ({0: 1, 1: 2, 2: 3}, 2))
        doc, _ = run_text(src, verify=True)
        assert doc.status != 0 and "cross-check failed" in doc.message

    @pytest.mark.parametrize("line, name, wrong", [
        ("multiplicity(I)", "multiplicity", lambda I: 5),
        ("analyticSpread(I)", "analytic_spread", lambda I: 3),
        ("isReduction(I, ideal(x^2, y^2))", "_reduction_by_rank",
         lambda I, J, cap: rees.ReductionCertificate(True, 0, cap)),
        ("reductionNumber(I, ideal(x^2, y^2))", "_reduction_by_rank",
         lambda I, J, cap: rees.ReductionCertificate(True, 2, cap)),
    ], ids=["multiplicity", "analyticSpread", "isReduction",
            "reductionNumber"])
    def test_verify_catches_a_wrong_theorem_value(self, monkeypatch, line,
                                                  name, wrong):
        # (x, y)^2 is generated by forms of one degree, so each value comes
        # from a theorem; the oracles recompute it on the computed path
        src = ("ring P = zmod 101 [x,y];\n"
               "ideal I = ideal(x^2, x*y, y^2);\n"
               f"print {line};\n")
        assert run_text(src, verify=True)[0].status == 0
        monkeypatch.setattr(rees, name, wrong)
        doc, _ = run_text(src, verify=True)
        assert doc.status != 0 and "cross-check failed" in doc.message

    def test_verify_catches_a_wrong_intersection_multiplicity(self,
                                                              monkeypatch):
        from reeskit import intersection
        src = ("ring P = zmod 101 [x,y];\n"
               "print intersectInP(ideal(x^2 - y), ideal(y));\n")
        doc, _ = run_text(src, verify=True)
        assert doc.status == 0
        assert [c.multiplicity for c in doc.entries[0].value] == [2]
        # a tangency counted once: the colength of (x^2 - y, y) is 2
        real = intersection.intersect_in_p
        monkeypatch.setattr(
            intersection, "intersect_in_p",
            lambda I, J, seed=0: [WeightedComponent(1, c.prime, c.certified)
                                  for c in real(I, J, seed)])
        doc, _ = run_text(src, verify=True)
        assert doc.status != 0 and "cross-check failed" in doc.message

    def test_verify_catches_a_wrong_radical_membership(self, monkeypatch):
        from reeskit import gb
        src = ("ring P = zmod 101 [x,y];\n"
               "print radicalMembership(x*y, ideal(x^2, y^3));\n"
               "print radicalMembership(x + 1, ideal(x^2, y^3));\n")
        doc, _ = run_text(src, verify=True)
        assert doc.status == 0
        assert [e.value for e in doc.entries] == [True, False]
        monkeypatch.setattr(gb, "radical_membership", lambda f, I: False)
        doc, _ = run_text(src, verify=True)
        assert doc.status != 0 and "cross-check failed" in doc.message

    @pytest.mark.parametrize("name, wrong", [
        ("strict_transform", lambda chart, X: chart.projection(X)),
        ("is_smooth_away_from_irrelevant", lambda chart, X: False),
    ])
    def test_verify_catches_a_wrong_blowup_result(self, monkeypatch, name,
                                                  wrong):
        from reeskit import blowup
        src = ("ring P = zmod 101 [x,y];\n"
               "let c = blowupOf(ideal(x, y^2));\n"
               "print isSmoothAwayFromIrrelevant(c, "
               "strictTransform(c, ideal(x^2 - y^4)));\n")
        assert run_text(src, verify=True)[0].status == 0
        monkeypatch.setattr(blowup, name, wrong)
        doc, _ = run_text(src, verify=True)
        assert doc.status != 0 and "cross-check failed" in doc.message


class TestTable:
    """The rows of ``cli._TABLE``: each op that calls one module function,
    with the run's values and optional arguments as row entries."""

    def test_every_oracle_binds_to_its_row(self):
        # an oracle takes one value per row entry and then the output, and
        # every public oracle of verify.py runs from some row
        wired = set()
        for _, _, entries, *oracle in cli._TABLE.values():
            for check in oracle:
                inspect.signature(check).bind(*entries, "out")
                wired.add(check.__name__)
        public = {name for name, v in vars(verify).items()
                  if inspect.isfunction(v) and v.__module__ == verify.__name__
                  and not name.startswith("_")}
        assert wired == public

    # the count each op gave when it was written out by hand
    COUNTS = {
        "factorUnivariate(x, 1)": "1 argument, got 2",
        "factorMultivariate()": "1 argument, got 0",
        "minimalPrimes(x, 1)": "1 argument, got 2",
        "decompose()": "1 argument, got 0",
        "distinguished(x)": "2 arguments, got 1",
        "intersectInP(x, y, 1)": "2 arguments, got 3",
        "isReduction(x)": "2 to 3 arguments, got 1",
        "reductionNumber(x, x, 3)": "2 arguments, got 3",
        "minimalReduction()": "1 to 2 arguments, got 0",
        "reesIdeal(x, y, 1)": "1 to 2 arguments, got 3",
        "specialFiberIdeal()": "1 to 2 arguments, got 0",
        "singularLocusIdeal(x, 1, 2)": "1 to 2 arguments, got 3",
        "gradedPieceDim(1)": "2 to 3 arguments, got 1",
        "randomPoly()": "1 to 3 arguments, got 0",
    }

    @pytest.mark.parametrize("call", COUNTS,
                             ids=lambda call: call.partition("(")[0])
    def test_argument_count_of_each_row(self, call):
        doc, out = run_text(f"ring P = zmod 101 [x,y];\nprint {call};\n")
        assert (doc.status, out) == (2, "")
        name = call.partition("(")[0]
        assert doc.message == \
            f"line 2 col 7: {name} takes {self.COUNTS[call]}"

    def test_left_out_arguments_take_their_defaults(self):
        # the cap of isReduction is the run's, the draw index of randomPoly
        # and minimalReduction is 0, and the rest are the function's own
        pairs = [("isReduction(I, ideal(x^2, x*y))",
                  "isReduction(I, ideal(x^2, x*y), 3)"),
                 ("randomPoly(2)", "randomPoly(2, 0, false)"),
                 ("minimalReduction(I)", "minimalReduction(I, 0)"),
                 ("reesIdeal(I)", "reesIdeal(I, x)"),
                 ("specialFiberIdeal(I)", "specialFiberIdeal(I, ideal(x, y))"),
                 ("gradedPieceDim(3, I)", 'gradedPieceDim(3, I, "total")'),
                 ("singularLocusIdeal(ideal(y^2 - x^3))",
                  "singularLocusIdeal(ideal(y^2 - x^3), 1)")]
        src = "ring P = zmod 101 [x,y];\nideal I = ideal(x, y)^2;\n" + "".join(
            f"print {a};\nprint {b};\n" for a, b in pairs)
        doc, out = run_text(src, seed=5, cap_reduction=3, verify=True)
        assert doc.status == 0, doc.message
        lines = out.splitlines()
        assert lines[0] == "not-a-reduction[ cap = 3 ]"
        assert lines[::2] == lines[1::2]

    def test_verify_checks_a_saturation_element(self):
        # I[1/z] is not of linear type, so z is no legal saturation element:
        # its output misses w_1^2 - w_0*w_2
        src = ("ring P = zmod 101 [x,y,z];\n"
               "print reesIdeal(ideal(x^2, x*y, y^2), z);\n")
        doc, out = run_text(src)
        assert doc.status == 0
        assert out == "ideal[ y*w_1 - x*w_2, y*w_0 - x*w_1, x*w_1^2 - x*w_0*w_2 ]\n"
        doc, out = run_text(src, verify=True)
        assert (doc.status, out) == (2, "")
        assert doc.message == \
            "line 2 col 7: reesIdeal strategy cross-check failed"
