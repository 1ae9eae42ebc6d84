"""Script language and command line driver.

The grammar is deliberately small::

    ring R = zmod 101 [x,y | w_0,w_1] / (x^2 - y);
    ideal I = x^2 - y;
    let L = intersectInP(I, ideal(y));
    print L;
    assertEqual(reesIdeal(I), symmetricAlgebraIdeal(I));
    assertTrue(isLinearType(I));

Expressions use ``+ - *`` and ``^`` with an integer exponent; a sign binds
looser than ``^``, so ``-x^2`` is -(x^2).  ``3x`` and ``x^2^3`` are syntax
errors, and ``#`` starts a comment.  ``polyring.parse_poly`` reads a
polynomial through the same parser (``eval_polynomial``) and rejects any
text containing ``#``.

Every public operation of every module is reachable through ``REGISTRY``.
An operation that calls one module function is one row of ``_TABLE``:
module, function name, one entry per argument of the function and, for
some, a ``--verify`` oracle from ``verify.py``.  An entry coerces a script
argument, possibly a trailing optional one with its default, or reads a
value the script does not pass: the run's seed, the reduction cap or the
active ring.  ``_plain`` runs every row, and is the only place an oracle
runs, on the row's arguments and the output.  Only ops that read part of
a result, take variadic arguments, have two call shapes or call no module
function are written out by hand.  Every op checks its argument count in
``_counted``.
``reeskit run FILE`` executes a script, ``reeskit eval EXPR`` evaluates
one expression.  Exit codes: 0 ok, 1 assertion failure,
2 parse or runtime error.  ``_describe`` is the one place that knows how a
value is emitted: its kind, its text line and its ``--json`` form.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import operator
import os
import sys
from dataclasses import dataclass, field

from . import blowup as blowup_mod
from . import coeff as coeff_mod
from . import decompose as decompose_mod
from . import gb as gb_mod
from . import intersection as intersection_mod
from . import polyring as polyring_mod
from . import rees as rees_mod
from . import verify
from .blowup import BlowupChart
from .decompose import ComponentReport
from .gb import GroebnerBasis, HilbertSeries, Ideal
from .intersection import WeightedComponent
from .polyring import (FreeModuleMap, Polynomial, RingDescriptor, RingMap,
                       make_ring)
from .rees import PresentedModule, ReductionCertificate, ReesAlgebraPresentation


class ScriptError(Exception):
    def __init__(self, message, line=None, col=None):
        if line is not None:
            message = f"line {line} col {col}: {message}"
        super().__init__(message)
        self.line = line
        self.col = col


class AssertionFailure(Exception):
    pass


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Token:
    kind: str       # int | name | string | punct
    text: str
    line: int
    col: int


_PUNCT = set("()[]{},;=+-*^/|")


def tokenize(text: str):
    out = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            out.append(Token("int", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            out.append(Token("name", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 1
            if j >= n:
                raise ScriptError("unterminated string", line, start_col)
            body = text[i + 1:j]
            out.append(Token("string", body, line, start_col))
            if "\n" in body:
                # a string across lines: the next token's column counts
                # from the last newline inside it
                line += body.count("\n")
                col = j - (i + 1 + body.rindex("\n")) + 1
            else:
                col += j - i + 1
            i = j + 1
            continue
        if ch in _PUNCT:
            out.append(Token("punct", ch, line, start_col))
            i += 1
            col += 1
            continue
        raise ScriptError(f"unexpected character {ch!r}", line, col)
    return out


# ---------------------------------------------------------------------------
# AST and parser
# ---------------------------------------------------------------------------

@dataclass
class Node:
    kind: str
    data: dict
    line: int
    col: int


@dataclass
class Script:
    statements: list


class Parser:
    def __init__(self, tokens):
        self.toks = tokens
        self.i = 0

    def peek(self, offset=0):
        j = self.i + offset
        return self.toks[j] if j < len(self.toks) else None

    def next(self):
        t = self.peek()
        if t is None:
            last = self.toks[-1] if self.toks else Token("punct", "", 1, 1)
            raise ScriptError("unexpected end of input", last.line, last.col)
        self.i += 1
        return t

    def expect(self, text):
        t = self.next()
        if t.text != text:
            raise ScriptError(f"expected {text!r}, found {t.text!r}",
                              t.line, t.col)
        return t

    def at(self, *texts):
        """Whether the next token, if any, is one of ``texts``."""
        t = self.peek()
        return t is not None and t.text in texts

    def parse_items(self, close, empty=True):
        """Comma-separated expressions up to the token ``close``, which is
        consumed; none at all only when ``empty``."""
        items = []
        if empty and self.at(close):
            self.next()
            return items
        while True:
            items.append(self.parse_expr())
            t = self.next()
            if t.text == close:
                return items
            if t.text != ",":
                raise ScriptError(f"expected {close!r}, found {t.text!r}",
                                  t.line, t.col)

    def expect_name(self):
        t = self.next()
        if t.kind != "name":
            raise ScriptError(f"expected a name, found {t.text!r}",
                              t.line, t.col)
        return t

    # -- statements -----------------------------------------------------------
    def parse_script(self) -> Script:
        statements = []
        while self.peek() is not None:
            statements.append(self.parse_statement())
        return Script(statements)

    def parse_statement(self) -> Node:
        t = self.peek()
        if t.kind != "name":
            raise ScriptError(f"statement cannot start with {t.text!r}",
                              t.line, t.col)
        if t.text == "ring":
            return self.parse_ring()
        if t.text == "use":
            self.next()
            e = self.parse_expr()
            self.expect(";")
            return Node("use", {"expr": e}, t.line, t.col)
        if t.text in ("let", "ideal", "poly", "module", "matrix", "map") and \
                self.peek(1) is not None and self.peek(1).kind == "name" and \
                self.peek(2) is not None and self.peek(2).text == "=":
            kw = self.next().text
            name = self.expect_name().text
            self.expect("=")
            e = self.parse_expr()
            self.expect(";")
            return Node("bind", {"kw": kw, "name": name, "expr": e},
                        t.line, t.col)
        if t.text == "print":
            self.next()
            e = self.parse_expr()
            self.expect(";")
            return Node("print", {"expr": e}, t.line, t.col)
        if t.text in ("assertEqual", "assertNotEqual"):
            self.next()
            self.expect("(")
            a = self.parse_expr()
            self.expect(",")
            b = self.parse_expr()
            self.expect(")")
            self.expect(";")
            return Node("assert2", {"op": t.text, "a": a, "b": b},
                        t.line, t.col)
        if t.text == "assertTrue":
            self.next()
            self.expect("(")
            a = self.parse_expr()
            self.expect(")")
            self.expect(";")
            return Node("assert1", {"a": a}, t.line, t.col)
        e = self.parse_expr()
        self.expect(";")
        return Node("expr", {"expr": e}, t.line, t.col)

    def parse_ring(self) -> Node:
        t = self.expect("ring")
        name = self.expect_name().text
        self.expect("=")
        self.expect("zmod")
        p_tok = self.next()
        if p_tok.kind != "int":
            raise ScriptError("characteristic must be an integer",
                              p_tok.line, p_tok.col)
        self.expect("[")
        blocks = [[]]
        while True:
            v = self.expect_name().text
            blocks[-1].append(v)
            nxt = self.next()
            if nxt.text == ",":
                continue
            if nxt.text == "|":
                blocks.append([])
                continue
            if nxt.text == "]":
                break
            raise ScriptError(f"unexpected {nxt.text!r} in variable list",
                              nxt.line, nxt.col)
        quotient = None
        if self.at("/"):
            self.next()
            self.expect("(")
            quotient = self.parse_items(")", empty=False)
        self.expect(";")
        return Node("ring", {"name": name, "p": int(p_tok.text),
                             "blocks": blocks, "quotient": quotient},
                    t.line, t.col)

    # -- expressions -----------------------------------------------------------
    def parse_expr(self) -> Node:
        return self.parse_sum()

    def parse_sum(self) -> Node:
        t = self.peek()
        node = self.parse_product()
        while self.at("+", "-"):
            op = self.next().text
            rhs = self.parse_product()
            node = Node("binop", {"op": op, "a": node, "b": rhs},
                        t.line, t.col)
        return node

    def parse_product(self) -> Node:
        t = self.peek()
        node = self.parse_unary()
        while self.at("*"):
            self.next()
            rhs = self.parse_unary()
            node = Node("binop", {"op": "*", "a": node, "b": rhs},
                        t.line, t.col)
        return node

    def parse_unary(self) -> Node:
        # a sign binds looser than ^: -x^2 is -(x^2)
        t = self.peek()
        if self.at("-"):
            self.next()
            return Node("neg", {"a": self.parse_unary()}, t.line, t.col)
        return self.parse_power()

    def parse_power(self) -> Node:
        t = self.peek()
        node = self.parse_atom()
        if self.at("^"):
            self.next()
            e = self.next()
            if e.kind != "int":
                raise ScriptError("exponent must be an integer",
                                  e.line, e.col)
            node = Node("pow", {"a": node, "n": int(e.text)}, t.line, t.col)
        return node

    def parse_atom(self) -> Node:
        t = self.next()
        if t.kind == "int":
            return Node("int", {"value": int(t.text)}, t.line, t.col)
        if t.kind == "string":
            return Node("string", {"value": t.text}, t.line, t.col)
        if t.text == "(":
            e = self.parse_expr()
            self.expect(")")
            return e
        if t.text == "matrix" and self.at("["):
            self.next()
            rows = []
            while True:
                self.expect("[")
                rows.append(self.parse_items("]", empty=False))
                nxt = self.next()
                if nxt.text == ",":
                    continue
                if nxt.text == "]":
                    break
                raise ScriptError("malformed matrix literal",
                                  nxt.line, nxt.col)
            return Node("matrix", {"rows": rows}, t.line, t.col)
        if t.text == "[":
            return Node("list", {"items": self.parse_items("]")},
                        t.line, t.col)
        if t.kind == "name":
            if self.at("("):
                self.next()
                return Node("call", {"name": t.text,
                                     "args": self.parse_items(")")},
                            t.line, t.col)
            return Node("ident", {"name": t.text}, t.line, t.col)
        raise ScriptError(f"unexpected token {t.text!r}", t.line, t.col)


def parse_script(text: str) -> Script:
    return Parser(tokenize(text)).parse_script()


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

@dataclass
class Config:
    seed: int = 0
    cap_reduction: int = rees_mod.DEFAULT_REDUCTION_CAP
    json: bool = False
    verify: bool = False


@dataclass
class ResultEntry:
    statement: int
    value: object


@dataclass
class ResultDocument:
    entries: list = field(default_factory=list)
    status: int = 0
    message: str = ""


def _as_ideal(ctx, x):
    if isinstance(x, Ideal):
        return x
    if isinstance(x, Polynomial):
        return Ideal(x.ring, (x,))
    if isinstance(x, int) and not isinstance(x, bool):
        ring = ctx.require_ring()
        return Ideal(ring, (ring.const(x),))
    raise ScriptError(f"expected an ideal, got {_kind_name(x)}")


def _as_poly(ctx, x):
    if isinstance(x, Polynomial):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return ctx.require_ring().const(x)
    raise ScriptError(f"expected a polynomial, got {_kind_name(x)}")


def _as_int(ctx, x):
    if isinstance(x, bool) or not isinstance(x, int):
        raise ScriptError(f"expected an integer, got {_kind_name(x)}")
    return x


def _as_bound(ctx, x):
    """An integer or ``infinity``, the values ``whichGm`` and its kin
    return: what the comparisons take."""
    if isinstance(x, float) and x == math.inf:
        return x
    return _as_int(ctx, x)


def _as_type(cls, what):
    def coerce(ctx, x):
        if not isinstance(x, cls):
            raise ScriptError(f"expected {what}, got {_kind_name(x)}")
        return x
    return coerce


_as_str = _as_type(str, "a string")
_as_bool = _as_type(bool, "true or false")
_as_matrix = _as_type(FreeModuleMap, "a matrix")
_as_chart = _as_type(BlowupChart, "a blowup chart")
_as_map = _as_type(RingMap, "a ring map")


def _as_module(ctx, x):
    if isinstance(x, Polynomial):
        x = _as_ideal(ctx, x)
    return rees_mod.as_module(x)


def _as_ideal_or_poly(ctx, x):
    """What a colon or a saturation is taken by."""
    return x if isinstance(x, Ideal) else _as_poly(ctx, x)


def _as_ideal_or_matrix(ctx, x):
    return x if isinstance(x, FreeModuleMap) else _as_ideal(ctx, x)


def _var_names(args):
    names = []
    for a in args:
        if isinstance(a, str):
            names.append(a)
        elif isinstance(a, Polynomial) and len(a.terms) == 1 \
                and a.terms[0][1] == 1 and sum(a.terms[0][0]) == 1:
            names.append(a.ring.names[a.terms[0][0].index(1)])
        else:
            raise ScriptError("expected variable names")
    return names


def _kind_name(x):
    return type(x).__name__


def _as_sub_seed(ctx, k):
    """The run's seed split by the script's index ``k``, so that calls
    drawing with distinct indices draw apart."""
    return ctx.config.seed * 1_000_003 + _as_int(ctx, k)


class _Run:
    """A row entry that the script does not pass: a value of the run."""

    def __init__(self, read):
        self.read = read


_SEED = _Run(lambda ctx: ctx.config.seed)
_CAP = _Run(lambda ctx: ctx.config.cap_reduction)
_RING = _Run(lambda ctx: ctx.require_ring())


# every plain operation: name -> (module, function name, entries[,
# --verify oracle]).  The function takes one value per entry, in order;
# the oracle takes the same values and then the output.  An entry is the
# coercer of a script argument; a (coercer, default) pair, a trailing
# script argument that may be left out; or _SEED, _CAP or _RING, a value
# of the run.  A left-out argument is its default, read off the run if it
# is one of those, and coerced as a given one would be, unless it is None
_TABLE = {
    "gfAdd": (coeff_mod, "gf_add", (_as_int, _as_int, _as_int)),
    "gfSub": (coeff_mod, "gf_sub", (_as_int, _as_int, _as_int)),
    "gfMul": (coeff_mod, "gf_mul", (_as_int, _as_int, _as_int)),
    "gfDiv": (coeff_mod, "gf_div", (_as_int, _as_int, _as_int)),
    "gfInv": (coeff_mod, "gf_inv", (_as_int, _as_int)),
    "gfPow": (coeff_mod, "gf_pow", (_as_int, _as_int, _as_int)),
    "factorUnivariate": (coeff_mod, "factor_univariate", (_as_poly, _SEED),
                         verify.factor_univariate),
    "factorMultivariate": (coeff_mod, "factor_multivariate",
                           (_as_poly, _SEED), verify.factorization),
    "homogenize": (polyring_mod, "homogenize_ideal", (_as_ideal, _as_str)),
    "randomPoly": (polyring_mod, "random_poly",
                   (_RING, _as_int, (_as_sub_seed, 0), (_as_bool, False))),
    "groebnerBasis": (gb_mod, "groebner_basis", (_as_ideal_or_matrix,)),
    "normalForm": (gb_mod, "normal_form", (_as_poly, _as_ideal)),
    "kernelOfRingMap": (gb_mod, "kernel_of_ring_map", (_as_map,)),
    "colonIdeal": (gb_mod, "colon", (_as_ideal, _as_ideal_or_poly),
                   verify.colon),
    "saturate": (gb_mod, "saturate", (_as_ideal, _as_ideal_or_poly),
                 verify.saturate),
    "intersectIdeals": (gb_mod, "intersect_ideals", (_as_ideal, _as_ideal)),
    "dimensionAndDegree": (gb_mod, "dimension_and_degree", (_as_ideal,)),
    "codim": (gb_mod, "codimension", (_as_ideal,)),
    "hilbertSeries": (gb_mod, "hilbert_series", (_as_ideal,)),
    "gradedPieceDim": (gb_mod, "graded_piece_dim",
                       (_as_int, _as_ideal, (_as_str, "total"))),
    "kernelOfMatrix": (gb_mod, "kernel_of_matrix", (_as_matrix,),
                       verify.kernel_of_matrix),
    "minorsIdeal": (gb_mod, "minors_ideal", (_as_int, _as_matrix)),
    "trimHomogeneous": (gb_mod, "trim_homogeneous", (_as_ideal,)),
    "radicalMembership": (gb_mod, "radical_membership",
                          (_as_poly, _as_ideal), verify.radical_membership),
    "minimalPrimes": (decompose_mod, "minimal_primes", (_as_ideal, _SEED),
                      verify.minimal_primes),
    "decompose": (decompose_mod, "minimal_primes", (_as_ideal, _SEED),
                  verify.minimal_primes),
    "universalEmbedding": (rees_mod, "universal_embedding", (_as_module,)),
    "symmetricKernel": (rees_mod, "symmetric_kernel", (_as_matrix,)),
    "symmetricAlgebraIdeal": (rees_mod, "symmetric_algebra_ideal",
                              (_as_module,)),
    "reesIdeal": (rees_mod, "rees_ideal", (_as_module, (_as_poly, None)),
                  verify.rees_ideal),
    "isLinearType": (rees_mod, "is_linear_type", (_as_module,)),
    "normalCone": (rees_mod, "normal_cone", (_as_ideal,)),
    "associatedGradedRing": (rees_mod, "normal_cone", (_as_ideal,)),
    "reesAlgebra": (rees_mod, "rees_presentation", (_as_module,)),
    "multiplicity": (rees_mod, "multiplicity", (_as_ideal,),
                     verify.multiplicity),
    "specialFiberIdeal": (rees_mod, "special_fiber_ideal",
                          (_as_ideal, (_as_ideal, None))),
    "analyticSpread": (rees_mod, "analytic_spread", (_as_ideal,),
                       verify.analytic_spread),
    "minimalReduction": (rees_mod, "minimal_reduction",
                         (_as_ideal, (_as_sub_seed, 0), _CAP),
                         verify.minimal_reduction),
    "isReduction": (rees_mod, "is_reduction",
                    (_as_ideal, _as_ideal, (_as_int, _CAP)),
                    verify.is_reduction),
    "reductionNumber": (rees_mod, "reduction_number",
                        (_as_ideal, _as_ideal, _CAP), verify.reduction_number),
    "whichGm": (rees_mod, "which_gm", (_as_ideal,)),
    "expectedReesIdeal": (rees_mod, "expected_rees_ideal", (_as_ideal,)),
    "distinguished": (intersection_mod, "distinguished",
                      (_as_map, _as_ideal, _SEED)),
    "intersectInP": (intersection_mod, "intersect_in_p",
                     (_as_ideal, _as_ideal, _SEED), verify.intersect_in_p),
    "blowupOf": (blowup_mod, "blowup_of", (_as_ideal,)),
    "totalTransform": (blowup_mod, "total_transform", (_as_chart, _as_ideal)),
    "strictTransform": (blowup_mod, "strict_transform",
                        (_as_chart, _as_ideal), verify.strict_transform),
    "isSmoothAwayFromIrrelevant": (blowup_mod,
                                   "is_smooth_away_from_irrelevant",
                                   (_as_chart, _as_ideal),
                                   verify.is_smooth_away_from_irrelevant),
    "singularLocusIdeal": (blowup_mod, "singular_locus_ideal",
                           (_as_ideal, (_as_int, None))),
    "ge": (operator, "ge", (_as_bound, _as_bound)),
    "gt": (operator, "gt", (_as_bound, _as_bound)),
    "le": (operator, "le", (_as_bound, _as_bound)),
    "lt": (operator, "lt", (_as_bound, _as_bound)),
}


def _counted(name, lo, hi, fn):
    """``fn(ctx, *args)`` behind the one check that it got from ``lo`` to
    ``hi`` script arguments."""
    def run(ctx, *args):
        if not lo <= len(args) <= hi:
            count = (f"{lo}" if lo == hi else f"at least {lo}"
                     if hi == math.inf else f"{lo} to {hi}")
            plural = "" if count in ("1", "at least 1") else "s"
            raise ScriptError(
                f"{name} takes {count} argument{plural}, got {len(args)}")
        return fn(ctx, *args)
    return run


def _value(ctx, entry, args):
    """The value of one row entry, taking its script argument, if it has
    one, off the iterator ``args``."""
    if isinstance(entry, _Run):
        return entry.read(ctx)
    coerce, default = entry if isinstance(entry, tuple) else (entry, None)
    x = next(args, default)
    if isinstance(x, _Run):
        x = x.read(ctx)
    return None if x is None else coerce(ctx, x)


def _plain(name, module, function, entries, oracle=None):
    """The runner of one table row, and the one place where a ``--verify``
    oracle runs.  The function is looked up when the op runs, so a patched
    or traced module function is the one called."""
    script = [e for e in entries if not isinstance(e, _Run)]

    def run(ctx, *args):
        args = iter(args)
        values = [_value(ctx, e, args) for e in entries]
        out = getattr(module, function)(*values)
        if oracle is not None and ctx.config.verify:
            oracle(*values, out)
        return out
    lo = sum(not isinstance(e, tuple) for e in script)
    return _counted(name, lo, len(script), run)


# every public operation, callable from the script language
def _registry():
    R = {name: (row[0].__name__.rpartition(".")[2], _plain(name, *row))
         for name, row in _TABLE.items()}

    # an op written out by hand reads part of a result, takes variadic
    # arguments, has two call shapes or calls no module function; its
    # argument count is read off its own signature, past ``ctx``
    def op(name, module):
        def deco(fn):
            hi = fn.__code__.co_argcount - 1
            lo = hi - len(fn.__defaults__ or ())
            if fn.__code__.co_flags & inspect.CO_VARARGS:
                hi = math.inf
            R[name] = (module, _counted(name, lo, hi, fn))
            return fn
        return deco

    # polyring ----------------------------------------------------------
    @op("applyRingMap", "polyring")
    def _(ctx, f, x):
        return _as_map(ctx, f)(x)

    @op("ringmap", "polyring")
    def _(ctx, target, source, images):
        if not isinstance(target, RingDescriptor) or \
                not isinstance(source, RingDescriptor):
            raise ScriptError("ringmap(target, source, [images])")
        if not isinstance(images, list):
            raise ScriptError("ringmap images must be a list")
        # images are matched into the target ring by variable name
        return RingMap(source, target, [
            polyring_mod.transport(_as_poly(ctx, i), target) for i in images])

    @op("ringOf", "polyring")
    def _(ctx, x):
        if isinstance(x, (Polynomial, Ideal, FreeModuleMap, BlowupChart)):
            return x.ring
        if isinstance(x, RingDescriptor):
            return x
        raise ScriptError(f"no ring attached to {_kind_name(x)}")

    @op("transpose", "polyring")
    def _(ctx, A):
        return _as_matrix(ctx, A).transpose()

    # gb ------------------------------------------------------------------
    @op("eliminate", "gb")
    def _(ctx, I, *vars_):
        return gb_mod.eliminate(_as_ideal(ctx, I), _var_names(vars_))

    @op("dim", "gb")
    def _(ctx, I):
        return gb_mod.dimension_and_degree(_as_ideal(ctx, I))[0]

    @op("degree", "gb")
    def _(ctx, I):
        return gb_mod.dimension_and_degree(_as_ideal(ctx, I))[1]

    # rees -------------------------------------------------------------------
    @op("jacobianDual", "rees")
    def _(ctx, x, X=None, T=None):
        if isinstance(x, FreeModuleMap):
            if not isinstance(X, list) or not isinstance(T, list):
                raise ScriptError(
                    "jacobianDual(matrix, [X...], [T...]) needs both rows")
            return rees_mod.jacobian_dual(x, [_as_poly(ctx, e) for e in X],
                                          [_as_poly(ctx, e) for e in T])
        I = _as_ideal(ctx, x)
        # an ideal's rows live in the Rees ring that jacobian_dual builds
        if X is not None:
            got = 2 if T is None else 3
            raise ScriptError(
                f"jacobianDual of an ideal takes 1 argument, got {got}")
        return rees_mod.jacobian_dual(I)

    # blowup ---------------------------------------------------------------
    @op("chartRing", "blowup")
    def _(ctx, chart):
        return _as_chart(ctx, chart).ring

    @op("chartProjection", "blowup")
    def _(ctx, chart):
        return _as_chart(ctx, chart).projection

    @op("chartIrrelevant", "blowup")
    def _(ctx, chart):
        return _as_chart(ctx, chart).irrelevant

    @op("chartExceptional", "blowup")
    def _(ctx, chart):
        return _as_chart(ctx, chart).exceptional

    # logic helpers -----------------------------------------------------------
    @op("eq", "cli")
    def _(ctx, a, b):
        return _values_equal(a, b)

    @op("neq", "cli")
    def _(ctx, a, b):
        return not _values_equal(a, b)

    @op("not", "cli")
    def _(ctx, a):
        if not isinstance(a, bool):
            raise ScriptError("not takes true or false")
        return not a

    @op("idealGens", "cli")
    def _(ctx, I):
        return list(_as_ideal(ctx, I).display_gens())

    return R


REGISTRY = _registry()

# the value a typed binding (``ideal I = ...``) holds; ``let`` keeps any
_BIND = {"ideal": _as_ideal, "poly": _as_poly, "module": _as_module,
         "matrix": _as_matrix, "map": _as_map}


def _values_equal(a, b) -> bool:
    if isinstance(a, Ideal) and isinstance(b, Ideal):
        return a == b
    if isinstance(a, HilbertSeries) and isinstance(b, HilbertSeries):
        return a.equivalent(b)
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return False
        return all(_values_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, WeightedComponent) and isinstance(b, WeightedComponent):
        return (a.multiplicity == b.multiplicity
                and _values_equal(a.prime, b.prime))
    if isinstance(a, ComponentReport) and isinstance(b, ComponentReport):
        return _values_equal(a.prime, b.prime)
    # a script int against a polynomial is that constant of its ring
    if isinstance(a, Polynomial) and isinstance(b, int):
        b = a.ring.const(b)
    elif isinstance(a, int) and isinstance(b, Polynomial):
        a = b.ring.const(a)
    return a == b


class Context:
    def __init__(self, config: Config):
        self.config = config
        self.env = {}
        self.active_ring = None

    def require_ring(self) -> RingDescriptor:
        if self.active_ring is None:
            raise ScriptError("no ring declared yet")
        return self.active_ring


def _eval(node: Node, ctx: Context):
    k = node.kind
    try:
        if k == "int":
            return node.data["value"]
        if k == "string":
            return node.data["value"]
        if k == "ident":
            name = node.data["name"]
            # bindings and ring variables shadow the constants below, so
            # every variable name a ring accepts reads as that variable
            if name in ctx.env:
                return ctx.env[name]
            ring = ctx.active_ring
            if ring is not None and name in ring._index:
                return ring.var(name)
            if name in ("true", "false"):
                return name == "true"
            if name == "infinity":
                return math.inf
            raise ScriptError(f"unknown identifier {name!r}")
        if k == "call":
            name = node.data["name"]
            if name == "ideal":
                args = [_eval(a, ctx) for a in node.data["args"]]
                parts = [_as_ideal(ctx, a) for a in args]
                ring = parts[-1].ring if parts else ctx.require_ring()
                return Ideal(ring, tuple(g for J in parts for g in J.gens))
            if name not in REGISTRY:
                raise ScriptError(f"unknown operation {name!r}")
            args = [_eval(a, ctx) for a in node.data["args"]]
            _, fn = REGISTRY[name]
            return fn(ctx, *args)
        if k == "list":
            return [_eval(a, ctx) for a in node.data["items"]]
        if k == "matrix":
            rows = [[_eval(e, ctx) for e in row] for row in node.data["rows"]]
            ring = None
            for row in rows:
                for v in row:
                    if isinstance(v, Polynomial):
                        ring = v.ring
            if ring is None:
                ring = ctx.require_ring()
            rows = [[v if isinstance(v, Polynomial) else ring.const(_as_int(ctx, v))
                     for v in row] for row in rows]
            return FreeModuleMap(ring, rows)
        if k == "neg":
            v = _eval(node.data["a"], ctx)
            if isinstance(v, (int, Polynomial)):
                return -v
            raise ScriptError(f"cannot negate {_kind_name(v)}")
        if k == "pow":
            v = _eval(node.data["a"], ctx)
            n = node.data["n"]
            if isinstance(v, (int, Polynomial, Ideal)):
                return v ** n
            raise ScriptError(f"cannot raise {_kind_name(v)} to a power")
        if k == "binop":
            a = _eval(node.data["a"], ctx)
            b = _eval(node.data["b"], ctx)
            op = node.data["op"]
            if isinstance(a, Ideal) or isinstance(b, Ideal):
                if op == "+":
                    return _as_ideal(ctx, a) + _as_ideal(ctx, b)
                if op == "*":
                    return _as_ideal(ctx, a) * _as_ideal(ctx, b)
                raise ScriptError(f"operation {op!r} undefined on ideals")
            if isinstance(a, Polynomial) or isinstance(b, Polynomial):
                if op == "+":
                    return a + b
                if op == "-":
                    return a - b
                if op == "*":
                    return a * b
            if isinstance(a, int) and isinstance(b, int):
                return {"+": a + b, "-": a - b, "*": a * b}[op]
            raise ScriptError(f"operation {op!r} undefined on "
                              f"{_kind_name(a)}, {_kind_name(b)}")
        raise ScriptError(f"cannot evaluate node kind {k!r}")
    except Exception as exc:
        # an error without a position, raised here or by an op, takes the
        # position of the innermost node being evaluated
        if isinstance(exc, ScriptError) and exc.line is not None:
            raise
        raise ScriptError(str(exc), node.line, node.col) from exc


def eval_polynomial(ring: RingDescriptor, text: str) -> Polynomial:
    """One script expression, evaluated with ``ring`` active, as an element
    of ``ring``; an integer is read as a constant.  Raises ScriptError on
    anything else, including text left over after the expression."""
    parser = Parser(tokenize(text))
    node = parser.parse_expr()
    extra = parser.peek()
    if extra is not None:
        raise ScriptError(f"unexpected token {extra.text!r}",
                          extra.line, extra.col)
    ctx = Context(Config())
    ctx.active_ring = ring
    v = _eval(node, ctx)
    if isinstance(v, int) and not isinstance(v, bool):
        return ring.const(v)
    if not isinstance(v, Polynomial) or v.ring != ring:
        raise ScriptError(f"expected a polynomial, got {_kind_name(v)}")
    return v


def execute_script(script: Script, config: Config | None = None) -> ResultDocument:
    config = config or Config()
    ctx = Context(config)
    doc = ResultDocument()
    for idx, st in enumerate(script.statements):
        try:
            if st.kind == "ring":
                base = make_ring(st.data["p"], st.data["blocks"])
                ctx.active_ring = base
                quotient = st.data["quotient"]
                if quotient:
                    gens = [g for qn in quotient
                            for g in _as_ideal(ctx, _eval(qn, ctx)).gens]
                    base = make_ring(st.data["p"], st.data["blocks"],
                                     quotient=gens)
                    ctx.active_ring = base
                ctx.env[st.data["name"]] = base
            elif st.kind == "use":
                v = _eval(st.data["expr"], ctx)
                if isinstance(v, BlowupChart):
                    v = v.ring
                if not isinstance(v, RingDescriptor):
                    raise ScriptError("use needs a ring")
                ctx.active_ring = v
            elif st.kind == "bind":
                v = _eval(st.data["expr"], ctx)
                coerce = _BIND.get(st.data["kw"])
                if coerce is not None:
                    v = coerce(ctx, v)
                ctx.env[st.data["name"]] = v
            elif st.kind == "print":
                v = _eval(st.data["expr"], ctx)
                doc.entries.append(ResultEntry(idx, v))
            elif st.kind == "assert2":
                a = _eval(st.data["a"], ctx)
                b = _eval(st.data["b"], ctx)
                equal = _values_equal(a, b)
                want = st.data["op"] == "assertEqual"
                if equal != want:
                    raise AssertionFailure(
                        f"{st.data['op']} failed at statement {idx}: "
                        f"{render_value(a)} vs {render_value(b)}")
            elif st.kind == "assert1":
                a = _eval(st.data["a"], ctx)
                if a is not True:
                    raise AssertionFailure(
                        f"assertTrue failed at statement {idx}: "
                        f"{render_value(a)}")
            elif st.kind == "expr":
                _eval(st.data["expr"], ctx)
        except AssertionFailure as exc:
            doc.status = 1
            doc.message = str(exc)
            return doc
        except ScriptError as exc:
            # raised outside any node: the statement's position
            if exc.line is None:
                exc = ScriptError(str(exc), st.line, st.col)
            doc.status = 2
            doc.message = str(exc)
            return doc
        except Exception as exc:
            doc.status = 2
            doc.message = f"statement {idx}: {exc}"
            return doc
    return doc


# ---------------------------------------------------------------------------
# canonical rendering
# ---------------------------------------------------------------------------

# the kind of every other value; its text and JSON form are both str(v)
_KINDS = {Polynomial: "poly", GroebnerBasis: "gb", FreeModuleMap: "matrix",
          RingDescriptor: "ring", RingMap: "ringmap",
          PresentedModule: "module", BlowupChart: "blowup",
          ReesAlgebraPresentation: "rees", HilbertSeries: "hilbertSeries",
          ReductionCertificate: "reduction", WeightedComponent: "component",
          ComponentReport: "prime"}


def _gens(I):
    return [str(g) for g in I.display_gens()]


def _describe(v):
    """(kind, text, JSON value, flags) of a script value: the text is its
    output line, the rest its ``--json`` result."""
    if isinstance(v, bool):
        return "bool", "true" if v else "false", v, ()
    if isinstance(v, int):
        return "int", str(v), v, ()
    if isinstance(v, float) and math.isinf(v):
        return "infinity", "infinity", "infinity", ()
    if isinstance(v, Ideal):
        return "ideal", str(v), {"generators": _gens(v)}, ()
    if isinstance(v, tuple) and v and isinstance(v[1], list):
        unit, factors = v  # a factorization
        text = " * ".join([str(unit)] + [f"({f})" + (f"^{m}" if m > 1 else "")
                                         for f, m in factors])
        return "tuple", text, {"unit": unit, "factors": [
            {"factor": str(f), "multiplicity": m} for f, m in factors]}, ()
    if isinstance(v, list) and v and \
            isinstance(v[0], (WeightedComponent, ComponentReport)):
        weighted = isinstance(v[0], WeightedComponent)
        value = [{"generators": _gens(c.prime), "certified": c.certified}
                 | ({"m": c.multiplicity} if weighted else {}) for c in v]
        flags = () if all(c.certified for c in v) else \
            ("unverified-component",)
        return ("components" if weighted else "primes",
                "{ " + ", ".join(map(str, v)) + " }", value, flags)
    if isinstance(v, (tuple, list)):
        parts = [_describe(x) for x in v]
        text = ", ".join(part[1] for part in parts)
        return (type(v).__name__,
                f"({text})" if isinstance(v, tuple) else f"[{text}]",
                [part[2] for part in parts],
                tuple(dict.fromkeys(f for part in parts for f in part[3])))
    return _KINDS.get(type(v), "value"), str(v), str(v), ()


def render_value(v) -> str:
    return _describe(v)[1]


def as_script_text(v) -> str:
    """Script-language expression reproducing the value (ideals, matrices,
    polynomials); parse(as_script_text(v)) evaluates back to v."""
    if isinstance(v, Polynomial):
        return str(v)
    if isinstance(v, Ideal):
        gens = v.display_gens()
        if not gens:
            return "ideal(0)"
        return "ideal(" + ", ".join(str(g) for g in gens) + ")"
    if isinstance(v, FreeModuleMap):
        body = ", ".join("[" + ", ".join(str(f) for f in row) + "]"
                         for row in v.entries)
        return f"matrix[{body}]"
    raise TypeError(f"no script form for {_kind_name(v)}")


def emit(doc: ResultDocument, mode="text") -> bytes:
    if mode == "json":
        results = []
        for e in doc.entries:
            kind, _, value, flags = _describe(e.value)
            results.append({"statement": e.statement, "kind": kind,
                            "value": value, "flags": flags})
        payload = {"schema": 1, "status": doc.status, "results": results}
        if doc.message:
            payload["message"] = doc.message
        return (json.dumps(payload, sort_keys=True, indent=None,
                           separators=(",", ":")) + "\n").encode()
    lines = [render_value(e.value) for e in doc.entries]
    return ("\n".join(lines) + "\n" if lines else "").encode()


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_config(parser, args) -> Config:
    """The run's settings; a ``REESKIT_SEED`` that is no integer fails as
    ``--seed`` does, through ``parser``."""
    seed = args.seed
    if seed is None:
        raw = os.environ.get("REESKIT_SEED", "0")
        try:
            seed = int(raw)
        except ValueError:
            parser.error(f"REESKIT_SEED: invalid int value: {raw!r}")
    return Config(seed=seed, cap_reduction=args.cap_reduction,
                  json=args.json, verify=args.verify)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="reeskit",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=None,
                        help="random seed (default env REESKIT_SEED or 0)")
    parser.add_argument("--cap-reduction", type=int,
                        default=rees_mod.DEFAULT_REDUCTION_CAP)
    parser.add_argument("--json", action="store_true")
    parser.add_argument("--verify", action="store_true",
                        help="enable cross-strategy oracles")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute a script file")
    runp.add_argument("file")
    evalp = sub.add_parser("eval", help="evaluate one expression")
    evalp.add_argument("expr")
    args = parser.parse_args(argv)
    config = _build_config(parser, args)
    if args.command == "run":
        try:
            with open(args.file, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        text = f"print {args.expr};"
    return _run_text(text, config)


def _run_text(text, config) -> int:
    """Parse, execute and emit one script; returns the exit code.  A
    parse error fails like a statement, with status 2: its message goes to
    stderr in text mode and only into the document under ``--json``."""
    try:
        script = parse_script(text)
    except ScriptError as exc:
        doc = ResultDocument(status=2, message=f"parse error: {exc}")
    else:
        doc = execute_script(script, config)
    sys.stdout.buffer.write(emit(doc, "json" if config.json else "text"))
    if doc.status and not config.json:
        print(doc.message, file=sys.stderr)
    return doc.status


if __name__ == "__main__":
    raise SystemExit(main())
