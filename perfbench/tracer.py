"""Span tracer that wraps reeskit's layer entry points from outside.

``from .gb import eliminate`` copies a function reference into every module
that imports it, so wrapping only ``gb.eliminate`` would miss the calls made
through ``rees.eliminate``.  ``Tracer.install`` therefore rebinds every
attribute of every loaded ``reeskit`` module that holds the wrapped object,
patches methods on their class (aliases such as ``__rmul__ = __mul__``
included), and ``uninstall`` puts every original back.

A span is one call of a wrapped function.  Its self time is its duration
minus the durations of the wrapped calls made inside it.  Spans are folded
into per-target counters as they close; nothing is written until the run
ends.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field

from reeskit import (blowup, cli, coeff, decompose, gb, intersection, polyring,
                     rees)


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0
    depth: int = 0
    extra: dict = field(default_factory=dict)

    def bump(self, key, by=1):
        self.extra[key] = self.extra.get(key, 0) + by


def _gb_core_hook(tr, stat, args, kwargs, result):
    stat.bump("in_vectors", len(args[0]))
    stat.bump("basis_terms", sum(len(g) - 1 for g in result[0]))


def _ideal_mul_hook(tr, stat, args, kwargs, result):
    n = len(result.gens)
    stat.bump("out_gens", n)
    stat.extra["max_gens"] = max(stat.extra.get("max_gens", 0), n)


def _components_hook(tr, stat, args, kwargs, result):
    stat.bump("components", len(result))
    stat.bump("certified", sum(1 for c in result if c.certified))


def _line_cert_hook(tr, stat, args, kwargs, result):
    if result:
        stat.bump("hits")


def _is_reduction_hook(tr, stat, args, kwargs, result):
    if tr.stats["rees.minimal_reduction"].depth:
        tr.stats["rees.minimal_reduction"].bump("tries")


def _bound_error_hook(tr, stat, exc):
    if isinstance(exc, coeff.KroneckerBoundError):
        stat.bump("bound_errors")


# (metric prefix, owner, attribute, return hook, error hook); an owner that
# is a class gets the method patched, a module gets every alias rebound
TARGETS = [
    ("gb.core", gb, "_gb_core", _gb_core_hook, None),
    ("gb.reduce", gb, "_reduce_vec", None, None),
    ("gb.reduce", gb, "normal_form", None, None),
    ("gb.ideal_mul", gb.Ideal, "__mul__", _ideal_mul_hook, None),
    ("gb.eliminate", gb, "eliminate", None, None),
    ("gb.kernel_of_ring_map", gb, "kernel_of_ring_map", None, None),
    ("gb.kernel_of_matrix", gb, "kernel_of_matrix", None, None),
    ("gb.colon", gb, "colon", None, None),
    ("gb.saturate", gb, "saturate", None, None),
    ("gb.intersect_ideals", gb, "intersect_ideals", None, None),
    ("gb.vector_space_dimension", gb, "vector_space_dimension", None, None),
    ("gb.dimension_and_degree", gb, "dimension_and_degree", None, None),
    ("coeff.factor_multivariate", coeff, "factor_multivariate", None,
     _bound_error_hook),
    ("coeff.factor_univariate_list", coeff, "factor_univariate_list", None, None),
    ("coeff.is_irreducible_univariate", coeff, "is_irreducible_univariate",
     None, None),
    ("coeff.uv_mul", coeff, "uv_mul", None, None),
    ("coeff.uv_divmod", coeff, "uv_divmod", None, None),
    ("coeff.uv_pow_mod", coeff, "uv_pow_mod", None, None),
    ("coeff.line_cert", coeff, "_line_certifies_irreducible", _line_cert_hook,
     None),
    ("polyring.mul", polyring.Polynomial, "__mul__", None, None),
    ("polyring.poly", polyring.RingDescriptor, "poly", None, None),
    ("polyring.transport", polyring, "transport", None, None),
    ("decompose.minimal_primes", decompose, "minimal_primes",
     _components_hook, None),
    ("rees.rees_ideal", rees, "rees_ideal", None, None),
    ("rees.symmetric_kernel", rees, "symmetric_kernel", None, None),
    ("rees.multiplicity", rees, "multiplicity", None, None),
    ("rees.special_fiber_ideal", rees, "special_fiber_ideal", None, None),
    ("rees.minimal_reduction", rees, "minimal_reduction", None, None),
    ("rees.is_reduction", rees, "is_reduction", _is_reduction_hook, None),
    ("intersection.distinguished", intersection, "distinguished",
     _components_hook, None),
    ("intersection.intersect_in_p", intersection, "intersect_in_p",
     _components_hook, None),
    ("blowup.blowup_of", blowup, "blowup_of", None, None),
    ("blowup.strict_transform", blowup, "strict_transform", None, None),
    ("blowup.is_smooth_away_from_irrelevant", blowup,
     "is_smooth_away_from_irrelevant", None, None),
    ("cli.parse_script", cli, "parse_script", None, None),
    ("cli.execute_script", cli, "execute_script", None, None),
    ("cli.emit", cli, "emit", None, None),
]


# counters the hooks above fill, reported as 0 when the target never ran
EXTRAS = {
    "gb.core": ("in_vectors", "basis_terms"),
    "gb.ideal_mul": ("out_gens", "max_gens"),
    "coeff.factor_multivariate": ("bound_errors",),
    "coeff.line_cert": ("hits",),
    "decompose.minimal_primes": ("components", "certified"),
    "intersection.distinguished": ("components", "certified"),
    "intersection.intersect_in_p": ("components", "certified"),
    "rees.minimal_reduction": ("tries",),
}


def _reeskit_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "reeskit"
                                  or name.startswith("reeskit."))]


class Tracer:
    """Counters per target; ``active`` gates accounting, so checks and
    rendering between ops can run with the wrappers installed."""

    def __init__(self):
        self.stats = {}
        self.active = False
        self._stack = []      # child time accumulated by each open span
        self._restore = []

    def reset(self):
        self.stats = {
            name: Stat(extra=dict.fromkeys(EXTRAS.get(name, ()), 0))
            for name, *_ in TARGETS}

    def _wrap(self, name, fn, on_return, on_error):
        tr = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            stat = tr.stats[name]
            stack = tr._stack
            stack.append(0.0)
            stat.depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    on_error(tr, stat, exc)
                raise
            finally:
                dt = clock() - t0
                stat.depth -= 1
                stat.calls += 1
                stat.self_s += dt - stack.pop()
                if stack:
                    stack[-1] += dt
            if on_return is not None:
                on_return(tr, stat, args, kwargs, result)
            return result
        return wrapper

    def install(self):
        self.reset()
        modules = _reeskit_modules()
        for name, owner, attr, on_return, on_error in TARGETS:
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, on_return, on_error)
            owners = [owner] if isinstance(owner, type) else modules
            for target in owners:
                for key, value in list(vars(target).items()):
                    if value is original:
                        setattr(target, key, wrapper)
                        self._restore.append((target, key, original))

    def uninstall(self):
        while self._restore:
            target, key, original = self._restore.pop()
            setattr(target, key, original)

    def metrics(self):
        """Flat ``<module>.<fn>.<counter>`` dict of the current counters."""
        out = {}
        for name, st in self.stats.items():
            out[f"{name}.calls"] = st.calls
            out[f"{name}.self_s"] = st.self_s
            for key, value in st.extra.items():
                out[f"{name}.{key}"] = value
        return out

