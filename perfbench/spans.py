"""Spans and counters for the traced run, recorded from outside the library.

The library has no tracing hooks, so the traced run wraps public functions
and methods of ``fuchskit`` for the duration of one pass and restores them
afterwards.  A function is replaced in every ``fuchskit`` module (and in the
given extra modules) that holds a reference to it, so calls between modules
are seen too.

* ``Tracer`` records spans (name, start, end, parent, case id) in memory.
  For a recursive function only the outermost call is a span.
* ``Counter`` counts hot scalar and ring operations.  It runs in a pass of
  its own so that its cost does not inflate span times.

A name that a later version of the library no longer has is skipped; its
metrics then read zero.
"""

import functools
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# span name -> (module, attribute) of the functions it covers; "Class.method"
# attributes are methods.
SPANS = {
    "linalg.jordan_form": [("fuchskit.linalg", "jordan_form")],
    "linalg.poly_roots": [("fuchskit.linalg", "poly_roots")],
    "linalg.charpoly": [("fuchskit.linalg", "charpoly")],
    "linalg.rref": [("fuchskit.linalg", "Matrix.rref")],
    "linalg.det_cofactor": [("fuchskit.linalg", "det_cofactor")],
    "linalg.adjugate": [("fuchskit.linalg", "adjugate")],
    "expring.solve_dsigma": [("fuchskit.expring", "solve_dsigma")],
    "expring.solve_partial": [("fuchskit.expring", "solve_partial")],
    "diffmod.base_change": [("fuchskit.diffmod", "base_change")],
    "diffmod.horizontal_hom": [("fuchskit.diffmod", "horizontal_hom")],
    "diffmod.fundamental_matrix": [("fuchskit.diffmod", "fundamental_matrix")],
    "diffmod.match_factor": [
        ("fuchskit.diffmod", "match_left_factor"),
        ("fuchskit.diffmod", "match_right_factor"),
    ],
    "sigmamod.isomorphism": [("fuchskit.sigmamod", "isomorphism")],
    "sigmamod.trivialize": [("fuchskit.sigmamod", "trivialize")],
    "functors.find_constant_form": [("fuchskit.functors", "find_constant_form")],
    "functors.mon": [("fuchskit.functors", "mon")],
    "functors.rm": [("fuchskit.functors", "rm")],
    "functors.fuchs_decomposition": [("fuchskit.functors", "fuchs_decomposition")],
    "functors.horizontal_isomorphism": [("fuchskit.functors", "horizontal_isomorphism")],
}

# Spans that keep one value per call, from the call's arguments and result:
# the polynomial degree, the matrix width, and whether a witness was found.
NOTES = {
    "linalg.poly_roots": lambda args, result: len(args[0]) - 1,
    "linalg.rref": lambda args, result: args[0].cols,
    "functors.horizontal_isomorphism": lambda args, result: result is not None,
}


def _fuchskit_modules(extra):
    mods = [m for name, m in list(sys.modules.items()) if name == "fuchskit" or name.startswith("fuchskit.")]
    return mods + list(extra)


class _Patcher:
    """Replaces objects and puts the originals back."""

    def __init__(self):
        self._undo = []

    def replace_function(self, module_name, attr, make_wrapper, extra_modules):
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(importlib.import_module(module_name), cls_name, None)
            orig = cls.__dict__.get(meth) if cls is not None else None
            if orig is None:
                return
            wrapper = make_wrapper(orig)
            for key, value in list(vars(cls).items()):
                if value is orig:
                    self._set(cls, key, wrapper)
            return
        orig = getattr(importlib.import_module(module_name), attr, None)
        if orig is None:
            return
        wrapper = make_wrapper(orig)
        for mod in _fuchskit_modules(extra_modules):
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, key, wrapper)

    def _set(self, owner, key, value):
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def restore(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)


class Tracer:
    """In-memory span recorder.  A span is a list
    [name, parent index, case id, start, end, info]."""

    def __init__(self):
        self.spans = []
        self.case_id = None
        self._stack = []
        self._open = defaultdict(int)

    def _begin(self, name):
        self.spans.append([name, self._stack[-1] if self._stack else None, self.case_id, time.perf_counter(), None, None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        self._open[name] += 1
        return idx

    def _end(self, idx):
        span = self.spans[idx]
        span[4] = time.perf_counter()
        self._stack.pop()
        self._open[span[0]] -= 1

    @contextmanager
    def span(self, name):
        idx = self._begin(name)
        try:
            yield self.spans[idx]
        finally:
            self._end(idx)

    def _wrapper(self, name, fn):
        tracer = self
        note = NOTES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._open[name]:
                return fn(*args, **kwargs)
            idx = tracer._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._end(idx)
            if note is not None:
                tracer.spans[idx][5] = note(args, result)
            return result

        return wrapper

    @contextmanager
    def installed(self, spans, extra_modules=()):
        """Wrap every function of ``spans`` (name -> targets) while active."""
        patcher = _Patcher()
        try:
            for name, targets in spans.items():
                for module_name, attr in targets:
                    patcher.replace_function(module_name, attr, lambda fn, n=name: self._wrapper(n, fn), extra_modules)
            yield self
        finally:
            patcher.restore()

    # -- summaries ---------------------------------------------------------

    def totals(self):
        """name -> {"calls", "self_s", "total_s", "info"} over all spans."""
        child = [0.0] * len(self.spans)
        for name, parent, _, start, end, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "info": []})
        for i, (name, _, _, start, end, info) in enumerate(self.spans):
            rec = out[name]
            rec["calls"] += 1
            rec["total_s"] += end - start
            rec["self_s"] += end - start - child[i]
            if info is not None:
                rec["info"].append(info)
        return out

    def count_under(self, name, ancestor):
        """Spans called ``name`` that have an ancestor called ``ancestor``."""
        n = 0
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[1]
            while parent is not None:
                if self.spans[parent][0] == ancestor:
                    n += 1
                    break
                parent = self.spans[parent][1]
        return n


class Counter:
    """Counts of hot operations, and the largest cyclotomic conductor seen
    in a result."""

    def __init__(self):
        self.counts = defaultdict(int)
        self.max_conductor = 1

    def _counting(self, key, fn, conductor=False):
        counter = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if key is not None:
                counter.counts[key] += 1
            if conductor and result.__class__.__name__ == "Cyclotomic" and result.n > counter.max_conductor:
                counter.max_conductor = result.n
            return result

        return wrapper

    @contextmanager
    def installed(self):
        patcher = _Patcher()
        targets = [
            ("fuchskit.scalar", "Cyclotomic.__mul__", "scalar.cyclo_mul.calls", True),
            ("fuchskit.scalar", "Cyclotomic.inverse", "scalar.cyclo_inverse.calls", True),
            ("fuchskit.scalar", "Cyclotomic.__add__", None, True),
            ("fuchskit.scalar", "Cyclotomic.__sub__", None, True),
            ("fuchskit.laurent", "LaurentPoly.__mul__", "laurent.mul.calls", False),
            ("fuchskit.expring", "ExpRingElem.sigma", "expring.sigma.calls", False),
        ]
        try:
            for module_name, attr, key, conductor in targets:
                patcher.replace_function(
                    module_name, attr, lambda fn, k=key, c=conductor: self._counting(k, fn, c), ()
                )
            yield self
        finally:
            patcher.restore()
