"""Spans around the calls into each gbv module, recorded from outside the program.

The tracer wraps public functions and the ``Submeasure`` methods in the
namespace where their callers look them up: every ``gbv`` module that imported
a function gets the same wrapper (``cli.py`` imports its names from ``orders``,
``constructions`` and ``io``), and ``hat`` / ``set_value`` are wrapped on each
class that defines them.  Nothing under ``src/`` changes; :meth:`Tracer.remove`
puts every original back.

A span is (name, start, end, parent span).  Spans are kept in column arrays in
memory and written out once, at the end.  A layer's self time is its span time
minus the time of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array

import numpy as np

# span name -> (module, attribute) of the wrapped function, in gbv.<module>.
FUNCTION_SPANS = {
    "cli": [("cli", "main")],
    "oracle": [("oracle", "hat_norm_oracle")],
    "variation.bruteforce": [("variation", "variation_bruteforce")],
    "variation.greedy": [("variation", "variation_greedy")],
    "variation.upper_bound": [("variation", "variation_upper_bound")],
    "variation.modulus_dp": [("variation", "modulus_of_variation")],
    "variation.modulus_enum": [("variation", "modulus_by_enumeration")],
    "variation.bv_norm": [("variation", "bv_norm_detail")],
    "variation.jordan": [("variation", "jordan_variation")],
    "sequence_spaces.fin": [("sequence_spaces", "fin_certificate")],
    "sequence_spaces.exh": [("sequence_spaces", "exh_certificate")],
    "orders.preceq": [("orders", "preceq_density"), ("orders", "preceq_summable")],
    "orders.preceq_m": [("orders", "preceq_m_summable")],
    "orders.katetov": [("orders", "katetov_scan")],
    "orders.criterion_c": [("orders", "ideal_criterion_c")],
    "constructions.separating": [("constructions", "separating_sequence")],
    "constructions.exh_minus_fin": [("constructions", "exh_minus_fin_sequence")],
    "constructions.density_witness": [("constructions", "density_witness_monotone"),
                                      ("constructions", "density_witness_set")],
    "constructions.zigzag": [("constructions", "zigzag_from_sequence")],
    "io.load": [("io", "load_function_csv"), ("io", "load_sequence"),
                ("io", "load_submeasure")],
    "io.save": [("io", "save_function_csv"), ("io", "save_sequence")],
}

METHOD_SPANS = ("set_value", "hat", "truncation_norms", "tail_norms")

MODULES = ("cli", "oracle", "variation", "sequence_spaces", "orders",
           "constructions", "io", "submeasure")


def count_families(num_points: int, max_count: int) -> int:
    """Number of interval families the brute force enumerates: ordered lists of
    1..max_count index intervals (i, j), i < j, each starting at or after the
    end of the previous one, over points 0..num_points-1."""
    # tail[s][c]: families (including the empty one) of at most c intervals
    # that start at or after point s.
    tail = [[1] * (max_count + 1) for _ in range(num_points + 1)]
    for s in range(num_points - 1, -1, -1):
        for c in range(1, max_count + 1):
            total = 1
            for i in range(s, num_points - 1):
                for j in range(i + 1, num_points):
                    total += tail[j][c - 1]
            tail[s][c] = total
    return tail[0][max_count] - 1


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.counters = {"oracle.subsets": 0, "variation.families": 0}
        self._undo = []
        self._family_counts = {}

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _span(self, nid: int, fn, args, kwargs):
        clock = time.perf_counter
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.current)
        self.end.append(0.0)
        self.current = idx
        self.start.append(clock())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = clock()
            self.current = self.parent[idx]

    def _wrapper(self, span: str, fn):
        if span == "variation.bruteforce":
            exact_id = self._id("variation.bruteforce.exact")
            float_id = self._id("variation.bruteforce.float")

            @functools.wraps(fn)
            def brute(f, phi, max_count=None):
                mc = f.segments if max_count is None else max_count
                if phi.horizon is not None:
                    mc = min(mc, phi.horizon)
                key = (f.segments + 1, mc)
                n = self._family_counts.get(key)
                if n is None:
                    n = self._family_counts[key] = count_families(*key)
                self.counters["variation.families"] += n
                nid = exact_id if f.is_exact() and phi.is_exact() else float_id
                return self._span(nid, fn, (f, phi, max_count), {})
            return brute
        nid = self._id(span)
        if span == "oracle":
            @functools.wraps(fn)
            def oracle(phi, x, *args, **kwargs):
                k = sum(1 for v in x if v)
                self.counters["oracle.subsets"] += (1 << k) - 1
                return self._span(nid, fn, (phi, x) + args, kwargs)
            return oracle

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._span(nid, fn, args, kwargs)
        return wrapper

    def install(self):
        """Wrap every traced function in each gbv namespace that refers to it."""
        import gbv
        from gbv import submeasure

        modules = [gbv] + [importlib.import_module(f"gbv.{m}") for m in MODULES]
        for span, targets in FUNCTION_SPANS.items():
            for mod_name, attr in targets:
                original = getattr(sys.modules[f"gbv.{mod_name}"], attr)
                wrapped = self._wrapper(span, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._undo.append((mod, key, original))
                            setattr(mod, key, wrapped)
        for cls in vars(submeasure).values():
            if isinstance(cls, type) and issubclass(cls, submeasure.Submeasure):
                for meth in METHOD_SPANS:
                    if meth in vars(cls):
                        original = vars(cls)[meth]
                        self._undo.append((cls, meth, original))
                        setattr(cls, meth, self._wrapper(f"submeasure.{meth}", original))
        return self

    def remove(self):
        for target, key, original in reversed(self._undo):
            setattr(target, key, original)
        self._undo.clear()

    # -- analysis ---------------------------------------------------------

    def totals(self):
        """Per span name: (calls, total time, self time)."""
        n = len(self.start)
        out = {name: (0, 0.0, 0.0) for name in self.names}
        if n == 0:
            return out
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=self_time, minlength=k)
        for i, nm in enumerate(self.names):
            out[nm] = (int(calls[i]), float(total[i]), float(own[i]))
        return out

    def write(self, path):
        """Write the spans as .npz columns plus the list of span names."""
        np.savez(path,
                 name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=float),
                 end=np.frombuffer(self.end, dtype=float),
                 names=np.array(json.dumps(self.names)))
