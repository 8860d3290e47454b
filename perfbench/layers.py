"""Outside-in trace: wrap qbrolin's layer functions from the benchmark side.

Each traced function is replaced, in every qbrolin namespace that bound it
(``from .x import y`` copies the reference into the importing module and the
package), by a wrapper that records a span (id, parent id, op id, name,
start, end) and the counts named in LAYERS. Spans stay in memory and are
written once, when the run ends. A span's self time is its duration minus the
time of the wrapped spans it directly encloses.

``quat`` is deliberately not wrapped: a wrapper on each quaternion product
would cost more than the product; that time shows as ``poly`` self time.
"""

from __future__ import annotations

import functools
import gzip
import json
import math
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _tree_counts(args, kwargs, r):
    p, n = _arg(args, kwargs, 0, "p"), _arg(args, kwargs, 2, "n")
    return {"leaves": len(r), "nodes": p.degree ** n}


def _writer_bytes(args, kwargs, r):
    return {"bytes": _arg(args, kwargs, 0, "path").stat().st_size}


def _count(**counters):
    return lambda a, k, r: {stat: f(a, k, r) for stat, f in counters.items()}


# "<module>.<function>" -> (reported stats, counter(args, kwargs, result)).
# Every wrapped function records calls and self_s; a counter adds the rest.
# cli.write stands for the three CLI file writers together.
LAYERS = {
    "roots.all_roots": (("calls", "self_s"), None),
    "roots.cluster_roots": (("self_s", "merged"), _count(
        merged=lambda a, k, r: len(_arg(a, k, 0, "roots")) - len(r))),
    "roots.quadratic_roots_many": (("calls", "rows", "self_s"), _count(
        rows=lambda a, k, r: int(np.size(_arg(a, k, 0, "c0s"))))),
    "cdyn.solve_fiber": (("calls", "self_s"), None),
    "cdyn.preimage_tree": (("self_s", "leaves", "nodes"), _tree_counts),
    "cdyn.is_exceptional": (("self_s",), None),
    "cdyn.green_field": (("self_s",), None),
    "cdyn.filled_julia_mask": (("self_s",), None),
    "laplacian.slice_laplacian": (("self_s",), None),
    "laplacian.log_distance_field": (("self_s",), None),
    "laplacian.measure_from_green": (("self_s", "clamp_mass"), _count(
        clamp_mass=lambda a, k, r: r[1])),
    "laplacian.raster_to_measure": (("self_s", "atoms"), _count(
        atoms=lambda a, k, r: len(r))),
    "measures.brolin_pullback": (("self_s", "atoms"), _count(
        atoms=lambda a, k, r: len(r))),
    "measures.pushforward": (("self_s",), None),
    "measures.weak_distance": (("calls", "self_s"), None),
    "measures.measure_from_complex_atoms": (
        ("self_s", "atoms_in", "atoms_out"), _count(
            atoms_in=lambda a, k, r: len(_arg(a, k, 0, "points")),
            atoms_out=lambda a, k, r: len(r))),
    "dynstats.sample_mu": (("calls", "points", "self_s"), _count(
        points=lambda a, k, r: len(r))),
    "dynstats.mixing_correlation": (("self_s",), None),
    "dynstats.separated_count": (("calls", "self_s"), None),
    "dynstats.partition_entropy": (("self_s",), None),
    "dynstats.clt_harness": (("self_s",), None),
    "dynstats.calibrate_ks_null": (("self_s",), None),
    "dynstats.lyapunov_slice": (("self_s", "dropped_critical"), _count(
        dropped_critical=lambda a, k, r: r.params["dropped_critical"])),
    "slicecases.hn_build": (("self_s",), None),
    "slicecases.brolin3_gap": (("self_s", "degenerate"), _count(
        degenerate=lambda a, k, r: int(r == 0.0 or not math.isfinite(r)))),
    "slicecases.mu_prime_estimate": (("self_s",), None),
    "slicecases.gn_pullback_measure": (("self_s",), None),
    "poly.QPolynomial.star_mul": (("calls", "self_s"), None),
    "poly.QPolynomial.bullet_compose": (("self_s",), None),
    "poly.ComplexPoly.iterate_poly": (("self_s",), None),
    "cli.load_config": (("self_s",), None),
    "cli.write": (("bytes", "self_s"), _writer_bytes),
    "cli.run": (("self_s",), None),
}
WRITERS = ("write_csv", "write_json", "write_pgm")
UNITS = {"self_s": "s", "clamp_mass": "mass", "bytes": "B"}
# counts that must repeat exactly for a given seed
EXACT = ("calls", "rows", "leaves", "nodes", "merged", "atoms", "atoms_in",
         "atoms_out", "points", "bytes", "degenerate", "dropped_critical",
         "clamp_mass")


def metric_specs():
    """(name, unit, better) for every per-layer metric, in report order."""
    specs = [(f"{fn}.{stat}", UNITS.get(stat, "count"), "lower")
             for fn, (stats, _) in LAYERS.items() for stat in stats]
    specs += [("trace.overhead_frac", "ratio", "lower"),
              ("trace.unattributed_frac", "ratio", "lower")]
    return specs


class Tracer:
    """Span recorder; install() patches qbrolin, uninstall() restores it."""

    def __init__(self):
        self.names = []
        self.spans = []        # (span, parent, op, name index, start, end)
        self.stats = defaultdict(float)
        self.op = -1
        self._next = 0
        self._stack = []       # [span id, child time]
        self._plan = []        # (namespace, attribute, wrapper)
        self._patched = []     # (namespace, attribute, original)
        self._root = self._wrap("op", lambda fn, *args: fn(*args))

    def _wrap(self, name, fn, counter=None):
        idx = len(self.names)
        self.names.append(name)
        stats, stack, spans = self.stats, self._stack, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                stats[name + ".calls"] += 1
                stats[name + ".self_s"] += dur - frame[1]
                spans.append((sid, parent, self.op, idx, t0, t1))
            if counter is not None:
                for stat, value in counter(args, kwargs, result).items():
                    stats[f"{name}.{stat}"] += value
            return result
        return wrapper

    def run_op(self, fn, *args):
        """Run fn(*args) as the root span "op" of a new op id.

        The root's self time is the op time no wrapped layer accounts for.
        """
        self.op += 1
        return self._root(fn, *args)

    def install(self):
        if not self._plan:
            self._plan = self._wrap_layers()
        for ns, attr, wrapper in self._plan:
            self._patched.append((ns, attr, getattr(ns, attr)))
            setattr(ns, attr, wrapper)

    def _wrap_layers(self):
        """(namespace, attribute, wrapper) for every binding of LAYERS."""
        from qbrolin import cli
        mods = [m for n, m in sys.modules.items()
                if n == "qbrolin" or n.startswith("qbrolin.")]
        plan, targets = [], []
        for name, (_, counter) in LAYERS.items():
            mod, qual = name.split(".", 1)
            owner = sys.modules[f"qbrolin.{mod}"]
            if name == "cli.write":
                targets += [(getattr(cli, w), name, counter) for w in WRITERS]
            elif "." in qual:                    # a method: patch the class
                cls_name, meth = qual.split(".")
                cls = getattr(owner, cls_name)
                plan.append((cls, meth, self._wrap(name, cls.__dict__[meth],
                                                   counter)))
            else:
                targets.append((getattr(owner, qual), name, counter))
        for orig, name, counter in targets:
            wrapper = self._wrap(name, orig, counter)
            plan += [(m, attr, wrapper) for m in mods
                     for attr, value in vars(m).items() if value is orig]
        return plan

    def uninstall(self):
        for ns, attr, orig in reversed(self._patched):
            setattr(ns, attr, orig)
        self._patched.clear()

    def take_stats(self):
        """Stats accumulated since the last call, then reset."""
        out = dict(self.stats)
        self.stats.clear()
        return out

    def write(self, path, header):
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({**header, "names": self.names,
                                 "fields": ["span", "parent", "op", "name",
                                            "start", "end"]}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
