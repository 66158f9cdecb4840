"""Span tracing around the public functions of each thetaresum layer.

A span records the wrapped function, its start, its end and the span that
was open when it started.  Spans are kept in flat arrays in memory (a pass
can open millions of them, mostly f~ evaluations) and reduced to per-function
call counts and self times when the pass ends.  Self time is a span's
duration minus the durations of its direct children; the process is
single-threaded, so children nest inside their parent.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter

# (layer, module, attribute path) of every traced function.  The metric
# prefix is "<layer>.<attribute path>", without the "mp." of mpmath's.
TARGETS = (
    ("periodic", "thetaresum.periodic", "TildeFunction.period"),
    ("periodic", "thetaresum.periodic", "TildeFunction.__call__"),
    ("periodic", "thetaresum.periodic", "verify_decomposition"),
    ("exact", "thetaresum.exact", "series_coefficients"),
    ("exact", "thetaresum.exact", "bernoulli_polynomial"),
    ("borel", "thetaresum.borel", "borel_eval"),
    ("borel", "thetaresum.borel", "borel_coefficients"),
    ("borel", "thetaresum.borel", "gfp_coefficients"),
    ("borel", "thetaresum.borel", "hadamard_oracle"),
    ("resum", "thetaresum.resum", "lateral_sum"),
    ("resum", "thetaresum.resum", "median_sum"),
    ("resum", "thetaresum.resum", "special_e"),
    ("resum", "thetaresum.resum", "disc_closed_form"),
    ("resum", "thetaresum.resum", "boundary_median"),
    ("resum", "thetaresum.resum", "tilde_dirichlet"),
    ("resum", "thetaresum.resum", "tilde_dirichlet_blocks"),
    ("qseries", "thetaresum.qseries", "theta_radial_limit"),
    ("qseries", "thetaresum.qseries", "eichler_integral"),
    ("qseries", "thetaresum.qseries", "theta_upper_half"),
    ("qseries", "thetaresum.qseries", "VerticalTheta.value"),
    ("habiro", "thetaresum.habiro", "verify_strange"),
    ("habiro", "thetaresum.habiro", "hikami_x"),
    ("habiro", "thetaresum.habiro", "kontsevich_zagier_eval"),
    ("mpmath", "mpmath", "mp.quad"),
    ("mpmath", "mpmath", "mp.zeta"),
    ("suites", "thetaresum.suites", "run_suite"),
    ("report", "thetaresum.report", "Report.write_json"),
)

METRIC_NAMES = tuple(f"{layer}.{path.split('.', 1)[-1] if layer == 'mpmath' else path}"
                     for layer, _, path in TARGETS)


class Tracer:
    def __init__(self):
        self.names: list = []
        self.name_ix = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def wrap(self, name: str, fn):
        ix = len(self.names)
        self.names.append(name)
        name_ix, parent, start, end, stack = (self.name_ix, self.parent, self.start,
                                              self.end, self._stack)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(start)
            name_ix.append(ix)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(span)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[span] = perf_counter()
                stack.pop()

        return traced

    @property
    def span_count(self) -> int:
        return len(self.start)

    def summary(self) -> dict:
        """{name: {"calls": n, "self_s": seconds}} over every recorded span."""
        n = len(self.start)
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            row = out[self.names[self.name_ix[i]]]
            row["calls"] += 1
            row["self_s"] += self.end[i] - self.start[i] - child[i]
        return out


def _replace_everywhere(old, new):
    """Point every thetaresum module attribute bound to ``old`` at ``new``.

    Modules import names from each other (resum imports theta_radial_limit
    from qseries, the package re-exports everything), so patching only the
    defining module would miss calls made through the other bindings.
    """
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "thetaresum" or modname.startswith("thetaresum.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is old:
                setattr(mod, attr, new)


def install(tracer: Tracer) -> None:
    """Wrap every function of TARGETS, importing the modules that hold them."""
    for metric, (_, modname, path) in zip(METRIC_NAMES, TARGETS):
        owner = importlib.import_module(modname)
        *parents, attr = path.split(".")
        for p in parents:
            owner = getattr(owner, p)
        old = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(old, property):
            setattr(owner, attr, property(tracer.wrap(metric, old.fget)))
        elif isinstance(owner, type):
            setattr(owner, attr, tracer.wrap(metric, old))
        else:
            new = tracer.wrap(metric, old)
            setattr(owner, attr, new)
            _replace_everywhere(old, new)
