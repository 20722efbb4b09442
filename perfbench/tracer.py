"""Outside-in span tracer for the minkact layers.

The tracer wraps public functions of each layer after the package has been
imported, so the program's source stays untouched.  ``from .linalg import
matmul`` copies the binding into the importing module, so each wrapped
function is rebound in every ``minkact`` namespace that holds the same
object, the package ``__init__`` included.  Modules are looked up through
``importlib`` because the package attribute ``minkact.catalog`` is shadowed
by the function ``catalog``.

Spans (name, start, end, parent span, request) are kept in memory and
summarised (calls, self time, inclusive time, nested-call ratios) when the
run ends.
"""

import functools
import importlib
import sys
import time
from array import array

# module -> public functions whose spans give the per-layer numbers
LAYERS = {
    "linalg": ("matmul", "matvec", "rref", "char_poly", "solve_linear",
               "echelon_basis", "causal_type"),
    "algebra": ("bracket", "adjoint", "fundamental_field"),
    "group": ("exp_element", "exp_element_numeric"),
    "subalgebra": ("closure_check", "normalize_translations", "one_param_type",
                   "invariants"),
    "orbits": ("orbit_dimension", "cohomogeneity", "orbit_space_report"),
    "properness": ("fixed_point_nonproper_certificate", "check_witness",
                   "parameter_recovery_check"),
    "catalog": ("verify_entry", "match_catalog", "nonproperness_witness"),
}

LAYER_FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)
SUBCOMMANDS = ("verify", "classify", "orbit", "witness", "export")

FIXED_POINT = "properness.fixed_point_nonproper_certificate"
ONE_PARAM = "subalgebra.one_param_type"
MATCH = "catalog.match_catalog"
CLOSURE = "subalgebra.closure_check"

# functions whose return value counts useful outcomes:
# a certificate found, or the number of catalog matches
_OUTCOMES = {
    FIXED_POINT: lambda result: int(result is not None),
    MATCH: len,
}


class Tracer:
    """Records a span per call of every wrapped function."""

    def __init__(self):
        self.names = []
        self._index = {}
        # one span per position; flat arrays keep the garbage collector from
        # walking a growing list of tuples, which slowed the traced program
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request_of = array("i")
        self.outcomes = {}  # span index -> useful outcomes it returned
        self._stack = [-1]
        self.request = -1

    def _name_index(self, name):
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def _open(self, name_idx):
        idx = len(self.name_of)
        self.name_of.append(name_idx)
        self.parent.append(self._stack[-1])
        self.request_of.append(self.request)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def wrap(self, name, fn):
        name_idx = self._name_index(name)
        outcome = _OUTCOMES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name_idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter()
                self._stack.pop()
            if outcome is not None:
                self.outcomes[idx] = outcome(result)
            return result

        return traced

    def install(self):
        """Wrap every layer function and rebind every alias of it."""
        importlib.import_module("minkact.cli")
        namespaces = [m for name, m in sys.modules.items()
                      if name == "minkact" or name.startswith("minkact.")]
        for mod_name, fns in LAYERS.items():
            module = importlib.import_module(f"minkact.{mod_name}")
            for fn_name in fns:
                original = getattr(module, fn_name)
                traced = self.wrap(f"{mod_name}.{fn_name}", original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, traced)

    def call(self, name, fn, *args):
        """Run ``fn(*args)`` inside a span called ``name``."""
        return self.wrap(name, fn)(*args)

    def summary(self):
        """Per-name calls, self and inclusive seconds, plus nested-call ratios."""
        n = len(self.names)
        calls = [0] * n
        incl = [0.0] * n
        self_s = [0.0] * n
        spans = range(len(self.name_of))
        child_time = [0.0] * len(spans)
        for i in spans:
            if self.parent[i] >= 0:
                child_time[self.parent[i]] += self.end[i] - self.start[i]
        for i in spans:
            name_idx = self.name_of[i]
            duration = self.end[i] - self.start[i]
            calls[name_idx] += 1
            self_s[name_idx] += duration - child_time[i]
            if not self._has_ancestor(self.parent[i], name_idx):
                incl[name_idx] += duration
        out = {name: {"calls": calls[i], "self_s": self_s[i], "incl_s": incl[i]}
               for i, name in enumerate(self.names)}
        out["ratios"] = self._ratios()
        return out

    def _has_ancestor(self, span, name_idx):
        while span >= 0:
            if self.name_of[span] == name_idx:
                return True
            span = self.parent[span]
        return False

    def _under(self, name, ancestor):
        """Number of ``name`` spans with an ``ancestor`` span above them."""
        inner, outer = self._index.get(name), self._index.get(ancestor)
        if inner is None or outer is None:
            return 0
        return sum(1 for i, name_idx in enumerate(self.name_of)
                   if name_idx == inner and self._has_ancestor(self.parent[i], outer))

    def _outcome_total(self, name):
        name_idx = self._index.get(name)
        return sum(v for i, v in self.outcomes.items() if self.name_of[i] == name_idx)

    def _ratios(self):
        combos = self._under(ONE_PARAM, FIXED_POINT)
        candidates = self._under(CLOSURE, MATCH)
        certs = self._outcome_total(FIXED_POINT)
        matches = self._outcome_total(MATCH)
        return {
            "properness.fixed_point.combos": combos,
            "properness.fixed_point.hit_ratio": certs / combos if combos else 0.0,
            "catalog.match.candidates": candidates,
            "catalog.match.hit_ratio": matches / candidates if candidates else 0.0,
        }

    def rows(self):
        """Spans as JSON-ready rows: name, start, end, parent, request."""
        return [[self.names[self.name_of[i]], self.start[i], self.end[i],
                 self.parent[i], self.request_of[i]] for i in range(len(self.name_of))]
