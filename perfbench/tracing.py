"""Per-layer spans recorded from outside qminor.

`Tracer.install` replaces each public function listed in SPANS by a
wrapper and rebinds every qminor module attribute that held the original,
because modules such as `canonical`, `mult` and `pbw` import those
functions by name.  A wrapper keeps a span stack: a span's self time is
its duration minus the time of the spans it encloses.  Spans are not
stored one by one (a scan makes about 10^5 scalar calls); they are summed
per (parent span, span) edge.
"""

import functools
import sys
import time

# span name -> (module, attribute path); the first part of the name is
# the layer.
SPANS = {
    "scalars.laurent_gcd": ("qminor.scalars", "laurent_gcd"),
    "scalars.LaurentPoly.mul": ("qminor.scalars", "LaurentPoly.__mul__"),
    "scalars.RatScalar.init": ("qminor.scalars", "RatScalar.__init__"),
    "qea.pairing": ("qminor.qea", "pairing"),
    "qea.tri_mul": ("qminor.qea", "tri_mul"),
    "qea.canonical_form": ("qminor.qea", "canonical_form"),
    "pbw.root_vector": ("qminor.pbw", "root_vector"),
    "pbw.pbw_monomial": ("qminor.pbw", "pbw_monomial"),
    "pbw.f_pbw_monomial": ("qminor.pbw", "f_pbw_monomial"),
    "pbw.pairing_em_fn": ("qminor.pbw", "pairing_em_fn"),
    "pbw.dual_pbw_normalizer": ("qminor.pbw", "dual_pbw_normalizer"),
    "pbw.pbw_coordinates": ("qminor.pbw", "pbw_coordinates"),
    "pbw.straighten_commutator": ("qminor.pbw", "straighten_commutator"),
    "pbw.pbw_product": ("qminor.pbw", "pbw_product"),
    "canonical.dual_product": ("qminor.canonical", "dual_product"),
    "canonical.dual_to_pbw_coords": ("qminor.canonical",
                                     "dual_to_pbw_coords"),
    "canonical.pbw_to_dual_coords": ("qminor.canonical",
                                     "pbw_to_dual_coords"),
    "canonical.sigma_eta_dual_coords": ("qminor.canonical",
                                        "sigma_eta_dual_coords"),
    "canonical.bar_matrix": ("qminor.canonical", "bar_matrix"),
    "canonical.dual_canonical_basis": ("qminor.canonical",
                                       "dual_canonical_basis"),
    "canonical.expand_dual_canonical_coords": (
        "qminor.canonical", "expand_dual_canonical_coords"),
    "mult.verify_theorem_51": ("qminor.mult", "verify_theorem_51"),
    "mult.q_commute_exponent_coords": ("qminor.mult",
                                       "q_commute_exponent_coords"),
    "mult.is_multiplicative": ("qminor.mult", "is_multiplicative"),
    "mult.check_511": ("qminor.mult", "check_511"),
    "quiver.adapted_word": ("qminor.quiver", "adapted_word"),
}

LAYERS = ("scalars", "qea", "pbw", "canonical", "mult", "quiver")

# Cached functions whose argument reuse is reported as
# 1 - distinct arguments / calls.
REUSE = ("pbw.dual_pbw_normalizer", "pbw.straighten_commutator",
         "canonical.bar_matrix", "canonical.dual_canonical_basis")

ROOT = "<bench>"


def _arg_key(a):
    if hasattr(a, "word") and hasattr(a, "datum"):      # ReducedWord
        return (a.datum.label, a.word)
    if hasattr(a, "root_coords_int"):                   # Vec
        return tuple(a.root_coords_int())
    if isinstance(a, list):
        return tuple(a)
    return a


def _trivial_gcd(a, b):
    """A zero or monomial operand: the gcd is only an integer content."""
    return (a.is_zero() or b.is_zero()
            or a.is_monomial() or b.is_monomial())


class Tracer:
    def __init__(self):
        self.edges = {}          # (parent, name) -> [calls, incl_s, self_s]
        self.errors = dict.fromkeys(LAYERS, 0)
        self.arg_keys = {name: set() for name in REUSE}
        self.gcd_trivial = 0
        self._stack = []         # frames [name, time of enclosed spans]
        self._active = {}        # name -> open spans of that name
        self._last_error = None

    def wrap(self, name, fn):
        layer = name.split(".", 1)[0]
        stack = self._stack
        active = self._active
        edges = self.edges
        keys = self.arg_keys.get(name)
        is_gcd = name == "scalars.laurent_gcd"
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if keys is not None:
                keys.add(tuple(_arg_key(a) for a in args))
            if is_gcd and _trivial_gcd(*args):
                self.gcd_trivial += 1
            parent = stack[-1][0] if stack else ROOT
            frame = [name, 0.0]
            stack.append(frame)
            depth = active.get(name, 0)
            active[name] = depth + 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                if exc is not self._last_error:   # count at the origin
                    self._last_error = exc
                    self.errors[layer] += 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                active[name] = depth
                if stack:
                    stack[-1][1] += dt
                edge = edges.get((parent, name))
                if edge is None:
                    edge = edges[(parent, name)] = [0, 0.0, 0.0]
                edge[0] += 1
                if depth == 0:   # a recursive call is inside the outer one
                    edge[1] += dt
                edge[2] += dt - frame[1]

        return span

    def install(self):
        """Wrap every function in SPANS and rebind every qminor module
        attribute and class attribute that held it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "qminor"
                                         or n.startswith("qminor."))]
        for name, (modname, path) in SPANS.items():
            owner = sys.modules[modname]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original)
            targets = [owner] if outer else modules
            for target in targets:
                for key, value in list(vars(target).items()):
                    if value is original:
                        setattr(target, key, wrapper)

    def summary(self):
        """Per-span totals [calls, incl_s, self_s], edges, errors and the
        counts behind the ratios, as JSON-ready data."""
        spans = {name: [0, 0.0, 0.0] for name in SPANS}
        for (_, name), (calls, incl, self_s) in self.edges.items():
            tot = spans[name]
            tot[0] += calls
            tot[1] += incl
            tot[2] += self_s
        return {
            "spans": spans,
            "edges": [[p, n] + v for (p, n), v in sorted(self.edges.items())],
            "errors": self.errors,
            "distinct_args": {n: len(k) for n, k in self.arg_keys.items()},
            "gcd_trivial": self.gcd_trivial,
        }
