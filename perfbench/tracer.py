"""Spans around the public functions of picardfuchs, installed from outside.

The tracer replaces a function by a wrapper in every `picardfuchs` module
namespace that holds it, so callers that imported the name directly (for
example `riemann_symbol`, which imports `has_logarithms` lazily from
`frobenius`, or `catalog`, which imports `classify_point`) reach the wrapper
too.  Spans stay in memory as [name, parent index, start ns, end ns] and are
written out once, at the end of the pass.  Nothing under `src/` changes.

Per-layer metrics derived from the spans:
  <name>.calls    number of calls
  <name>.busy_s   time covered by at least one call (nested calls of the same
                  name are counted once)
  <name>.self_s   call time minus the time of the spans it caused
"""

import json
import sys
import time
from collections import Counter

# (metric name, module, attribute); two functions may share one name
SPANNED_FUNCTIONS = (
    ("optheta.riemann_symbol", "optheta", "riemann_symbol"),
    ("optheta.exponents_at", "optheta", "exponents_at"),
    ("optheta.local_operator", "optheta", "local_operator"),
    ("optheta.apply_to_series", "optheta", "apply_to_series"),
    ("frobenius.local_basis", "frobenius", "local_basis"),
    ("frobenius.jordan_structure", "frobenius", "jordan_structure"),
    ("frobenius.classify_point", "frobenius", "classify_point"),
    ("frobenius.annihilation_order", "frobenius", "annihilation_order"),
    ("transform.mobius", "transform", "mobius"),
    ("transform.shift_exponents", "transform", "shift_exponents"),
    ("transform.pullback", "transform", "pullback_rational"),
    ("transform.pullback", "transform", "pullback_power"),
    ("transform.descend", "transform", "descend_quadratic"),
    ("transform.descend", "transform", "descend_power"),
    ("period.conifold_expand", "period", "conifold_expand"),
    ("period.verify_annihilation", "period", "verify_annihilation"),
    ("guess.guess_operator", "guess", "guess_operator"),
    ("qexp.eta_product", "qexp", "eta_product"),
    ("qexp.count_double_octic", "qexp", "count_double_octic"),
)

QUADRATIC_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__", "inverse",
)

def max_bits(x):
    """Largest numerator or denominator bit length in an exact scalar or nested sequence of them."""
    if isinstance(x, (list, tuple)):
        return max((max_bits(v) for v in x), default=0)
    if hasattr(x, "numerator"):
        return max(abs(x.numerator).bit_length(), x.denominator.bit_length())
    return max(max_bits(x.a), max_bits(x.b))  # QuadraticNumber a + b sqrt(d)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.busy_ns = Counter()
        self.basis_busy_ns = Counter()  # local_basis busy time by point kind
        self.bases = {}  # distinct (operator, point, N) -> basis
        self.series = []  # coefficient sequences of conifold periods and eta products
        self._stack = []
        self._depth = Counter()
        self.active = False
        self._quadratic_ops = [0, False]  # count, active

    def start(self):
        self.active = self._quadratic_ops[1] = True

    def stop(self):
        self.active = self._quadratic_ops[1] = False

    # -- installation -------------------------------------------------------

    def install(self):
        import picardfuchs  # noqa: F401  (loads every module the tracer patches)
        from picardfuchs import arith, catalog

        modules = list(sys.modules.values())  # the package and every caller that imported a name
        after = {
            "frobenius.local_basis": self._after_local_basis,
            "optheta.apply_to_series": self._after_apply_to_series,
            "guess.guess_operator": self._after_guess,
            "qexp.count_double_octic": self._after_count,
            "period.conifold_expand": self._after_series,
            "qexp.eta_product": self._after_series,
        }
        for name, module, attr in SPANNED_FUNCTIONS:
            original = getattr(sys.modules["picardfuchs." + module], attr)
            wrapper = self._spanned(name, original, after.get(name))
            for mod in modules:
                namespace = getattr(mod, "__dict__", None)
                if not isinstance(namespace, dict):
                    continue
                for key, value in list(namespace.items()):
                    if value is original:
                        namespace[key] = wrapper
        arith.Polynomial.shift = self._spanned("arith.poly_shift", arith.Polynomial.shift)
        cell = self._quadratic_ops
        for attr in QUADRATIC_OPS:
            if attr in vars(arith.QuadraticNumber):
                setattr(arith.QuadraticNumber, attr, _counted(getattr(arith.QuadraticNumber, attr), cell))
        for chain in list(catalog.CHAINS):
            catalog.CHAINS[chain] = self._spanned("catalog.chain." + chain, catalog.CHAINS[chain])
        return self

    def _spanned(self, name, fn, after=None):
        spans, stack, depth, busy, counts = self.spans, self._stack, self._depth, self.busy_ns, self.counts
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            counts[name + ".calls"] += 1
            parent = stack[-1] if stack else -1
            span = [name, parent, 0, 0]
            stack.append(len(spans))
            spans.append(span)
            depth[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span[2], span[3] = start, end
                depth[name] -= 1
                if not depth[name]:
                    busy[name] += end - start
            if after is not None:
                after(args, kwargs, result, end - start, parent)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- per-layer counts taken where the work happens ----------------------

    def _after_local_basis(self, args, kwargs, basis, dt, parent):
        op, point = args[0], args[1]
        if point.is_infinite:
            kind = "infinity"
        elif hasattr(point.value, "numerator"):
            kind = "rational"
        else:
            kind = "quadratic"
        self.basis_busy_ns[kind] += dt
        if basis.solutions:
            N = basis.solutions[0].truncation
            self.counts["frobenius.local_basis.rows"] += (N + 1) * len(basis.solutions)
            self.bases.setdefault((op, point, N), basis)

    def _after_apply_to_series(self, args, kwargs, result, dt, parent):
        if parent >= 0 and self.spans[parent][0] == "guess.guess_operator":
            self.counts["guess.candidates"] += 1

    def _after_guess(self, args, kwargs, result, dt, parent):
        if result is not None:
            self.counts["guess.accepted"] += 1

    def _after_series(self, args, kwargs, result, dt, parent):
        self.series.append(result.coeffs)

    def _after_count(self, args, kwargs, result, dt, parent):
        p = int(args[1] if len(args) > 1 else kwargs["p"])
        self.counts["qexp.count.points"] += p**3 + p**2 + p + 1

    # -- results --------------------------------------------------------------

    def self_ns(self):
        child = [0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        for i, (name, _parent, start, end) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def raw_metrics(self):
        """Additive per-pass quantities; finish() turns them into the layer metrics."""
        from picardfuchs import catalog, period

        s = 1e-9
        c = self.counts
        self_ns = self.self_ns()
        info = period.simplex_monomial_integral.cache_info()
        raw = {
            "arith.poly_shift.calls": c["arith.poly_shift.calls"],
            "arith.poly_shift.busy_s": self.busy_ns["arith.poly_shift"] * s,
            "arith.quadratic_ops": self._quadratic_ops[0],
            "arith.coeff_bits_max": max(
                max_bits([sol.table for b in self.bases.values() for sol in b.solutions]), max_bits(self.series)
            ),
            "optheta.riemann_symbol.self_s": self_ns["optheta.riemann_symbol"] * s,
            "optheta.exponents_at.busy_s": self.busy_ns["optheta.exponents_at"] * s,
            "optheta.local_operator.busy_s": self.busy_ns["optheta.local_operator"] * s,
            "optheta.apply_to_series.calls": c["optheta.apply_to_series.calls"],
            "optheta.apply_to_series.busy_s": self.busy_ns["optheta.apply_to_series"] * s,
            "frobenius.local_basis.calls": c["frobenius.local_basis.calls"],
            "frobenius.local_basis.rows": c["frobenius.local_basis.rows"],
            "frobenius.local_basis.busy_s.rational": self.basis_busy_ns["rational"] * s,
            "frobenius.local_basis.busy_s.quadratic": self.basis_busy_ns["quadratic"] * s,
            "frobenius.local_basis.busy_s.infinity": self.basis_busy_ns["infinity"] * s,
            "frobenius.jordan_structure.busy_s": self.busy_ns["frobenius.jordan_structure"] * s,
            "frobenius.classify_point.self_s": self_ns["frobenius.classify_point"] * s,
            "frobenius.annihilation_order.busy_s": self.busy_ns["frobenius.annihilation_order"] * s,
            "transform.mobius.busy_s": self.busy_ns["transform.mobius"] * s,
            "transform.shift_exponents.busy_s": self.busy_ns["transform.shift_exponents"] * s,
            "transform.pullback.busy_s": self.busy_ns["transform.pullback"] * s,
            "transform.descend.busy_s": self.busy_ns["transform.descend"] * s,
            "period.conifold_expand.busy_s": self.busy_ns["period.conifold_expand"] * s,
            "period.verify_annihilation.busy_s": self.busy_ns["period.verify_annihilation"] * s,
            "guess.guess_operator.busy_s": self.busy_ns["guess.guess_operator"] * s,
            "guess.candidates": c["guess.candidates"],
            "qexp.eta_product.busy_s": self.busy_ns["qexp.eta_product"] * s,
            "qexp.count_double_octic.busy_s": self.busy_ns["qexp.count_double_octic"] * s,
            # parts of the ratios
            "_distinct_bases": len(self.bases),
            "_simplex_hits": info.hits,
            "_simplex_lookups": info.hits + info.misses,
            "_guess_accepted": c["guess.accepted"],
            "_count_points": c["qexp.count.points"],
        }
        for chain in catalog.CHAINS:
            raw["catalog.chain.%s.s" % chain] = self.busy_ns["catalog.chain." + chain] * s
        return raw

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def add_raw(total, raw):
    """Accumulate raw metrics of several processes (bit sizes take the maximum)."""
    for name, value in raw.items():
        if name == "arith.coeff_bits_max":
            total[name] = max(total.get(name, 0), value)
        else:
            total[name] = total.get(name, 0) + value
    return total


def finish(raw):
    """Layer metrics from raw quantities; a ratio whose base is 0 reads 0."""

    def ratio(a, b):
        return a / b if b else 0.0

    out = {k: v for k, v in raw.items() if not k.startswith("_")}
    out["frobenius.local_basis.distinct_ratio"] = ratio(raw["_distinct_bases"], raw["frobenius.local_basis.calls"])
    out["period.simplex_integral.hit_ratio"] = ratio(raw["_simplex_hits"], raw["_simplex_lookups"])
    out["guess.accept_ratio"] = ratio(raw["_guess_accepted"], raw["guess.candidates"])
    out["qexp.count.points_per_s"] = ratio(raw["_count_points"], raw["qexp.count_double_octic.busy_s"])
    return out


def _counted(fn, cell):
    def wrapper(*args):
        if cell[1]:
            cell[0] += 1
        return fn(*args)

    wrapper.__wrapped__ = fn
    return wrapper
