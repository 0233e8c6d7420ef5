"""Spans and counters for the traced run, recorded from outside ``dirp``.

``install`` rebinds the public functions of each dirp module at every
place a module binds them (``dirp.report.half_mass_cutoff``,
``dirp.diophantine.inner_product``, ...), so nothing in ``src/`` changes.
Boundaries crossed up to millions of times get counters only
(``QuadExact.__init__``, ``CertifiedReal.enclosure``) or counters and
summed timers (``inner_product`` outside ``dirp.diophantine``;
``CertifiedReal.sign`` and ``compare`` outside a lattice search).
Everything else records a span ``[name, start, end, parent]``, kept in
memory until the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

perf = time.perf_counter

LATTICE_SEARCHES = frozenset({"diophantine.lattice_min", "diophantine.lattice_min_profile",
                              "diophantine.system_lattice_min"})
CERTIFY = frozenset({"directions.inner_product", "certified.sign", "certified.compare"})

# module -> public functions recorded as spans
SPANNED = {
    "dirp.report": ["criterion_1", "criterion_2", "criterion_3", "criterion_4", "criteria_5_6",
                    "criterion_7", "criterion_8", "criterion_9", "criterion_10",
                    "criterion_11", "criterion_12", "criterion_13", "criterion_14"],
    "dirp.spectral": ["half_mass_cutoff", "poincare_ratio", "directional_norm", "l2_norm",
                      "grad_norm", "multi_directional_functional", "multiplier_norm"],
    "dirp.diophantine": ["lattice_min", "lattice_min_profile", "system_lattice_min",
                         "cf_expand"],
    "dirp.diffusion": ["measure_from_rv", "cesaro_average", "convolution_power",
                       "apply_markov", "contraction_factor", "scaling_fit",
                       "density_floor_check"],
    "dirp.extremizers": ["sharpness_table"],
    "dirp.cli": ["main"],
}

# (name, unit) of every per-layer metric, in the order BENCHMARK.json lists them
LAYER_METRICS = (
    [(f"report.criterion_{c:02d}_s", "s") for c in (1, 2, 3, 4)]
    + [("report.criteria_05_06_s", "s"), ("report.criteria_05_06_self_s", "s")]
    + [(f"report.criterion_{c:02d}_s", "s") for c in range(7, 15)]
    + [("spectral.half_mass_cutoff_s", "s"), ("spectral.half_mass_cutoff_calls", "count"),
       ("spectral.poincare_ratio_s", "s"), ("spectral.poincare_ratio_calls", "count"),
       ("spectral.directional_norm_s", "s"), ("spectral.terms", "count"),
       ("diophantine.lattice_min_s", "s"), ("diophantine.lattice_min_profile_s", "s"),
       ("diophantine.system_lattice_min_s", "s"), ("diophantine.cf_expand_s", "s"),
       ("diophantine.enumerated", "count"), ("diophantine.certified_candidates", "count"),
       ("diophantine.survivor_ratio", "ratio"), ("diophantine.certify_s", "s"),
       ("diophantine.prefilter_s", "s"),
       ("directions.inner_product_calls", "count"), ("directions.inner_product_s", "s"),
       ("certified.sign_calls", "count"), ("certified.sign_s", "s"),
       ("certified.enclosure_calls", "count"), ("certified.max_enclosure_digits", "digits"),
       ("quadratic.constructed", "count"),
       ("diffusion.measure_from_rv_s", "s"), ("diffusion.cesaro_average_s", "s"),
       ("diffusion.cesaro_steps", "count"), ("diffusion.convolution_power_s", "s"),
       ("diffusion.apply_markov_calls", "count"), ("diffusion.apply_markov_s", "s"),
       ("diffusion.contraction_factor_s", "s"), ("diffusion.scaling_fit_s", "s"),
       ("diffusion.density_floor_check_s", "s"),
       ("extremizers.sharpness_table_s", "s"),
       ("cli.main_self_s", "s"),
       ("trace.overhead_s", "s")]
)


def span_name(module: str, func: str) -> str:
    short = module.split(".")[-1]
    if func.startswith("criterion_"):
        return f"report.criterion_{int(func.split('_')[1]):02d}"
    if func == "criteria_5_6":
        return "report.criteria_05_06"
    return f"{short}.{func}"


class Tracer:
    """Spans, counters and timers of one traced pass.  Records nothing
    unless ``enabled``, so checks run after the pass are not traced."""

    def __init__(self):
        self.spans: list[list] = []       # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.seconds: Counter = Counter()
        self.max_digits = 0
        self.enabled = False

    def parent_name(self):
        return self.spans[self.stack[-1]][0] if self.stack else None

    def span(self, name, fn, on_result=None):
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1]
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf()
                self.stack.pop()
            if on_result is not None:
                on_result(args, kwargs, result)
            return result
        return functools.wraps(fn)(wrapper)

    def timed(self, name, fn, span_if=None):
        """Count and time every call; also record a span when
        ``span_if(parent span name)`` holds."""
        spanned = self.span(name, fn)

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            self.counts[name] += 1
            if span_if is not None and span_if(self.parent_name()):
                start = perf()
                try:
                    return spanned(*args, **kwargs)
                finally:
                    self.seconds[name] += perf() - start
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[name] += perf() - start
        return functools.wraps(fn)(wrapper)


def _rebind(original, make) -> None:
    """Replace ``original`` in every dirp module that binds it."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "dirp" and not mod_name.startswith("dirp."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, make(mod_name))


def install(tracer: Tracer) -> None:
    import dirp.cli  # noqa: F401  (imports every module that binds a traced name)
    from dirp.certified import CertifiedReal
    from dirp.directions import inner_product
    from dirp.quadratic import QuadExact

    counts = tracer.counts

    def on_result_for(name):
        if name.startswith("spectral."):
            def on_result(args, kwargs, result):
                counts["spectral.terms"] += len(args[0].terms)
            return on_result
        if name in ("diophantine.lattice_min", "diophantine.system_lattice_min"):
            def on_result(args, kwargs, result):
                counts["diophantine.enumerated"] += result.enumerated
            return on_result
        if name == "diffusion.cesaro_average":
            def on_result(args, kwargs, result):
                counts["diffusion.cesaro_steps"] += args[1] if len(args) > 1 else kwargs["n"]
            return on_result
        return None

    for module, funcs in SPANNED.items():
        for func in funcs:
            original = getattr(sys.modules[module], func)
            name = span_name(module, func)
            wrapped = tracer.span(name, original, on_result_for(name))
            _rebind(original, lambda _mod, w=wrapped: w)

    # inner_product: spans inside lattice searches (diophantine), timers elsewhere
    in_lattice = LATTICE_SEARCHES.__contains__

    def inner_for(binding_module):
        if binding_module != "dirp.diophantine":
            return tracer.timed("directions.inner_product", inner_product)
        timed = tracer.timed("directions.inner_product", inner_product, span_if=lambda p: True)

        def wrapper(*args, **kwargs):
            if tracer.enabled and in_lattice(tracer.parent_name()):
                counts["diophantine.certified_candidates"] += 1
            return timed(*args, **kwargs)
        return wrapper

    _rebind(inner_product, inner_for)

    # enclosures are evaluated lazily, mostly when a result is serialized;
    # this span keeps that work out of the caller's self time (cli.main)
    CertifiedReal.to_json = tracer.span("certified.to_json", CertifiedReal.to_json)
    CertifiedReal.sign = tracer.timed("certified.sign", CertifiedReal.sign, in_lattice)
    CertifiedReal.compare = tracer.timed("certified.compare", CertifiedReal.compare, in_lattice)

    enclosure = CertifiedReal.enclosure

    def counted_enclosure(self, digits):
        if tracer.enabled:
            counts["certified.enclosure_calls"] += 1
            if digits > tracer.max_digits:
                tracer.max_digits = digits
        return enclosure(self, digits)

    CertifiedReal.enclosure = counted_enclosure

    quad_init = QuadExact.__init__

    def counted_init(self, *args, **kwargs):
        if tracer.enabled:
            counts["quadratic.constructed"] += 1
        quad_init(self, *args, **kwargs)

    QuadExact.__init__ = counted_init


def layer_metrics(tracer: Tracer, overhead_s: float) -> dict[str, float]:
    """Every per-layer metric from one traced pass."""
    spans = tracer.spans
    child_total = [0.0] * len(spans)
    named_child = [Counter() for _ in spans]
    for name, start, end, parent in spans:
        if parent >= 0:
            child_total[parent] += end - start
            named_child[parent][name] += end - start

    def outermost(i):
        name, parent = spans[i][0], spans[i][3]
        while parent >= 0:
            if spans[parent][0] == name:
                return False
            parent = spans[parent][3]
        return True

    inclusive, calls = Counter(), Counter()
    for i, (name, start, end, _) in enumerate(spans):
        calls[name] += 1
        if outermost(i):
            inclusive[name] += end - start

    def self_time(names, minus=None):
        total = 0.0
        for i, (name, start, end, _) in enumerate(spans):
            if name in names:
                covered = (child_total[i] if minus is None
                           else sum(named_child[i][n] for n in minus))
                total += end - start - covered
        return total

    certify = sum(named_child[i][n] for i, s in enumerate(spans)
                  if s[0] in LATTICE_SEARCHES for n in CERTIFY)
    c = tracer.counts
    out = {f"report.criterion_{k:02d}_s": inclusive[f"report.criterion_{k:02d}"]
           for k in (1, 2, 3, 4, *range(7, 15))}
    out.update({
        "report.criteria_05_06_s": inclusive["report.criteria_05_06"],
        "report.criteria_05_06_self_s": self_time(
            {"report.criteria_05_06"},
            minus=("spectral.half_mass_cutoff", "diophantine.lattice_min_profile")),
        "spectral.half_mass_cutoff_calls": calls["spectral.half_mass_cutoff"],
        "spectral.poincare_ratio_calls": calls["spectral.poincare_ratio"],
        "spectral.terms": c["spectral.terms"],
        "diophantine.enumerated": c["diophantine.enumerated"],
        "diophantine.certified_candidates": c["diophantine.certified_candidates"],
        "diophantine.survivor_ratio": (c["diophantine.certified_candidates"]
                                       / c["diophantine.enumerated"]
                                       if c["diophantine.enumerated"] else 0.0),
        "diophantine.certify_s": certify,
        "diophantine.prefilter_s": self_time(LATTICE_SEARCHES),
        "directions.inner_product_calls": c["directions.inner_product"],
        "directions.inner_product_s": tracer.seconds["directions.inner_product"],
        "certified.sign_calls": c["certified.sign"],
        "certified.sign_s": tracer.seconds["certified.sign"],
        "certified.enclosure_calls": c["certified.enclosure_calls"],
        "certified.max_enclosure_digits": tracer.max_digits,
        "quadratic.constructed": c["quadratic.constructed"],
        "diffusion.cesaro_steps": c["diffusion.cesaro_steps"],
        "diffusion.apply_markov_calls": calls["diffusion.apply_markov"],
        "cli.main_self_s": self_time({"cli.main"}),
        "trace.overhead_s": overhead_s,
    })
    for name in ("spectral.half_mass_cutoff", "spectral.poincare_ratio",
                 "spectral.directional_norm", "diophantine.lattice_min",
                 "diophantine.lattice_min_profile", "diophantine.system_lattice_min",
                 "diophantine.cf_expand", "diffusion.measure_from_rv",
                 "diffusion.cesaro_average", "diffusion.convolution_power",
                 "diffusion.apply_markov", "diffusion.contraction_factor",
                 "diffusion.scaling_fit", "diffusion.density_floor_check",
                 "extremizers.sharpness_table"):
        out[name + "_s"] = inclusive[name]
    return out
