"""Per-layer tracing from outside the library.

Tracer.install() swaps each traced pcdl entry point for a wrapper, in
every pcdl module namespace that bound it by name and on the classes that
own the traced methods; uninstall() puts the originals back. A wrapper
opens a span around the call; a generator's span covers each next() call,
so time spent between yields is charged to the caller. A layer's self time
is its spans' duration minus the part covered by child spans. Hot
accessors only count calls.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter

# (module, attribute, span name) of timed functions and methods
SPANS = [
    ("posets", "Poset.from_covers", "posets.from_covers"),
    ("posets", "OrderMap.__init__", "posets.OrderMap"),
    ("posets", "Poset.up_sets", "posets.up_sets"),
    ("posets", "Poset.canonical_key", "posets.canonical_key"),
    ("duality", "UpSetLattice.__init__", "duality.UpSetLattice"),
    ("duality", "AbstractLattice.__init__", "duality.AbstractLattice"),
    ("duality", "unit_iso", "duality.unit_iso"),
    ("duality", "LatticeHom.is_homomorphism", "duality.is_homomorphism"),
    ("algebras", "make_pcdl", "algebras.make_pcdl"),
    ("algebras", "is_p_morphism", "algebras.is_p_morphism"),
    ("algebras", "hom_of_dual_map", "algebras.hom_of_dual_map"),
    ("amalgamation", "_find_lift", "amalgamation.find_lift"),
    ("amalgamation", "_extension_class_task", "amalgamation.class_task"),
    ("amalgamation", "_extension_classes", "amalgamation.extension_classes"),
    ("congruences", "enumerate_congruences",
     "congruences.enumerate_congruences"),
    ("congruences", "quotient", "congruences.quotient"),
    ("congruences", "pullback_congruence", "congruences.pullback_congruence"),
    ("congruences", "is_congruence_extensile_bounded", "congruences.extensile"),
    ("qmodel", "check_lift_cases", "qmodel.check_lift_cases"),
    ("qmodel", "verify_separation", "qmodel.verify_separation"),
    ("qmodel", "divergence_report", "qmodel.divergence_report"),
    ("catalog", "catalog", "catalog.catalog"),
    ("cli", "main", "cli.main"),
    ("cli", "_emit", "cli.emit"),
    ("enumeration", "poset_classes_exactly",
     "enumeration.poset_classes_exactly"),
]
# (module, attribute, counter name) of functions that are only counted
COUNTS = [
    ("posets", "Poset.maximals_mask", "posets.maximals_mask.calls"),
    ("posets", "Poset.max_above", "posets.max_above.calls"),
    ("enumeration", "_add_maximal", "enumeration.candidates"),
]
# _iter_p_morphisms spans are named after the namespace that called the
# generator and the span open at the time; other callers share one name.
ONTO_SEARCHES = {
    ("amalgamation", "amalgamation.find_lift"): "amalgamation.find_lift.search",
    ("amalgamation", "amalgamation.class_task"): "amalgamation.gamma_search",
    ("qmodel", "qmodel.check_lift_cases"): "qmodel.gamma_search",
    ("algebras", "congruences.extensile"): "congruences.gamma_search",
}

# (metric, unit) in report order
PER_LAYER = [
    ("posets.maximals_mask.calls", "count"),
    ("posets.max_above.calls", "count"),
    ("posets.from_covers.calls", "count"),
    ("posets.from_covers.self_s", "s"),
    ("posets.OrderMap.calls", "count"),
    ("posets.OrderMap.self_s", "s"),
    ("posets.up_sets.calls", "count"),
    ("posets.up_sets.self_s", "s"),
    ("posets.canonical_key.calls", "count"),
    ("posets.canonical_key.self_s", "s"),
    ("enumeration.poset_classes_exactly.calls", "count"),
    ("enumeration.poset_classes_exactly.self_s", "s"),
    ("enumeration.candidates", "count"),
    ("enumeration.kept", "count"),
    ("enumeration.kept_ratio", "ratio"),
    ("duality.UpSetLattice.calls", "count"),
    ("duality.UpSetLattice.self_s", "s"),
    ("duality.AbstractLattice.calls", "count"),
    ("duality.AbstractLattice.self_s", "s"),
    ("duality.unit_iso.calls", "count"),
    ("duality.unit_iso.self_s", "s"),
    ("duality.is_homomorphism.calls", "count"),
    ("duality.is_homomorphism.self_s", "s"),
    ("algebras.make_pcdl.calls", "count"),
    ("algebras.make_pcdl.self_s", "s"),
    ("algebras.is_p_morphism.calls", "count"),
    ("algebras.is_p_morphism.self_s", "s"),
    ("algebras.hom_of_dual_map.calls", "count"),
    ("algebras.hom_of_dual_map.self_s", "s"),
    ("algebras.p_morphisms.yields", "count"),
    ("algebras.p_morphisms.total_s", "s"),
    ("amalgamation.find_lift.calls", "count"),
    ("amalgamation.find_lift.total_s", "s"),
    ("amalgamation.find_lift.none_ratio", "ratio"),
    ("amalgamation.oracle_instances", "count"),
    ("amalgamation.reported_ratio", "ratio"),
    ("amalgamation.gamma_search.yields", "count"),
    ("amalgamation.gamma_search.total_s", "s"),
    ("amalgamation.class_task.calls", "count"),
    ("amalgamation.class_task.total_s", "s"),
    ("amalgamation.extension_classes.calls", "count"),
    ("amalgamation.extension_classes.self_s", "s"),
    ("amalgamation.extension_classes.kept_ratio", "ratio"),
    ("congruences.enumerate_congruences.calls", "count"),
    ("congruences.enumerate_congruences.self_s", "s"),
    ("congruences.masks_scanned", "count"),
    ("congruences.found", "count"),
    ("congruences.yield_ratio", "ratio"),
    ("congruences.quotient.calls", "count"),
    ("congruences.quotient.self_s", "s"),
    ("congruences.pullback_congruence.calls", "count"),
    ("congruences.pullback_congruence.self_s", "s"),
    ("congruences.extensile.calls", "count"),
    ("congruences.extensile.self_s", "s"),
    ("congruences.gamma_search.yields", "count"),
    ("congruences.gamma_search.total_s", "s"),
    ("qmodel.check_lift_cases.calls", "count"),
    ("qmodel.check_lift_cases.self_s", "s"),
    ("qmodel.lift_instances", "count"),
    ("qmodel.gamma_search.yields", "count"),
    ("qmodel.gamma_search.total_s", "s"),
    ("qmodel.verify_separation.calls", "count"),
    ("qmodel.verify_separation.self_s", "s"),
    ("qmodel.divergence_report.calls", "count"),
    ("qmodel.divergence_report.self_s", "s"),
    ("catalog.catalog.calls", "count"),
    ("catalog.catalog.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.emit.calls", "count"),
    ("cli.emit.self_s", "s"),
    ("cli.emit.bytes", "count"),
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.overhead_s", "s"),
]


def _resolve(module, dotted: str):
    owner = module
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def _ratio(num, den) -> float:
    """num / den, or 0.0 when nothing was attempted."""
    return num / den if den else 0.0


class Tracer:
    def __init__(self):
        self.stack = []          # open spans: [name, time covered by children]
        self.calls = Counter()   # span name -> closed spans
        self.total = Counter()   # span name -> seconds
        self.self_time = Counter()
        self.counts = Counter()
        self._undo = []

    # -- spans ----------------------------------------------------------------

    def _open(self, name):
        frame = [name, 0.0]
        self.stack.append(frame)
        return frame

    def _close(self, frame, elapsed):
        self.stack.pop()
        name = frame[0]
        self.calls[name] += 1
        self.total[name] += elapsed
        self.self_time[name] += elapsed - frame[1]
        if self.stack:
            self.stack[-1][1] += elapsed

    def parent(self):
        return self.stack[-1][0] if self.stack else None

    def timed(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            frame = self._open(name)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame, perf_counter() - t0)
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def timed_generator(self, namespace, fn):
        def wrapper(*args, **kwargs):
            name = ONTO_SEARCHES.get((namespace, self.parent()),
                                     "algebras.p_morphisms")
            return self._steps(name, fn(*args, **kwargs))
        return wrapper

    def _steps(self, name, it):
        while True:
            frame = self._open(name)
            t0 = perf_counter()
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self._close(frame, perf_counter() - t0)
            self.counts[name + ".yields"] += 1
            yield item

    def counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def masks_scanned(self, fn):
        """Count congruence-mask tests made by enumerate_congruences."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self.parent() == "congruences.enumerate_congruences":
                counts["congruences.masks_scanned"] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- patching -------------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _replace(self, module, dotted, make):
        """Wrap one entry point wherever pcdl holds it."""
        owner, attr = _resolve(module, dotted)
        raw = owner.__dict__[attr]
        if isinstance(owner, type):
            if isinstance(raw, property):
                self._patch(owner, attr, property(make(raw.fget)))
            elif isinstance(raw, classmethod):
                self._patch(owner, attr, classmethod(make(raw.__func__)))
            else:
                self._patch(owner, attr, make(raw))
            return
        wrapped = make(raw)
        for mod in _pcdl_modules():
            if mod.__dict__.get(attr) is raw:
                self._patch(mod, attr, wrapped)

    def install(self):
        import pcdl  # noqa: F401  (loads every module)
        mods = {m.__name__.rsplit(".", 1)[-1]: m for m in _pcdl_modules()}
        after = {"amalgamation.find_lift": self._after_find_lift,
                 "amalgamation.extension_classes":
                     self._after_extension_classes,
                 "congruences.enumerate_congruences": self._after_congruences,
                 "qmodel.check_lift_cases": self._after_lift_cases}
        for mod, dotted, name in SPANS:
            if name == "enumeration.poset_classes_exactly":
                make = self._classes_span
            else:
                def make(fn, name=name):
                    return self.timed(name, fn, after.get(name))
            self._replace(mods[mod], dotted, make)
        for mod, dotted, name in COUNTS:
            self._replace(mods[mod], dotted,
                          lambda fn, name=name: self.counted(name, fn))
        self._replace(mods["congruences"], "is_congruence_mask",
                      self.masks_scanned)
        raw = mods["algebras"]._iter_p_morphisms
        for mod in _pcdl_modules():
            if mod.__dict__.get("_iter_p_morphisms") is raw:
                ns = mod.__name__.rsplit(".", 1)[-1]
                self._patch(mod, "_iter_p_morphisms",
                            self.timed_generator(ns, raw))

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- work counts taken from results ---------------------------------------

    def _after_find_lift(self, args, result):
        self.counts["amalgamation.find_lift.none"] += result is None

    def _after_extension_classes(self, args, result):
        from pcdl.enumeration import poset_classes_upto
        self.counts["amalgamation.extension_classes.kept"] += len(result)
        self.counts["amalgamation.extension_classes.considered"] += \
            len(poset_classes_upto(args[2]))

    def _after_congruences(self, args, result):
        self.counts["congruences.found"] += len(result)

    def _after_lift_cases(self, args, result):
        self.counts["qmodel.lift_instances"] += result.instances

    def _classes_span(self, cached):
        """Span for the functools-cached class enumeration.

        A cache miss during the call means the call built its classes
        rather than reading them back; only those are counted as kept.
        """
        timed = self.timed("enumeration.poset_classes_exactly", cached)

        def wrapper(n):
            before = cached.cache_info().misses
            result = timed(n)
            if cached.cache_info().misses != before:
                self.counts["enumeration.kept"] += len(result)
            return result
        return wrapper

    # -- report ---------------------------------------------------------------

    def metrics(self, untraced_wall, traced_wall, reported_instances,
                emitted_bytes) -> dict:
        calls, total, own, c = self.calls, self.total, self.self_time, \
            self.counts
        out = {}
        for name in (n for _, _, n in SPANS):
            out[name + ".calls"] = calls[name]
            out[name + ".self_s"] = own[name]
            out[name + ".total_s"] = total[name]
        for name in ("algebras.p_morphisms", "amalgamation.gamma_search",
                     "qmodel.gamma_search", "congruences.gamma_search"):
            out[name + ".yields"] = c[name + ".yields"]
            out[name + ".total_s"] = total[name]
        for name in ("posets.maximals_mask.calls", "posets.max_above.calls",
                     "enumeration.candidates"):
            out[name] = c[name]
        find_lift = calls["amalgamation.find_lift"]
        masks = c["congruences.masks_scanned"]
        out.update({
            "enumeration.kept": c["enumeration.kept"],
            "enumeration.kept_ratio": _ratio(c["enumeration.kept"],
                                             c["enumeration.candidates"]),
            "amalgamation.find_lift.none_ratio":
                _ratio(c["amalgamation.find_lift.none"], find_lift),
            "amalgamation.oracle_instances": reported_instances,
            "amalgamation.reported_ratio": _ratio(reported_instances,
                                                  find_lift),
            "amalgamation.extension_classes.kept_ratio":
                _ratio(c["amalgamation.extension_classes.kept"],
                       c["amalgamation.extension_classes.considered"]),
            "congruences.masks_scanned": masks,
            "congruences.found": c["congruences.found"],
            "congruences.yield_ratio": _ratio(c["congruences.found"], masks),
            "qmodel.lift_instances": c["qmodel.lift_instances"],
            "cli.emit.bytes": emitted_bytes,
            "trace.untraced_wall_s": untraced_wall,
            "trace.traced_wall_s": traced_wall,
            "trace.overhead_s": traced_wall - untraced_wall,
        })
        return {name: {"value": out[name], "unit": unit}
                for name, unit in PER_LAYER}


def _pcdl_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "pcdl" or name.startswith("pcdl."))]
