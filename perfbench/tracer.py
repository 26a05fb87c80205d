"""Outside-in layer tracing for the benchmark.

The benchmark never edits the package.  Instead `Tracer.install` replaces
each traced function with a wrapper on every `orevine` module binding that
holds it (so `from .vine import fit_sequential` inside `model` is caught as
well as `vine.fit_sequential`), and on the class for traced methods.  Each
wrapper times one span and charges its duration to the enclosing open span,
so a span's self time is its duration minus the time its child spans cover.

Spans stay in memory as per-name aggregates (calls, total and self time,
per-call durations); the benchmark reads them after the traced pass.
Spans opened in forked worker processes never reach the parent, which is
why the LOO workload traces a serial (parallelism 1) pass.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, qualified name) of every traced function or method.
TRACED = (
    ("cli", "main"),
    ("synth", "generate_scene"),
    ("synth", "generate_composite_dataset"),
    ("voxel", "read_volume"),
    ("voxel", "read_labels"),
    ("voxel", "register_phase_slices"),
    ("voxel", "compute_weight_map"),
    ("descriptors", "build_dataset"),
    ("descriptors", "min_volume_bbox"),
    ("descriptors", "surface_area"),
    ("descriptors", "Dataset.from_csv"),
    ("marginals", "fit_mixture_em"),
    ("marginals", "MixtureModel.cdf"),
    ("marginals", "MixtureModel.log_density"),
    ("marginals", "MixtureModel.quantile"),
    ("copulas", "kendall_tau"),
    ("copulas", "refit_theta"),
    ("copulas", "pair_log_density"),
    ("copulas", "pair_h"),
    ("copulas", "pair_h2"),
    ("copulas", "pair_h_inverse"),
    ("copulas", "pair_h2_inverse"),
    ("vine", "fit_sequential"),
    ("vine", "fit_archimedean"),
    ("vine", "vine_log_density"),
    ("vine", "vine_sample"),
    ("model", "fit_composite"),
    ("model", "composite_log_density"),
    ("model", "predict_vfvm"),
    ("model", "conditional_median"),
    ("model", "marginal_composite_ct"),
    ("model", "adaptive_integral"),
    ("evaluation", "loo_cv"),
    ("evaluation", "_loo_fold"),
    ("persist", "save_model"),
    ("persist", "load_model"),
    ("persist", "write_manifest"),
)

PACKAGE = "orevine"
EM = "marginals.fit_mixture_em"
FOLD = "evaluation._loo_fold"
# EM spans opened inside a LOO fold (the warm-started refits) are also
# recorded under this name.
EM_IN_FOLD = f"{EM}<{FOLD}"


class SpanStats:
    """Aggregate of every span recorded under one name."""

    __slots__ = ("calls", "total_s", "self_s", "durations")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.durations: list[float] = []


class Tracer:
    """Span recorder plus the wrapper installation that feeds it."""

    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self._child_time: list[float] = []   # open spans' covered child time
        self._fold_depth = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        self.stats = {}

    def _wrap(self, name: str, func):
        record = self._record
        stack = self._child_time
        fold = 1 if name == FOLD else 0   # counts open LOO folds

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack.append(0.0)
            self._fold_depth += fold
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._fold_depth -= fold
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                record(name, elapsed, children)

        return traced

    def _record(self, name: str, elapsed: float, children: float) -> None:
        keys = [name]
        if name == EM and self._fold_depth:
            keys.append(EM_IN_FOLD)
        for key in keys:
            rec = self.stats.get(key)
            if rec is None:
                rec = self.stats[key] = SpanStats()
            rec.calls += 1
            rec.total_s += elapsed
            rec.self_s += elapsed - children
            rec.durations.append(elapsed)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = {m: importlib.import_module(f"{PACKAGE}.{m}")
                   for m in {mod for mod, _ in TRACED}}
        bindings = [mod for key, mod in sorted(sys.modules.items())
                    if mod is not None and (key == PACKAGE
                                            or key.startswith(PACKAGE + "."))]
        for mod_name, qualname in TRACED:
            name = f"{mod_name}.{qualname}"
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:  # a method: patch the class attribute
                owner = getattr(modules[mod_name], owner_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__))
                else:
                    wrapped = self._wrap(name, raw)
                self._saved.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                continue
            func = getattr(modules[mod_name], attr)
            wrapped = self._wrap(name, func)
            for mod in bindings:
                for key, value in list(vars(mod).items()):
                    if value is func:
                        self._saved.append((mod, key, func))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []
        self._child_time.clear()
        self._fold_depth = 0
