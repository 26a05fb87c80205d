"""Metric tables of the benchmark, with the reason each metric exists.

`BENCHMARK.json` at the repository root is generated from these tables:

    python3 perfbench/metrics.py > BENCHMARK.json

The per-layer notes (`moves` and `flat`) name the end-to-end figure and
workload each layer metric should move, and where it should stay flat, so
that a change claiming a gain on one layer can cite them.
"""

from __future__ import annotations

import json

RUN_SECONDS = 12

WORKLOADS = (
    ("scan", "descriptors + weights CLI on a seeded 24-particle scene; bounding-box "
             "search dominates and no marginals/copulas/vine/model code runs"),
    ("fit", "cold-start rvine and archimedean fits of 1341 rows plus a 10^4-row "
            "sample; mixture EM and Kendall tau dominate"),
    ("predict", "predict CLI on 200 seeded held-out rows (34/73/93); the read path, "
                "bimodal in cost between pure and composite rows, no EM/tau/bbox"),
    ("loo", "fast-LOO evaluate at parallelism nproc on 93 rows; warm-started EM, "
            "refit_theta and the process pool, no tau or structure selection"),
)

# name, unit, better, bound.  setup_s and phase_s are seconds at the
# reference machine speed of speed.py.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("phase_s", "s", "lower", 0.2),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# Workload figures named as in the design; each is reported on every
# workload by the traced run, as 0 where the workload has no such stage.
FIGURES = (
    ("scan_particles_per_s", "1/s", "higher", "scan: particles / descriptors+weights seconds"),
    ("fit_s", "s", "lower", "fit: seconds of the rvine plus the archimedean fit"),
    ("sample_rows_per_s", "1/s", "higher", "fit: sampled rows / sample seconds"),
    ("heldout_loglik", "nat", "higher", "fit: mean log-density of held-out rows, rvine model"),
    ("predict_rows_per_s", "1/s", "higher", "predict: rows / predict seconds"),
    ("predict_mae", "1", "lower", "predict: MAE against the generated rat"),
    ("median_oracle_dev", "1", "lower", "predict: worst |median - 10^4-grid oracle|"),
    ("loo_folds_per_s", "1/s", "higher", "loo: folds / evaluate seconds"),
    ("loo_mae", "1", "lower", "loo: MAE from the evaluate report"),
    ("error_rate", "ratio", "lower", "all: failed / attempted operations"),
)

_SCAN = "scan_particles_per_s on scan"
_FIT = "fit_s on fit"
_PRED = "predict_rows_per_s on predict"
_LOO = "loo_folds_per_s on loo"
_SAMPLE = "sample_rows_per_s on fit"

# traced function -> (moves, flat); each yields .calls and .self_s, summed
# over the traced set-up and the traced pass, so the fits that set up
# predict and loo count there too.
LAYERS = (
    ("cli.main", "CLI time outside every traced layer (self_s)", "everywhere"),
    ("synth.generate_scene", "setup_s on scan", "phase_s everywhere"),
    ("synth.generate_composite_dataset", "setup_s on fit/predict/loo", "phase_s everywhere"),
    ("voxel.read_volume", _SCAN, "fit/predict/loo"),
    ("voxel.read_labels", _SCAN, "fit/predict/loo"),
    ("voxel.register_phase_slices", _SCAN, "fit/predict/loo"),
    ("voxel.compute_weight_map", _SCAN, "fit/predict/loo"),
    ("descriptors.build_dataset", _SCAN, "fit/predict/loo"),
    ("descriptors.min_volume_bbox", _SCAN, "fit/predict/loo"),
    ("descriptors.surface_area", _SCAN, "fit/predict/loo"),
    ("descriptors.Dataset.from_csv", f"{_PRED}, {_LOO}", "scan"),
    ("marginals.fit_mixture_em", f"{_FIT}, {_LOO}, setup_s on predict/loo", "scan"),
    ("marginals.MixtureModel.cdf", f"{_PRED}, {_LOO}", "fit_s on fit"),
    ("marginals.MixtureModel.log_density", f"{_PRED}, {_LOO}", "fit_s on fit"),
    ("marginals.MixtureModel.quantile", _SAMPLE, "predict, loo, scan"),
    ("copulas.kendall_tau", _FIT,
     "scan; on predict/loo only set-up fits and evaluate's full-data refit"),
    ("copulas.refit_theta", _LOO, "zero calls on fit/predict"),
    ("copulas.pair_log_density", f"{_PRED}, {_FIT}", "scan"),
    ("copulas.pair_h", f"{_PRED}, {_FIT}", "scan"),
    ("copulas.pair_h2", f"{_PRED}, {_FIT}", "scan"),
    ("copulas.pair_h_inverse", _SAMPLE, "predict"),
    ("copulas.pair_h2_inverse", _SAMPLE, "predict"),
    ("vine.fit_sequential", _FIT, "predict phase"),
    ("vine.fit_archimedean", _FIT, "predict phase"),
    ("vine.vine_log_density", _PRED, "scan"),
    ("vine.vine_sample", _SAMPLE, "predict, loo"),
    ("model.fit_composite", f"{_FIT}, {_LOO}", "scan, predict phase"),
    ("model.composite_log_density", f"{_FIT}, {_LOO}", "scan"),
    ("model.predict_vfvm", _PRED, "scan, fit"),
    ("model.conditional_median", _PRED, "scan, fit"),
    ("model.marginal_composite_ct", _PRED, "scan, fit"),
    ("model.adaptive_integral", _PRED, "scan, fit"),
    ("evaluation.loo_cv", f"{_LOO} (serial traced pass)", "scan, fit, predict"),
    ("persist.save_model", "none expected", "everywhere"),
    ("persist.load_model", "none expected", "everywhere"),
    ("persist.write_manifest", "none expected", "everywhere"),
)

# name, unit, better, moves, flat
EXTRA = (
    ("marginals.fit_mixture_em.max_ms", "ms", "lower",
     f"{_LOO} (warm-EM tail), {_FIT}", "scan"),
    ("vine.vine_log_density.calls_per_row", "count", "lower",
     f"{_PRED}; repeats exactly for a given model and rows", "scan, fit, loo (0)"),
    ("model.predict_vfvm.p50_ms", "ms", "lower", _PRED, "scan, fit"),
    ("model.predict_vfvm.p95_ms", "ms", "lower", _PRED, "scan, fit"),
    ("model.composite_branch_share", "ratio", "lower",
     "share of predicted rows an item-2(b) change can help", "input property"),
    ("evaluation.parallel_efficiency", "ratio", "higher",
     f"{_LOO}; computed: serial traced fold time / (nproc x untraced fold phase)",
     "scan, fit, predict (0)"),
    ("tracing_overhead_s", "s", "lower",
     "traced minus untraced wall time of the timed phase", "not a program figure"),
)


def per_layer():
    """(name, unit, better, moves, flat) of every per-layer metric."""
    out = []
    for name, moves, flat in LAYERS:
        out.append((f"{name}.calls", "count", "lower", moves, flat))
        out.append((f"{name}.self_s", "s", "lower", moves, flat))
    out.extend(EXTRA)
    out.extend((name, unit, better, note, "-") for name, unit, better, note in FIGURES)
    return out


def manifest() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b, _, _ in per_layer()],
    }


if __name__ == "__main__":
    print(json.dumps(manifest(), indent=2))
