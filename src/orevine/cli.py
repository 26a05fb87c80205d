"""Command-line pipeline driver.

Subcommands: descriptors (volumes -> dataset CSV), fit (CSV -> model
document + fit scores), predict (model + CSV -> predictions CSV), evaluate
(model + labeled CSV -> leave-one-out report + per-row error CSV), sample
(model -> synthetic CSV), synth (scene spec -> rendered volumes + dataset),
weights (labels -> training weight-map volume).

Every run writes a `<output>.manifest.json` with the resolved
configuration, its hash, the seed, and library versions.  Exit codes:
0 success, 2 argument/config error (a path that cannot be opened
included), 3 data/parse error, 4 numerical fitting failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .descriptors import COLUMNS, Dataset, build_dataset
from .errors import (
    ArgumentError,
    FittingError,
    OrevineError,
    ParseError,
    SchemaError,
    StructuralError,
)
from .evaluation import fit_scores, loo_cv, render_report, scores_to_json
from .model import engine_fits, fit_composite, predict_vfvm
from .persist import load_model, save_model, write_manifest
from .synth import generate_scene, load_scene_spec
from .voxel import (
    VoxelVolume,
    compute_weight_map,
    read_labels,
    read_phase_slice,
    read_volume,
    write_labels,
    write_phase_slice,
    write_volume,
)

EXIT_OK = 0
EXIT_ARGUMENT = 2
EXIT_DATA = 3
EXIT_FITTING = 4


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="RNG seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orevine",
        description="Particle descriptor modeling and composition prediction")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("descriptors", help="compute the descriptor dataset")
    p.add_argument("--volume", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--phases", nargs="*", default=[])
    p.add_argument("--include-unmatched", action="store_true")
    p.add_argument("--out", required=True)
    _add_common(p)

    p = sub.add_parser("fit", help="fit the composite model to a dataset CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--engine", choices=tuple(engine_fits()), default="rvine")
    p.add_argument("--epsilon", type=float, default=0.01)
    p.add_argument("--min-rows", type=int, default=30)
    p.add_argument("--em-tol", type=float, default=1e-8,
                   help="marginal fit stop: the Newton decrement (or an EM "
                        "map's gain) relative to max(1, |log-likelihood|)")
    p.add_argument("--candidates", nargs="*", default=None,
                   help="pair-copula candidate families")
    p.add_argument("--out", required=True, help="model document path")
    p.add_argument("--report-prefix", default=None,
                   help="write <prefix>.txt and <prefix>.json fit scores")
    _add_common(p)

    p = sub.add_parser("predict", help="predict composition for CT-based rows")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    _add_common(p)

    p = sub.add_parser("evaluate", help="leave-one-out cross-validation")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out-prefix", required=True)
    p.add_argument("--fast-loo", action="store_true",
                   help="reuse the full-data structure, refit parameters only")
    p.add_argument("--parallelism", type=int, default=1)
    _add_common(p)

    p = sub.add_parser("sample", help="draw rows from a fitted model")
    p.add_argument("--model", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)
    _add_common(p)

    p = sub.add_parser("synth", help="render a synthetic scene spec")
    p.add_argument("--spec", required=True)
    p.add_argument("--out-prefix", required=True)
    _add_common(p)

    p = sub.add_parser("weights", help="training weight map from labels")
    p.add_argument("--labels", required=True)
    p.add_argument("--slices", required=True,
                   help="comma-separated annotated z indices")
    p.add_argument("--d-hat", type=float, default=5.0)
    p.add_argument("--decay", type=float, default=36.0)
    p.add_argument("--floor", type=float, default=0.04)
    p.add_argument("--out", required=True)
    _add_common(p)
    return parser


def _check_outputs(*paths) -> None:
    """Reject, before any work, an output path whose directory is missing
    or that is itself a directory; None stands for an output not asked for."""
    for path in map(Path, filter(None, paths)):
        if path.is_dir():
            raise ArgumentError(f"output path {path} is a directory")
        if not path.parent.is_dir():
            raise ArgumentError(f"output directory {path.parent} does not exist")


def _manifest_for(args: argparse.Namespace, anchor: str) -> None:
    config = {k: v for k, v in vars(args).items() if k != "command"}
    write_manifest(str(anchor) + ".manifest.json", args.command, config,
                   seed=getattr(args, "seed", None))


def _check_cells(ds: Dataset, path, rat: bool) -> None:
    """Reject the first bad cell, in CSV order, with its line and column.

    The six CT descriptors must be finite.  With `rat`, every row must also
    carry a composition in [0, 1]: a missing value (NaN, read from an empty
    or a literal `nan` cell) is rejected like an out-of-range one.
    """
    bad = np.zeros(ds.matrix.shape, dtype=bool)
    bad[:, :6] = ~np.isfinite(ds.matrix[:, :6])
    if rat:
        value = ds.matrix[:, 6]
        bad[:, 6] = ~((value >= 0.0) & (value <= 1.0))
    hits = np.argwhere(bad)
    if hits.size:
        i, j = hits[0]
        rule = ("the composition must be given and lie in [0, 1]" if j == 6
                else "CT descriptors must be finite")
        raise ParseError(f"{path}: line {i + 2}: {ds.columns[j]} cell is "
                         f"{float(ds.matrix[i, j])!r}; {rule}")


def _run_descriptors(args) -> int:
    _check_outputs(args.out, args.out + ".manifest.json")
    volume = read_volume(args.volume)
    labels = read_labels(args.labels)
    slices = [read_phase_slice(p) for p in args.phases]
    ds = build_dataset(labels, volume, slices,
                       include_unmatched=args.include_unmatched)
    ds.to_csv(args.out)
    _manifest_for(args, args.out)
    print(f"wrote {len(ds)} descriptor rows to {args.out}")
    return EXIT_OK


def _run_fit(args) -> int:
    report = args.report_prefix
    _check_outputs(args.out, args.out + ".manifest.json",
                   report and report + ".txt", report and report + ".json")
    ds = Dataset.from_csv(args.data)
    _check_cells(ds, args.data, rat=True)
    model = fit_composite(ds, engine=args.engine, epsilon=args.epsilon,
                          candidates=args.candidates or None,
                          min_rows=args.min_rows, em_tol=args.em_tol)
    save_model(args.out, model)
    scores = fit_scores(model, ds)
    text = render_report(scores)
    if report:
        Path(report + ".txt").write_text(text)
        Path(report + ".json").write_text(scores_to_json(scores))
    _manifest_for(args, args.out)
    print(text)
    return EXIT_OK


def _run_predict(args) -> int:
    _check_outputs(args.out, args.out + ".manifest.json")
    model = load_model(args.model)
    ds = Dataset.from_csv(args.data)
    _check_cells(ds, args.data, rat=False)
    preds = predict_vfvm(model, ds.matrix[:, :6])
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("id,value,label\n")
        for pid, pred in zip(ds.ids.tolist(), preds):
            value = "" if pred.value is None else repr(float(pred.value))
            fh.write(f"{pid},{value},{pred.label}\n")
    _manifest_for(args, args.out)
    print(f"wrote {len(ds)} predictions to {args.out}")
    return EXIT_OK


def _run_evaluate(args) -> int:
    prefix = args.out_prefix
    _check_outputs(*(prefix + suffix for suffix in
                     (".txt", ".json", "_errors.csv", ".manifest.json")))
    model = load_model(args.model)
    ds = Dataset.from_csv(args.data)
    _check_cells(ds, args.data, rat=True)
    result = loo_cv(model, ds, fast=args.fast_loo,
                    parallelism=args.parallelism)
    scores = [result.report_all, result.report_composite]
    text = render_report(scores)
    Path(prefix + ".txt").write_text(text)
    Path(prefix + ".json").write_text(scores_to_json(scores))
    result.write_errors_csv(prefix + "_errors.csv")
    _manifest_for(args, prefix)
    print(text)
    return EXIT_OK


def _run_sample(args) -> int:
    if args.n < 0:
        raise ArgumentError("sample size must be >= 0")
    _check_outputs(args.out, args.out + ".manifest.json")
    rows = load_model(args.model).sample(args.n, seed=args.seed)
    ds = Dataset(np.arange(1, args.n + 1, dtype=np.int64), rows, COLUMNS)
    ds.to_csv(args.out)
    _manifest_for(args, args.out)
    print(f"wrote {len(ds)} sampled rows to {args.out}")
    return EXIT_OK


def _run_synth(args) -> int:
    prefix = args.out_prefix
    _check_outputs(*(prefix + suffix for suffix in
                     ("_volume.raw", "_labels.raw", "_dataset.csv", ".manifest.json")))
    spec = load_scene_spec(args.spec)
    try:
        volume, labels, slices = generate_scene(spec)
        write_volume(prefix + "_volume.raw", volume)   # gray values beyond float32 raise
    except ArgumentError as exc:
        # a spec the scene cannot be built from or stored is a fault of the file
        raise ParseError(f"malformed scene spec: {exc}") from exc
    write_labels(prefix + "_labels.raw", labels)
    for i, sl in enumerate(slices):
        write_phase_slice(f"{prefix}_phase_{i}.json", sl)
    ds = build_dataset(labels, volume, slices)
    ds.to_csv(prefix + "_dataset.csv")
    _manifest_for(args, prefix)
    print(f"rendered {labels.n_particles} particles; "
          f"{len(ds)} dataset rows at {prefix}_dataset.csv")
    return EXIT_OK


def _run_weights(args) -> int:
    _check_outputs(args.out, args.out + ".json", args.out + ".manifest.json")
    labels = read_labels(args.labels)
    try:
        z_indices = [int(z) for z in args.slices.split(",") if z != ""]
    except ValueError as exc:
        raise ArgumentError(f"bad --slices list: {exc}") from exc
    wm = compute_weight_map(labels, z_indices, d_hat=args.d_hat,
                            decay=args.decay, floor=args.floor)
    write_volume(args.out, VoxelVolume(wm.weights, labels.spacing),
                 dtype="float64")
    sidecar = Path(str(args.out) + ".json")
    doc = json.loads(sidecar.read_text())
    doc["c_f"] = wm.c_f
    doc["d_hat"] = wm.d_hat
    sidecar.write_text(json.dumps(doc, sort_keys=True))
    _manifest_for(args, args.out)
    print(f"wrote weight map (c_f={wm.c_f:.6g}) to {args.out}")
    return EXIT_OK


COMMANDS = {
    "descriptors": _run_descriptors,
    "fit": _run_fit,
    "predict": _run_predict,
    "evaluate": _run_evaluate,
    "sample": _run_sample,
    "synth": _run_synth,
    "weights": _run_weights,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (ParseError, SchemaError, StructuralError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except FittingError as exc:
        print(f"fitting error: {exc}", file=sys.stderr)
        return EXIT_FITTING
    except (ArgumentError, OSError) as exc:
        print(f"argument error: {exc}", file=sys.stderr)
        return EXIT_ARGUMENT
    except OrevineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
