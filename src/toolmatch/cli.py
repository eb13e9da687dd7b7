"""Command-line harness: dataset generation, training, evaluation, matching,
ablation sweeps, and gradient checking.

Every run emits one machine-readable JSON report carrying the fully resolved
configuration, SHA-256 fingerprints of every input file, the metric payloads,
and wall time, so any reported number can be reproduced from the report
alone. Exit status: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from functools import partial
from typing import Sequence

import numpy as np

from toolmatch.domain import ATTRIBUTE_NAMES
from toolmatch.evaluation import (
    MatchingBatch,
    ablation_sweep,
    attribute_wise_accuracy,
    matching_accuracy,
    most_similar_class_accuracy,
)
from toolmatch.formats import (
    FormatError,
    load_catalog,
    load_checkpoint,
    read_embeddings,
    read_trials,
    save_checkpoint,
    sha256_file,
)
from toolmatch.nn import gradcheck, head_forward, init_head
from toolmatch.rng import SplitMix64
from toolmatch.similarity import AblationMask
from toolmatch.synthetic import SCENARIO_PRESETS, SyntheticSpec, generate, write_dataset
from toolmatch.training import HeadConfig, PATHWAYS, TrainingDivergedError, predict_each, train_head
from toolmatch.training import predictor  # noqa: F401  patched here by toolbench/tracing.py

# Flag value -> internal metric name.
METRIC_FLAGS = {"cosine": "cosine", "euclid": "negative_euclidean"}

GRADCHECK_TOLERANCE = 1e-4


def _int_pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected TRAIN,TEST pair, got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers, got {text!r}") from None


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def _parse_mask(text: str | None) -> AblationMask | None:
    if not text:
        return None
    try:
        return AblationMask.from_names(n.strip() for n in text.split(","))
    except KeyError as exc:
        raise ValueError(
            f"bad --mask: {exc.args[0]}; valid names: {', '.join(ATTRIBUTE_NAMES)}"
        ) from None


def _json_safe(x: float):
    """Keep reports standard JSON: non-finite floats become strings."""
    return x if math.isfinite(x) else repr(float(x))


def _fingerprints(**paths) -> dict:
    return {name: {"path": str(p), "sha256": sha256_file(p)} for name, p in paths.items()}


# The input files, flag -> help, each table in the order its files are loaded.
# A flag's dest (dashes as underscores) keys the file in the report's "inputs".
LABELED_INPUTS = {"embeddings": "embedding file", "manifest": "embedding manifest", "catalog": "catalog CSV"}
HEAD_INPUTS = {"checkpoint": "head checkpoint", **LABELED_INPUTS}
MATCH_INPUTS = {"visual-checkpoint": "visual head checkpoint", "language-checkpoint": "language head checkpoint",
                "visual": "visual embedding file", "visual-manifest": "visual embedding manifest",
                "scenarios": "scenario embedding file", "scenario-manifest": "scenario embedding manifest",
                "trials": "matching trials JSONL"}


def _add_inputs(p, table: dict, required: bool = True) -> None:
    for flag, text in table.items():
        p.add_argument("--" + flag, required=required, help=text)


def _input_paths(args, table: dict) -> dict:
    """``{dest: path}`` of a table's files; only ``ablate`` declares them optional."""
    paths = {flag.replace("-", "_"): flag for flag in table}
    missing = ["--" + flag for dest, flag in paths.items() if getattr(args, dest) is None]
    if missing:
        raise ValueError(f"ablate --which {args.which} requires {', '.join(missing)}")
    return {dest: getattr(args, dest) for dest in paths}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toolmatch",
        description="Train and evaluate attribute heads that align tool images "
        "and task scenarios in a shared 13-attribute space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synth", help="generate a deterministic synthetic dataset")
    p.add_argument("--tools", type=int, required=True, help="number of tool categories")
    p.add_argument("--preset", choices=sorted(SCENARIO_PRESETS), default="medium",
                   help="scenario counts per tool: small=10/3, medium=90/10, large=475/25")
    p.add_argument("--images", type=_int_pair, default=(90, 10), metavar="TRAIN,TEST",
                   help="visual items per tool (default 90,10)")
    p.add_argument("--dv", type=int, default=32, help="visual embedding dimension")
    p.add_argument("--dl", type=int, default=32, help="language embedding dimension")
    p.add_argument("--sigma", type=float, default=0.0, help="embedding noise scale")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(handler=_cmd_gen_synth, report_to_out=False)

    # An override flag without a default is absent unless given; its dest is
    # the HeadConfig.for_pathway keyword it overrides.
    p = sub.add_parser("train", help="train one attribute head", argument_default=argparse.SUPPRESS)
    p.add_argument("--pathway", choices=PATHWAYS, required=True)
    _add_inputs(p, LABELED_INPUTS)
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--seed", type=int, default=0)
    overrides = [
        p.add_argument("--lr", dest="learning_rate", type=float, help="override pathway default"),
        p.add_argument("--batch", dest="batch_size", type=int),
        p.add_argument("--epochs", dest="max_epochs", type=int),
        p.add_argument("--patience", type=int),
        p.add_argument("--val-fraction", dest="validation_fraction", type=float),
        p.add_argument("--hidden", dest="hidden_dims", type=_int_list, metavar="H1,H2,...", help="hidden widths"),
    ]
    p.set_defaults(handler=_cmd_train, overrides=[a.dest for a in overrides], report_to_out=False)

    for name, which, text in (("eval-attr", "attr", "attribute-wise accuracy of a trained head"),
                              ("eval-class", "class", "most-similar-class accuracy of a trained head"),
                              ("match", "matching", "tool selection accuracy over matching trials")):
        p = sub.add_parser(name, help=text)
        _add_inputs(p, MATCH_INPUTS if which == "matching" else HEAD_INPUTS)
        if which == "matching":
            p.add_argument("--metric", choices=sorted(METRIC_FLAGS), default="cosine")
        else:
            p.add_argument("--split", choices=("train", "test"), default="test")
        if which != "attr":
            p.add_argument("--clamp", action="store_true", help="clip predictions to [1,7] before scoring")
        p.add_argument("--mask", default=None, help="comma-separated attribute names to remove")
        p.add_argument("--out", default=None, help="write the report here instead of stdout")
        p.set_defaults(handler=_cmd_eval, which=which, report_to_out=True)

    p = sub.add_parser("ablate", help="single-attribute removal sweep over a metric")
    p.add_argument("--which", choices=("attr", "class", "matching"), required=True)
    _add_inputs(p.add_argument_group("attr and class sweeps (eval-class inputs)"), HEAD_INPUTS, required=False)
    p.add_argument("--split", choices=("train", "test"), default="test")
    _add_inputs(p.add_argument_group("matching sweep (match inputs)"), MATCH_INPUTS, required=False)
    p.add_argument("--metric", choices=sorted(METRIC_FLAGS), default="cosine")
    p.add_argument("--clamp", action="store_true")
    p.add_argument("--out", default=None, help="write the report here instead of stdout")
    p.set_defaults(handler=_cmd_ablate, report_to_out=True)

    p = sub.add_parser("gradcheck", help="finite-difference check of the head gradients")
    p.add_argument("--dims", type=_int_list, required=True, metavar="D0,D1,...,13")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--batch", type=int, default=4)
    p.add_argument("--h", type=float, default=1e-5, help="central-difference step")
    p.add_argument("--tol", type=float, default=GRADCHECK_TOLERANCE)
    p.add_argument("--out", default=None, help="write the report here instead of stdout")
    p.set_defaults(handler=_cmd_gradcheck, report_to_out=True)

    return parser


# ---------------------------------------------------------------------------
# Handlers: each returns (report dict, exit code)


def _cmd_gen_synth(args) -> tuple[dict, int]:
    spec = SyntheticSpec.preset(args.preset, args.tools, images_per_tool=args.images,
                                d_v=args.dv, d_l=args.dl, noise_sigma=args.sigma, seed=args.seed)
    dataset = generate(spec)
    paths = write_dataset(dataset, args.out)
    report = {
        "command": "gen-synth",
        "config": {**spec.to_dict(), "preset": args.preset, "out": str(args.out)},
        "inputs": {},
        "artifacts": _fingerprints(**{k: str(p) for k, p in paths.items()}),
        "counts": {
            "tools": len(dataset.catalog),
            "visual_items": len(dataset.visual),
            "scenario_items": len(dataset.scenario_embeddings),
            "trials": len(dataset.trials),
        },
    }
    return report, 0


def _read_labeled(paths: dict):
    """The embedding set and catalog of a labeled-embedding trio, tool ids checked."""
    embeddings = read_embeddings(paths["embeddings"], paths["manifest"])
    catalog = load_catalog(paths["catalog"])
    embeddings.check_tool_ids(catalog)
    return embeddings, catalog


def _check_width(trained, checkpoint, embeddings, path) -> None:
    if embeddings.dim != trained.config.layer_dims[0]:
        raise ValueError(f"embedding dimension {embeddings.dim} of {path} does not match input "
                         f"dimension {trained.config.layer_dims[0]} of checkpoint {checkpoint}")


def _cmd_train(args) -> tuple[dict, int]:
    paths = _input_paths(args, LABELED_INPUTS)
    embeddings, catalog = _read_labeled(paths)
    given = {name: getattr(args, name) for name in args.overrides if name in args}
    config = HeadConfig.for_pathway(args.pathway, embeddings.dim, seed=args.seed, **given)

    trained = train_head(embeddings, catalog, config)
    save_checkpoint(trained, args.out)
    report = {
        "command": "train",
        "config": config.to_dict(),
        "inputs": _fingerprints(**paths),
        "artifacts": _fingerprints(checkpoint=args.out),
        "training": {
            "best_validation_mse": _json_safe(trained.best_validation_mse),
            "epochs_run": trained.epochs_run,
            "final_train_mse": _json_safe(trained.training_log[-1][0]) if trained.training_log else None,
        },
    }
    return report, 0


def _evaluator(args):
    """Load the inputs of the ``args.which`` metric (attr, class or matching) once.

    Returns ``evaluate(mask) -> EvaluationReport``, the metric's configuration
    echo and the input fingerprints. Only ``match`` collects per-trial rankings.
    """
    if args.which == "matching":
        paths = _input_paths(args, MATCH_INPUTS)
        visual_head = load_checkpoint(args.visual_checkpoint)
        language_head = load_checkpoint(args.language_checkpoint)
        visual = read_embeddings(args.visual, args.visual_manifest)
        scenario_embeddings = read_embeddings(args.scenarios, args.scenario_manifest)
        trials = read_trials(args.trials)
        if not trials:
            raise ValueError(f"{args.trials}: no trials")
        inputs = _fingerprints(**paths)
        for field, ids, source, path in (
            ("scenario_item_id", [[t.scenario_item_id] for t in trials], scenario_embeddings, args.scenarios),
            ("candidate_item_ids", [t.candidate_item_ids for t in trials], visual, args.visual),
        ):
            absent = np.argwhere(~np.isin(ids, source.item_ids))
            if len(absent):
                row, col = absent[0]
                raise FormatError(f"{args.trials}: trial {trials[row].trial_id}: {field}: "
                                  f"item_id {ids[row][col]} not in {path}")
        _check_width(visual_head, args.visual_checkpoint, visual, args.visual)
        _check_width(language_head, args.language_checkpoint, scenario_embeddings, args.scenarios)
        # Each distinct item is predicted once, and the trials are gathered
        # once; every mask scores the same batch.
        batch = MatchingBatch.gather(trials, partial(predict_each, language_head, scenario_embeddings),
                                     partial(predict_each, visual_head, visual), args.clamp)

        def evaluate(mask):
            return matching_accuracy(batch, metric=METRIC_FLAGS[args.metric], mask=mask,
                                     collect_rankings=args.command == "match")

        heads = {"visual": visual_head.config.to_dict(), "language": language_head.config.to_dict()}
        return evaluate, {"metric": args.metric, "clamp": args.clamp, "heads": heads}, inputs

    paths = _input_paths(args, HEAD_INPUTS)
    trained = load_checkpoint(args.checkpoint)
    embeddings, catalog = _read_labeled(paths)
    _check_width(trained, args.checkpoint, embeddings, args.embeddings)
    items = embeddings.items(args.split)
    if not items:
        raise ValueError(f"no items in split {args.split!r}")
    inputs = _fingerprints(**paths)
    pred_rows = predict_each(trained, embeddings, items)
    if args.which == "attr":
        truths = [catalog.attributes_of(embeddings.tool_of(i)) for i in items]

        def evaluate(mask):
            return attribute_wise_accuracy(pred_rows, truths, mask)

    else:
        labeled = [(embeddings.tool_of(i), row) for i, row in zip(items, pred_rows)]

        def evaluate(mask):
            return most_similar_class_accuracy(labeled, catalog, mask, clamp=args.clamp)

    config = {"split": args.split}
    if "clamp" in args:  # eval-attr has no --clamp
        config["clamp"] = args.clamp
    config["head"] = trained.config.to_dict()
    return evaluate, config, inputs


def _cmd_eval(args) -> tuple[dict, int]:
    """eval-attr, eval-class and match: one metric under one mask."""
    evaluate, config, inputs = _evaluator(args)
    metric_report = evaluate(_parse_mask(args.mask))
    report = {
        "command": args.command,
        "config": {**config, "mask": args.mask or ""},
        "inputs": inputs,
        "report": metric_report.to_dict(),
    }
    return report, 0


def _cmd_ablate(args) -> tuple[dict, int]:
    evaluate, config, inputs = _evaluator(args)
    sweep = ablation_sweep(evaluate)
    report = {
        "command": "ablate",
        "config": {"which": args.which, **config},
        "inputs": inputs,
        "baseline": sweep["baseline"],
        "rows": sweep["rows"],
    }
    return report, 0


def _cmd_gradcheck(args) -> tuple[dict, int]:
    if args.batch < 1:
        raise ValueError("--batch must be at least 1")
    if not 0 < args.tol < math.inf:  # inf would pass any error, nan and 0 or less fail every one
        raise ValueError(f"--tol must be a positive finite number, got {args.tol}")
    master = SplitMix64(args.seed)
    head_seed, data_seed = master.child_seeds(2)
    head = init_head(args.dims, head_seed)
    rng = SplitMix64(data_seed)
    x = rng.normals(args.batch * args.dims[0]).reshape(args.batch, args.dims[0])
    # Targets sit near the model output so the loss is small; a large loss
    # drowns tiny true gradients in float64 cancellation noise and would make
    # the reported maximum meaningless.
    noise = rng.normals(args.batch * args.dims[-1]).reshape(args.batch, args.dims[-1])
    targets = head_forward(head, x) + 0.03 * noise
    error = gradcheck(head, x, targets, h=args.h)
    passed = error < args.tol
    report = {
        "command": "gradcheck",
        "config": {
            "dims": list(args.dims), "seed": args.seed, "batch": args.batch,
            "h": args.h, "tol": args.tol,
        },
        "inputs": {},
        "max_relative_error": error,
        "pass": passed,
    }
    return report, 0 if passed else 1


# ---------------------------------------------------------------------------
# Entry point


def _json_default(obj):
    # Stray numpy scalar in a report; unwrap rather than crash mid-emit.
    item = getattr(obj, "item", None)
    if callable(item):
        return item()
    raise TypeError(f"unserializable report value of type {type(obj).__name__}")


def _emit(report: dict, args) -> None:
    text = json.dumps(report, indent=2, default=_json_default)
    out = getattr(args, "out", None) if getattr(args, "report_to_out", False) else None
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        report, exit_code = args.handler(args)
        report["wall_time_s"] = time.perf_counter() - start
        _emit(report, args)
    except (ValueError, KeyError, OSError, FloatingPointError, TrainingDivergedError) as exc:
        error = {
            "error": {
                "type": type(exc).__name__,
                "module": type(exc).__module__,
                "message": str(exc),
            }
        }
        print(json.dumps(error, indent=2), file=sys.stderr)
        return 1
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
