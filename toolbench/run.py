"""toolmatch benchmark: one workload per run, last stdout line is the result.

    python3 toolbench/run.py --workload train|select|sweep|ingest \\
        --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src/``. With
``--trace 0`` the result carries the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a traced run (see README.md in this directory).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

_T0 = time.perf_counter()
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

END_TO_END = {  # name: unit; every workload reports every one
    "setup_s": "s", "peak_rss_mib": "MiB", "items_per_s": "items/s",
}
PER_LAYER = [  # (name, unit)
    ("nn.loss_and_grads.s", "s"), ("nn.loss_and_grads.calls", "count"), ("nn.loss_and_grads.rows", "rows"),
    ("nn.adam_update.s", "s"), ("nn.adam_update.calls", "count"),
    ("nn.head_forward.s", "s"), ("nn.head_forward.calls", "count"), ("nn.head_forward.rows", "rows"),
    ("rng.shuffle.s", "s"), ("rng.shuffle.calls", "count"),
    ("rng.normals.s", "s"), ("rng.normals.variates", "count"),
    ("training.train_head.self_s", "s"),
    ("training.predictor.hits", "count"), ("training.predictor.misses", "count"),
    ("training.predictor.hit_ratio", "ratio"),
    ("similarity.rank_candidates.s", "s"), ("similarity.rank_candidates.calls", "count"),
    ("similarity.cosine_similarity.s", "s"), ("similarity.cosine_similarity.calls", "count"),
    ("evaluation.matching_accuracy.self_s", "s"),
    ("evaluation.most_similar_class_accuracy.self_s", "s"),
    ("evaluation.attribute_wise_accuracy.s", "s"),
    ("formats.read_embeddings.s", "s"), ("formats.read_embeddings.bytes", "bytes"),
    ("formats.load_checkpoint.s", "s"),
    ("formats.write_embeddings.s", "s"), ("formats.write_embeddings.bytes", "bytes"),
    ("formats.sha256_file.s", "s"), ("formats.sha256_file.bytes", "bytes"),
    ("domain.EmbeddingSet.s", "s"), ("domain.EmbeddingSet.matrix.s", "s"), ("domain.EmbeddingSet.matrix.rows", "rows"),
    ("synthetic.generate.self_s", "s"), ("synthetic.write_dataset.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.spans", "count"), ("trace.overhead_s", "s"), ("trace.overhead_share", "ratio"),
]


def process_age() -> float:
    """Seconds since this process started, from the kernel's start time when
    it is readable (10 ms resolution), else since this module was loaded."""
    fallback = time.perf_counter() - _T0
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError, AttributeError):
        return fallback
    return age if fallback <= age < fallback + 5.0 else fallback


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["train", "select", "sweep", "ingest"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def import_program():
    """Import toolmatch from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "toolmatch" / "__init__.py").is_file():
        raise SystemExit(f"toolbench: no toolmatch sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))
    import toolmatch
    if Path(toolmatch.__file__).resolve().parent != (src / "toolmatch").resolve():
        raise SystemExit(f"toolbench: imported toolmatch from {toolmatch.__file__}, not {src}")


def layer_metrics(ctx) -> dict:
    import tracing

    tracer = ctx.tracer
    rounds = len(ctx.traced_rounds)
    totals = tracer.totals(rounds)
    timed = tracer.counts[1]
    calls = timed["training.predictor.hits"] + timed["training.predictor.misses"]
    totals["training.predictor.hit_ratio"] = timed["training.predictor.hits"] / calls if calls else 0.0
    setup_spans = int((tracer.arrays()["phase"] == tracing.SETUP).sum())
    totals["trace.spans"] = setup_spans + (len(tracer.start) - setup_spans) / max(rounds, 1)
    untraced = statistics.median(r["busy_s"] for r in ctx.rounds)
    traced = statistics.median(r["busy_s"] for r in ctx.traced_rounds)
    totals["trace.overhead_s"] = traced - untraced
    totals["trace.overhead_share"] = (traced - untraced) / untraced
    return {name: (totals.get(name, 0.0), unit) for name, unit in PER_LAYER}


def main(argv=None) -> int:
    args = parse_args(argv)
    # numpy's BLAS pool: never more threads than the CPUs this process may use.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", str(len(os.sched_getaffinity(0))))
    import_program()
    import tracing
    import workloads

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install_layer_spans(tracer)
        tracer.install()
    (BENCH_DIR / "work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BENCH_DIR / "work"))
    ctx = workloads.Context(seed=args.seed, seconds=args.seconds, work=work, clock_origin=process_age, tracer=tracer)
    try:
        metrics = workloads.WORKLOADS[args.workload](ctx)
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    for message in ctx.errors:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    if tracer:
        tracer.write(BENCH_DIR / "traces" / f"{args.workload}.npz")
        result = layer_metrics(ctx)
        totals = tracer.totals(len(ctx.traced_rounds))
        top = sorted((k for k in totals if k.endswith(".self_s")), key=totals.get, reverse=True)[:6]
        print(f"{args.workload} top self time per set-up + round: "
              + ", ".join(f"{k[:-len('.self_s')]} {totals[k]:.3f} s" for k in top))
    else:
        result = {"setup_s": ctx.setup_s, "peak_rss_mib": ctx.peak_rss_mib, **metrics}
        if result.keys() != END_TO_END.keys():
            raise SystemExit(f"toolbench: {args.workload} reported {sorted(result)}, not {sorted(END_TO_END)}")
        result = {name: (value, END_TO_END[name]) for name, value in result.items()}
    for name, (value, unit) in result.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} attempted = {ctx.attempted}, failed = {ctx.failed}, rounds = {len(ctx.rounds)}"
          f"{f' + {len(ctx.traced_rounds)} traced' if tracer else ''}")
    print(json.dumps({"correct": not ctx.errors, "attempted": ctx.attempted, "failed": ctx.failed,
                      "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
