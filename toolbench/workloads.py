"""The four workloads: train, select, sweep and ingest.

Each workload is a function of a :class:`Context`. It builds its inputs in
set-up, runs whole rounds of the same operations until the run's seconds are
spent, checks every output against :mod:`oracles`, and returns the same
end-to-end metric: ``items_per_s``, work items done per second inside
operations over the whole run. An operation is what a user of the workload
waits for: training the model (both heads), one tool-selection request, one
ablation study (all three sweeps), or one dataset generated and read back.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

import inputs
import oracles
from tracing import TIMED, Tracer
from toolmatch import cli, domain, formats, nn, rng, similarity, training

N_TOOLS = 115
WIDTH = 768  # ViT-B image and GPT-2 text embedding width
SIGMA = 0.5
VISUAL_PER_TOOL = (20, 2)  # (train, test) images per tool
LANGUAGE_PER_TOOL = (10, 4)  # (train, test) scenarios per tool
# Epoch budgets are pinned and patience exceeds them, so early stopping never
# fires. The learning rates are raised from the pathway defaults (1e-4,
# 5e-5) so that this budget reaches a fit worth checking; the work per
# sample does not depend on them.
VISUAL_EPOCHS, VISUAL_LR = 12, 2e-3
LANGUAGE_EPOCHS, LANGUAGE_LR = 2, 5e-4
MSE_FRACTION = 0.5  # held-out MSE must be at most this share of the constant predictor's
GRAD_PROBES = 24  # sampled coordinates per head for the finite-difference check
GRAD_STEP, GRAD_RTOL, GRAD_ATOL = 1e-5, 1e-4, 1e-8
GRAD_MIN_SMOOTH = 0.9  # share of probes whose step must cross no ReLU kink
REQUESTS_PER_ROUND = 1000  # the oracle checks a round's selections in one batch
TIE_MARGIN = 1e-9  # oracle top-two scores closer than this do not pin the argmax
SELECT_ACCURACY_FLOOR = 0.5  # chance is 1 in 10
N_TRIALS = 2000
SWEEPS = ("matching", "class", "attr")  # one ablation study
MASKS = 1 + inputs.NUM_ATTRIBUTES  # baseline plus each single-attribute removal
INGEST_IMAGES, INGEST_PRESET, INGEST_DIM = (40, 10), "small", 32
INGEST_SCENARIOS = (10, 3)  # the "small" preset


@dataclass
class Context:
    seed: int
    seconds: float
    work: Path
    clock_origin: Callable[[], float]
    tracer: Tracer | None = None
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    rounds: list[dict] = field(default_factory=list)
    traced_rounds: list[dict] = field(default_factory=list)
    setup_s: float = 0.0
    peak_rss_mib: float = 0.0
    busy_s: float = 0.0  # seconds inside operations in the current round

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def op(self, fn, *args):
        """Run one counted operation; returns (result or None, seconds)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception:  # a failing operation is counted, and the run goes on
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            result = None
        seconds = time.perf_counter() - start
        self.busy_s += seconds
        return result, seconds

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)

    def loop(self, round_fn) -> None:
        """Whole rounds while the next one, at the mean round time so far,
        still ends within the run's seconds (at least one). A traced run alternates
        untraced and traced rounds, so both see the same machine and the
        difference of their times is the tracing overhead."""
        self.setup_s = self.clock_origin()
        start = time.perf_counter()
        tracer = self.tracer
        if tracer:
            tracer.uninstall()
            tracer.phase = TIMED
        index = 0
        while True:
            traced = tracer is not None and index % 2 == 1
            if traced:
                tracer.install()
            (self.traced_rounds if traced else self.rounds).append(self._round(round_fn, index))
            if traced:
                tracer.uninstall()
            index += 1
            elapsed = time.perf_counter() - start
            if elapsed * (index + 1) / index > self.seconds and (tracer is None or self.traced_rounds):
                break
        self.peak_rss_mib = _peak_rss_mib()

    def _round(self, round_fn, index: int) -> dict:
        self.busy_s = 0.0
        out = round_fn(index)
        out["busy_s"] = self.busy_s
        return out


def _peak_rss_mib() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def job_metrics(ctx: Context) -> dict:
    """The end-to-end metric every workload reports, from rounds that record
    the ``items`` their operations completed and their ``op_ms``. Items are
    summed over the run, not taken as a median of rounds: the machine's speed
    wanders over tens of seconds, and a whole-run total averages its phases
    where a median picks one. The median operation time is printed apart."""
    items = sum(r["items"] for r in ctx.rounds)
    if any("op_ms" in r for r in ctx.rounds):
        print(f"median operation {median_of(ctx, 'op_ms'):.6g} ms over {len(ctx.rounds)} rounds", file=sys.stderr)
    return {"items_per_s": items / sum(r["busy_s"] for r in ctx.rounds)}


def median_of(ctx: Context, key: str) -> float:
    """Median over the untraced rounds of a per-round figure or list of figures."""
    values = [r[key] for r in ctx.rounds if key in r]
    return statistics.median(v for value in values for v in (value if isinstance(value, list) else [value]))


# ---------------------------------------------------------------------------
# Shared inputs for train, select and sweep


def build_dataset(ctx: Context, n_trials: int = 0) -> SimpleNamespace:
    """Generate, write, and read back through ``formats`` the benchmark's inputs."""
    seed = ctx.seed
    attributes = inputs.tool_attributes(inputs.rng_for(seed, 0), N_TOOLS)
    mix_v = inputs.mixer(inputs.rng_for(seed, 1), WIDTH)
    mix_l = inputs.mixer(inputs.rng_for(seed, 2), WIDTH)
    visual = inputs.items(inputs.rng_for(seed, 3), mix_v, attributes, VISUAL_PER_TOOL, SIGMA)
    language = inputs.items(inputs.rng_for(seed, 4), mix_l, attributes, LANGUAGE_PER_TOOL, SIGMA)
    w = ctx.work
    paths = SimpleNamespace(catalog=w / "catalog.csv", visual=w / "visual.femb",
                            visual_manifest=w / "visual_manifest.jsonl", scenarios=w / "scenarios.femb",
                            scenario_manifest=w / "scenarios_manifest.jsonl", trials=w / "trials.jsonl")
    inputs.write_catalog(paths.catalog, attributes)
    inputs.write_embeddings(paths.visual, paths.visual_manifest, visual)
    inputs.write_embeddings(paths.scenarios, paths.scenario_manifest, language)
    trial_rows = []
    if n_trials:
        trial_rows = inputs.trials(inputs.rng_for(seed, 5), n_trials, language, visual)
        inputs.write_trials(paths.trials, trial_rows)
    return SimpleNamespace(
        attributes=attributes, mix_l=mix_l, visual=visual, language=language, trial_rows=trial_rows,
        paths=paths,
        catalog=formats.load_catalog(paths.catalog),
        visual_set=formats.read_embeddings(paths.visual, paths.visual_manifest),
        language_set=formats.read_embeddings(paths.scenarios, paths.scenario_manifest),
    )


def head_configs(seed: int) -> dict[str, "training.HeadConfig"]:
    return {
        "visual": training.HeadConfig.for_pathway(
            "visual", WIDTH, learning_rate=VISUAL_LR, max_epochs=VISUAL_EPOCHS,
            patience=VISUAL_EPOCHS + 1, seed=seed),
        "language": training.HeadConfig.for_pathway(
            "language", WIDTH, learning_rate=LANGUAGE_LR, max_epochs=LANGUAGE_EPOCHS,
            patience=LANGUAGE_EPOCHS + 1, seed=seed),
    }


def fit_samples(per_tool: tuple[int, int]) -> int:
    """Items per epoch after the stratified validation carve-out (10 % per tool)."""
    n_train = per_tool[0]
    return (n_train - int(0.1 * n_train)) * N_TOOLS


def train_heads(ctx: Context, ds) -> dict[str, Path]:
    """Train both heads, save their checkpoints, and return the paths."""
    out = {}
    configs = head_configs(ctx.seed)
    for pathway, embeddings in (("visual", ds.visual_set), ("language", ds.language_set)):
        trained = training.train_head(embeddings, ds.catalog, configs[pathway])
        out[pathway] = ctx.work / f"{pathway}_head.json"
        formats.save_checkpoint(trained, out[pathway])
    return out


def head_fingerprint(trained) -> str:
    digest = hashlib.sha256()
    for p in trained.head.parameters():
        digest.update(p.tobytes())
    return digest.hexdigest()


def check_head(ctx: Context, ds, pathway: str, checkpoint: Path) -> None:
    """Held-out MSE against the constant predictor, and ``nn.head_backward``
    against finite differences of the oracle loss, both at the checkpoint."""
    layers = oracles.read_checkpoint_layers(checkpoint)
    items = ds.visual if pathway == "visual" else ds.language
    test = items.where("test")
    x = items.vectors[test].astype(np.float64)
    t = ds.attributes[items.tools[test]]
    held_out = oracles.mse(oracles.forward(layers, x), t)
    constant = oracles.constant_predictor_mse(t)
    ctx.check(held_out <= MSE_FRACTION * constant,
              f"{pathway} head: held-out MSE {held_out:.4f} above {MSE_FRACTION} x constant {constant:.4f}")
    print(f"{pathway} head: held-out MSE {held_out:.4f} = {held_out / constant:.3f} x constant", file=sys.stderr)

    head = formats.load_checkpoint(checkpoint).head
    xb, tb = x[:8], t[:8]
    analytic = nn.head_backward(head, xb, tb)
    names = ["W", "b", "gamma", "beta"]
    g = inputs.rng_for(ctx.seed, 7, 0 if pathway == "visual" else 1)
    coords, expected = [], []
    for group, grad in enumerate(analytic):
        layer, part = divmod(group, 4)
        for k in g.choice(grad.size, min(GRAD_PROBES, grad.size), replace=False):
            coords.append((layer, names[part], int(k)))
            expected.append(grad.reshape(-1)[k])
    numeric, smooth = oracles.finite_difference(layers, xb, tb, coords, GRAD_STEP)
    expected = np.array(expected)
    err = np.abs(numeric - expected) - (GRAD_ATOL + GRAD_RTOL * np.maximum(np.abs(numeric), np.abs(expected)))
    bad = np.flatnonzero((err > 0) & smooth)
    ctx.check(smooth.mean() >= GRAD_MIN_SMOOTH,
              f"{pathway} head: only {smooth.sum()} of {len(coords)} finite-difference probes are kink-free")
    ctx.check(len(bad) == 0, f"{pathway} head: head_backward disagrees with finite differences at "
              f"{[coords[i] for i in bad[:5]]} ({len(bad)} of {len(coords)} probes)")
    rel = np.abs(numeric - expected)[smooth] / np.maximum(np.abs(numeric), np.abs(expected))[smooth].clip(1e-12)
    print(f"{pathway} head: finite differences within {rel.max():.2e} relative over {smooth.sum()} "
          f"kink-free probes of {len(coords)}", file=sys.stderr)


# ---------------------------------------------------------------------------
# train


def run_train(ctx: Context) -> dict:
    ds = build_dataset(ctx)
    samples = fit_samples(VISUAL_PER_TOOL) * VISUAL_EPOCHS + fit_samples(LANGUAGE_PER_TOOL) * LANGUAGE_EPOCHS
    sets = {"visual": ds.visual_set, "language": ds.language_set}
    configs = head_configs(ctx.seed)
    # Warm-up: the first train_head call pays one-time start-up.
    training.train_head(ds.visual_set, ds.catalog, dataclasses.replace(configs["visual"], max_epochs=1))
    first: dict = {}
    prints: dict[str, set] = {"visual": set(), "language": set()}

    def fit_model():
        heads = {}
        for pathway in ("visual", "language"):
            with ctx.span(f"bench.train.{pathway}"):
                heads[pathway] = training.train_head(sets[pathway], ds.catalog, configs[pathway])
        return heads

    def round_fn(index):
        heads, seconds = ctx.op(fit_model)
        if heads is None:
            return {"items": 0}
        for pathway, trained in heads.items():
            first.setdefault(pathway, trained)
            prints[pathway].add(head_fingerprint(trained))
            ctx.check(trained.epochs_run == configs[pathway].max_epochs,
                      f"{pathway}: ran {trained.epochs_run} epochs, expected {configs[pathway].max_epochs}")
        return {"items": samples, "op_ms": seconds * 1e3}

    ctx.loop(round_fn)
    for pathway, trained in first.items():
        ctx.check(len(prints[pathway]) == 1, f"{pathway}: rounds trained {len(prints[pathway])} different heads")
        path = ctx.work / f"{pathway}_check.json"
        formats.save_checkpoint(trained, path)
        check_head(ctx, ds, pathway, path)
    return job_metrics(ctx)


# ---------------------------------------------------------------------------
# select


def run_select(ctx: Context) -> dict:
    ds = build_dataset(ctx)
    checkpoints = train_heads(ctx, ds)
    heads = {p: formats.load_checkpoint(path) for p, path in checkpoints.items()}
    layers = {p: oracles.read_checkpoint_layers(path) for p, path in checkpoints.items()}
    inventory = ds.visual.where("test")
    inventory_ids = ds.visual.ids[inventory]
    inventory_by_tool = ds.visual.by_tool("test")
    predict_candidate = training.predictor(heads["visual"], ds.visual_set)
    for iid in inventory_ids:  # the inventory is fixed, so its predictions are cached up front
        predict_candidate(int(iid))
    oracle_pred = dict(zip(inventory_ids.tolist(),
                           oracles.forward(layers["visual"], ds.visual.vectors[inventory].astype(np.float64))))
    tools = np.arange(N_TOOLS)
    tally = {"ambiguous": 0, "hits": 0, "requests": 0}

    def make_requests(index):
        g = inputs.rng_for(ctx.seed, 6, index)
        req_tools = g.integers(0, N_TOOLS, REQUESTS_PER_ROUND)
        vectors = (ds.attributes[req_tools] @ ds.mix_l.T
                   + SIGMA * g.standard_normal((REQUESTS_PER_ROUND, WIDTH))).astype(np.float32)
        first_id = 10_000_000 + index * REQUESTS_PER_ROUND
        ids = first_id + np.arange(REQUESTS_PER_ROUND)
        scenario_set = domain.EmbeddingSet(
            domain.EmbeddingRecord(item_id=int(i), tool_id=int(t), split="test", embedding=v.astype(np.float64))
            for i, t, v in zip(ids, req_tools, vectors))
        candidates, targets = [], []
        for t in req_tools:
            others = g.choice(tools[tools != t], inputs.CANDIDATES - 1, replace=False)
            cands = [int(g.choice(inventory_by_tool[int(t)]))] + [int(g.choice(inventory_by_tool[int(o)])) for o in others]
            candidates.append([cands[i] for i in g.permutation(inputs.CANDIDATES)])
            targets.append(cands[0])
        return ids, vectors, scenario_set, candidates, np.array(targets)

    def request(predict_scenario, scenario_id, cand_ids):
        query = predict_scenario(scenario_id)
        return similarity.select_tool(query, [(c, predict_candidate(c)) for c in cand_ids])[0]

    def round_fn(index):
        ids, vectors, scenario_set, candidates, targets = make_requests(index)
        predict_scenario = training.predictor(heads["language"], scenario_set)
        chosen, latencies = [], []
        for sid, cands in zip(ids.tolist(), candidates):
            if ctx.tracer:
                ctx.tracer.request_id = sid
            with ctx.span("bench.select.request"):
                selected, seconds = ctx.op(request, predict_scenario, sid, cands)
            latencies.append(seconds)
            chosen.append(-1 if selected is None else selected)
        if ctx.tracer:
            ctx.tracer.request_id = -1
        check_selections(ids, vectors, np.array(candidates), targets, np.array(chosen))
        return {"items": len(ids), "op_ms": [t * 1e3 for t in latencies]}

    def check_selections(ids, vectors, cand_ids, targets, chosen):
        queries = oracles.forward(layers["language"], vectors.astype(np.float64))
        cand_preds = np.stack([[oracle_pred[c] for c in row] for row in cand_ids.tolist()])
        best, top, second = oracles.cosine_argmax(queries, cand_preds, cand_ids)
        clear = ~(top - second < TIE_MARGIN)
        wrong = np.flatnonzero(clear & (chosen != best))
        ctx.check(len(wrong) == 0, f"select: {len(wrong)} selections differ from the oracle argmax, "
                  f"e.g. request {ids[wrong[:1]].tolist()}")
        tally["requests"] += len(ids)
        tally["ambiguous"] += int((~clear).sum())
        tally["hits"] += int((chosen == targets).sum())

    ctx.loop(round_fn)
    accuracy = tally["hits"] / tally["requests"]
    ctx.check(accuracy >= SELECT_ACCURACY_FLOOR,
              f"select: accuracy {accuracy:.3f} below the floor {SELECT_ACCURACY_FLOOR}")
    print(f"select: {tally['requests']} requests, accuracy {accuracy:.3f}, "
          f"{tally['ambiguous']} within the tie margin", file=sys.stderr)
    return job_metrics(ctx)


# ---------------------------------------------------------------------------
# sweep


def run_sweep(ctx: Context) -> dict:
    ds = build_dataset(ctx, N_TRIALS)
    checkpoints = train_heads(ctx, ds)
    p = ds.paths
    argv = {
        "matching": ["--visual-checkpoint", str(checkpoints["visual"]),
                     "--language-checkpoint", str(checkpoints["language"]),
                     "--visual", str(p.visual), "--visual-manifest", str(p.visual_manifest),
                     "--scenarios", str(p.scenarios), "--scenario-manifest", str(p.scenario_manifest),
                     "--trials", str(p.trials)],
        "class": ["--checkpoint", str(checkpoints["visual"]), "--embeddings", str(p.visual),
                  "--manifest", str(p.visual_manifest), "--catalog", str(p.catalog)],
    }
    argv["attr"] = argv["class"]
    n_items = len(ds.visual.where("test"))
    evaluations = (N_TRIALS + 2 * n_items) * MASKS  # per study: trials, then items twice, each x masks
    reports: dict[str, set] = {which: set() for which in argv}

    def ablate(which, out):
        code = cli.main(["ablate", "--which", which, *argv[which], "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"ablate --which {which} exited with {code}")
        return json.loads(out.read_text(encoding="utf-8"))

    ablate("attr", ctx.work / "warmup.json")

    def study():
        out = {}
        for which in SWEEPS:
            with ctx.span(f"bench.sweep.{which}"):
                out[which] = ablate(which, ctx.work / f"{which}.json")
        return out

    def round_fn(index):
        study_reports, seconds = ctx.op(study)
        if study_reports is None:
            return {"items": 0}
        for which, report in study_reports.items():
            rows = [(report["baseline"]["numerator"], report["baseline"]["denominator"])]
            rows += [(r["numerator"], r["denominator"]) for r in report["rows"]]
            reports[which].add(json.dumps(rows))
        return {"items": evaluations, "op_ms": seconds * 1e3}

    ctx.loop(round_fn)
    check_sweeps(ctx, ds, checkpoints, reports)
    return job_metrics(ctx)


def check_sweeps(ctx: Context, ds, checkpoints, reports) -> None:
    """Recount every row of every sweep with the oracles."""
    vis_layers = oracles.read_checkpoint_layers(checkpoints["visual"])
    lang_layers = oracles.read_checkpoint_layers(checkpoints["language"])
    test = ds.visual.where("test")
    item_preds = oracles.forward(vis_layers, ds.visual.vectors[test].astype(np.float64))
    item_tools = ds.visual.tools[test]
    pred_of = dict(zip(ds.visual.ids[test].tolist(), item_preds))
    trials = ds.trial_rows
    cand_ids = np.array([t["candidate_item_ids"] for t in trials])
    targets = np.array([t["candidate_item_ids"][t["target_position"]] for t in trials])
    scen_rows = np.searchsorted(ds.language.ids, [t["scenario_item_id"] for t in trials])
    queries = oracles.forward(lang_layers, ds.language.vectors[scen_rows].astype(np.float64))
    cand_preds = np.stack([[pred_of[c] for c in row] for row in cand_ids])
    truth_int = oracles.round_half_up_clamped(ds.attributes[item_tools])
    pred_int = oracles.round_half_up_clamped(item_preds)
    frac = np.abs(np.clip(item_preds, 1.0, 7.0) % 1.0 - 0.5)
    near_half = (frac < TIE_MARGIN) & (item_preds > 1.0) & (item_preds < 7.0)

    expected: dict[str, list[tuple[int, int, int]]] = {"matching": [], "class": [], "attr": []}
    for removed in [None, *range(inputs.NUM_ATTRIBUTES)]:
        keep = np.array([j for j in range(inputs.NUM_ATTRIBUTES) if j != removed])
        best, top, second = oracles.cosine_argmax(queries, cand_preds, cand_ids, keep)
        unclear = top - second < TIE_MARGIN
        hit = best == targets
        expected["matching"].append((int((hit & ~unclear).sum()), int((hit | unclear).sum()), len(trials)))
        best, top, second = oracles.cosine_argmax(item_preds, ds.attributes, np.arange(N_TOOLS), keep)
        unclear = top - second < TIE_MARGIN
        hit = best == item_tools
        expected["class"].append((int((hit & ~unclear).sum()), int((hit | unclear).sum()), len(test)))
        match = pred_int[:, keep] == truth_int[:, keep]
        unclear = near_half[:, keep]
        expected["attr"].append((int((match & ~unclear).sum()), int((match | unclear).sum()), match.size))

    for which, seen in reports.items():
        ctx.check(len(seen) == 1, f"sweep {which}: {len(seen)} different reports across rounds")
        for rows in seen:
            for mask, ((num, den), (lo, hi, want_den)) in enumerate(zip(json.loads(rows), expected[which])):
                ctx.check(lo <= num <= hi and den == want_den,
                          f"sweep {which} row {mask}: program {num}/{den}, oracle [{lo}, {hi}]/{want_den}")


# ---------------------------------------------------------------------------
# ingest


def run_ingest(ctx: Context) -> dict:
    out_dir = ctx.work / "synth"
    seed = ctx.seed % (1 << 63)
    argv = ["gen-synth", "--tools", str(N_TOOLS), "--preset", INGEST_PRESET,
            "--images", ",".join(map(str, INGEST_IMAGES)), "--dv", str(INGEST_DIM), "--dl", str(INGEST_DIM),
            "--sigma", str(SIGMA), "--seed", str(seed), "--out", str(out_dir)]
    n_visual = N_TOOLS * sum(INGEST_IMAGES)
    n_scenarios = N_TOOLS * sum(INGEST_SCENARIOS)
    fingerprints: set[str] = set()
    loaded = {}

    def generate():
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"gen-synth exited with {code}")
        return json.loads(stdout.getvalue())

    def read_back():
        d = out_dir
        return {"catalog": formats.load_catalog(d / "catalog.csv"),
                "visual": formats.read_embeddings(d / "visual.femb", d / "visual_manifest.jsonl"),
                "scenarios": formats.read_embeddings(d / "scenarios.femb", d / "scenarios_manifest.jsonl"),
                "trials": formats.read_trials(d / "trials.jsonl"),
                "scenario_records": formats.read_scenarios(d / "scenarios.jsonl")}

    def ingest():
        with ctx.span("bench.ingest.generate"):
            report = generate()
        with ctx.span("bench.ingest.read"):
            return report, read_back()

    def round_fn(index):
        done, seconds = ctx.op(ingest)
        if done is None:
            return {"items": 0}
        report, read = done
        fingerprints.add(json.dumps({k: v["sha256"] for k, v in report["artifacts"].items()}))
        loaded.setdefault("first", read)
        return {"items": n_visual + n_scenarios, "op_ms": seconds * 1e3}

    ctx.loop(round_fn)
    ctx.check(len(fingerprints) == 1, f"ingest: {len(fingerprints)} different datasets from one seed")
    if "first" in loaded:
        check_ingest(ctx, out_dir, loaded["first"], {"visual": n_visual, "scenarios": n_scenarios})
    return job_metrics(ctx)


def check_ingest(ctx: Context, out_dir: Path, read: dict, counts: dict[str, int]) -> None:
    attributes = inputs.read_catalog(out_dir / "catalog.csv")
    ctx.check(np.array_equal(attributes, read["catalog"].attribute_matrix()),
              "ingest: catalog differs between the oracle reader and formats")
    tool_of = {}
    per_tool = {"visual": sum(INGEST_IMAGES), "scenarios": sum(INGEST_SCENARIOS)}
    for name in ("visual", "scenarios"):
        path = out_dir / f"{name}.femb"
        ids, vectors = inputs.read_embeddings(path)
        ctx.check(len(ids) == counts[name] and path.stat().st_size == inputs.femb_length(counts[name], INGEST_DIM),
                  f"ingest: {path.name} holds {len(ids)} records in {path.stat().st_size} bytes")
        manifest = inputs.read_jsonl(out_dir / f"{name}_manifest.jsonl")
        tools = np.array([m["tool_id"] for m in manifest])
        tool_of[name] = dict(zip((m["item_id"] for m in manifest), tools.tolist()))
        program = read[name]
        same = all(np.array_equal(program.vector(int(i)), v.astype(np.float64)) and program.tool_of(int(i)) == tool_of[name][int(i)]
                   for i, v in zip(ids, vectors))
        ctx.check(same, f"ingest: {path.name} decodes differently in formats and the oracle reader")
        row_tools = np.array([tool_of[name][int(i)] for i in ids])
        n = per_tool[name]
        means = np.stack([vectors[row_tools == t].astype(np.float64).mean(axis=0) for t in range(N_TOOLS)])
        mean_d = np.linalg.norm(means[:, None] - means[None], axis=-1)
        attr_d = np.linalg.norm(attributes[:, None] - attributes[None], axis=-1)
        worst = float(np.abs(mean_d - attr_d).max())
        bound = oracles.norm_bound(INGEST_DIM, SIGMA, n)
        ctx.check(worst <= bound, f"ingest: {name} tool-mean distances off by {worst:.4f} > {bound:.4f}")
        resid = vectors.astype(np.float64) - means[row_tools]
        var = float((resid * resid).sum() / (N_TOOLS * (n - 1) * INGEST_DIM))
        tol = 8.0 * np.sqrt(2.0 / (N_TOOLS * (n - 1) * INGEST_DIM))
        ctx.check(abs(var / SIGMA**2 - 1.0) <= tol,
                  f"ingest: {name} within-tool variance {var:.5f}, expected {SIGMA**2} within {tol:.4f} relative")
    trials = inputs.read_jsonl(out_dir / "trials.jsonl")
    ctx.check(len(trials) == len(read["trials"]) and len(trials) > 0, "ingest: trial count differs")
    for t in trials:
        want = tool_of["scenarios"][t["scenario_item_id"]]
        cand_tools = [tool_of["visual"][c] for c in t["candidate_item_ids"]]
        ok = cand_tools[t["target_position"]] == want and cand_tools.count(want) == 1
        ctx.check(ok, f"ingest: trial {t['trial_id']} target/distractor tools {cand_tools} vs scenario tool {want}")
    stream = rng.SplitMix64(1234567)
    ctx.check([stream.next_u64() for _ in oracles.SPLITMIX64_1234567] == list(oracles.SPLITMIX64_1234567),
              "ingest: SplitMix64(1234567) departs from the published sequence")
    stream = rng.SplitMix64(ctx.seed)
    ctx.check([stream.next_u64() for _ in range(8)] == oracles.splitmix64(ctx.seed, 8),
              f"ingest: SplitMix64({ctx.seed}) departs from the oracle")


WORKLOADS = {"train": run_train, "select": run_select, "sweep": run_sweep, "ingest": run_ingest}
