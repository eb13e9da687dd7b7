"""Acceptance gate.

Each test covers one numbered acceptance criterion at its stated tolerance
and prints a single PASS/FAIL line (routed past pytest's capture so the
verdicts always appear in the run log).
"""

import json
import math
import time
from functools import partial

import numpy as np
import pytest

import conftest
from toolmatch.cli import main as cli_main
from toolmatch.domain import (
    ATTRIBUTE_NAMES,
    MatchingTrial,
    NUM_ATTRIBUTES,
    ToolCatalog,
    ToolRecord,
)
from toolmatch.evaluation import (
    MatchingBatch,
    attribute_wise_accuracy,
    matching_accuracy,
    most_similar_class_accuracy,
)
from toolmatch.formats import (
    CATALOG_HEADER,
    FormatError,
    load_catalog,
    load_checkpoint,
    read_embeddings,
    save_checkpoint,
    sha256_file,
    write_embeddings,
)
from toolmatch.nn import gradcheck, head_forward, init_head
from toolmatch.rng import SplitMix64
from toolmatch.similarity import (
    AblationMask,
    cosine_similarity,
    negative_euclidean,
    score_batch,
    select_tool,
)
from toolmatch.synthetic import SyntheticSpec, generate
from toolmatch.training import HeadConfig, predict_each, train_head


def verdict(criterion: int, passed: bool, detail: str) -> None:
    line = f"[criterion {criterion}] {'PASS' if passed else 'FAIL'}: {detail}"
    print(line, flush=True)  # shown for failures via captured stdout
    conftest.ACCEPTANCE_VERDICTS.append(line)


GRASP_INDEX = ATTRIBUTE_NAMES.index("graspability")


# ---------------------------------------------------------------------------
# 1. Gradient correctness


def test_criterion_1_gradient_correctness():
    """Max relative finite-difference error < 1e-4 over >= 20 runs spanning
    both head architectures at d in {8, 32}; under 60 s."""
    # More seeds go to the cheaper two-hidden-layer configs so the total
    # stays within budget while every architecture is covered.
    configs = [
        ((8, 256, 64, 13), 7),
        ((32, 256, 64, 13), 7),
        ((8, 256, 128, 64, 13), 3),
        ((32, 256, 128, 64, 13), 3),
    ]
    seeds = SplitMix64(11).child_seeds(sum(n for _, n in configs))
    start = time.perf_counter()
    worst = 0.0
    runs = 0
    it = iter(seeds)
    for dims, n_seeds in configs:
        for _ in range(n_seeds):
            run_rng = SplitMix64(next(it))
            head_seed, data_seed = run_rng.child_seeds(2)
            head = init_head(dims, head_seed)
            rng = SplitMix64(data_seed)
            x = rng.normals(2 * dims[0]).reshape(2, dims[0])
            # Targets near the model output keep the loss small; a large
            # loss drowns tiny gradients in float64 cancellation noise.
            targets = head_forward(head, x) + 0.03 * rng.normals(2 * 13).reshape(2, 13)
            worst = max(worst, gradcheck(head, x, targets, h=1e-5))
            runs += 1
    elapsed = time.perf_counter() - start
    passed = worst < 1e-4 and runs >= 20 and elapsed < 60.0
    verdict(1, passed, f"gradcheck worst={worst:.3e} (<1e-4) over {runs} runs in {elapsed:.1f}s (<60s)")
    assert runs >= 20
    assert worst < 1e-4
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 2. Noiseless recoverability


def test_criterion_2_noiseless_recoverability():
    """Preset small, sigma=0, 20 tools, d_v=32: trained visual head reaches
    attribute-wise and most-similar-class accuracy >= 0.99 on test; < 2 min."""
    start = time.perf_counter()
    spec = SyntheticSpec.preset(
        "small", n_tools=20, images_per_tool=(10, 3), d_v=32, noise_sigma=0.0, seed=2
    )
    ds = generate(spec)
    config = HeadConfig.for_pathway(
        "visual", ds.visual.dim,
        batch_size=4,  # paper-scale batch would see too few updates here
        max_epochs=200,
    )
    trained = train_head(ds.visual, ds.catalog, config)
    items = ds.visual.items("test")
    preds = list(predict_each(trained, ds.visual, items))
    truths = [ds.catalog.attributes_of(ds.visual.tool_of(i)) for i in items]
    attr = attribute_wise_accuracy(preds, truths).value
    labeled = [(ds.visual.tool_of(i), p) for i, p in zip(items, preds)]
    cls = most_similar_class_accuracy(labeled, ds.catalog).value
    elapsed = time.perf_counter() - start
    passed = attr >= 0.99 and cls >= 0.99 and elapsed < 120.0
    verdict(2, passed, f"attr={attr:.4f} class={cls:.4f} (>=0.99) in {elapsed:.1f}s (<2min)")
    assert attr >= 0.99
    assert cls >= 0.99
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# 3. End-to-end matching at scale


def test_criterion_3_end_to_end_matching():
    """115 tools, preset medium, sigma=0.3, both heads trained: matching
    accuracy over the 100 trials >= 0.90 under cosine, and the always-pick
    slot-0 baseline sits in [0.02, 0.20]; < 10 min."""
    start = time.perf_counter()
    spec = SyntheticSpec.preset(
        "medium", n_tools=115, images_per_tool=(10, 3), d_v=32, d_l=32,
        noise_sigma=0.3, seed=7,
    )
    ds = generate(spec)
    visual = train_head(ds.visual, ds.catalog, HeadConfig.for_pathway(
        "visual", ds.visual.dim, batch_size=4, max_epochs=40,
    ))
    language = train_head(ds.scenario_embeddings, ds.catalog, HeadConfig.for_pathway(
        "language", ds.scenario_embeddings.dim, batch_size=4, max_epochs=30,
    ))
    report = matching_accuracy(
        MatchingBatch.gather(ds.trials, partial(predict_each, language, ds.scenario_embeddings),
                             partial(predict_each, visual, ds.visual)),
        metric="cosine",
    )
    slot0 = sum(1 for t in ds.trials if t.target_position == 0) / len(ds.trials)
    elapsed = time.perf_counter() - start
    passed = (
        report.denominator == 100
        and report.value >= 0.90
        and 0.02 <= slot0 <= 0.20
        and elapsed < 600.0
    )
    verdict(
        3,
        passed,
        f"matching={report.value:.3f} ({report.numerator}/{report.denominator}, >=0.90) "
        f"slot0={slot0:.2f} (in [0.02,0.20]) in {elapsed:.0f}s (<10min)",
    )
    assert report.denominator == 100
    assert report.value >= 0.90
    assert 0.02 <= slot0 <= 0.20
    assert elapsed < 600.0


# ---------------------------------------------------------------------------
# 4. Scaling trend


def test_criterion_4_scaling_trend():
    """At sigma=0.6 the test attribute-wise accuracy over presets
    small/medium/large is non-decreasing within 2 percentage points, for
    each of 3 seeds."""
    tolerance = 0.02
    rows = {}
    for seed in (0, 1, 2):
        accs = []
        for preset in ("small", "medium", "large"):
            spec = SyntheticSpec.preset(
                preset, n_tools=12, images_per_tool=(2, 1), d_v=13, d_l=32,
                noise_sigma=0.6, seed=seed,
            )
            ds = generate(spec)
            config = HeadConfig.for_pathway(
                "language", ds.scenario_embeddings.dim, batch_size=4,
                max_epochs=40, seed=seed,
            )
            trained = train_head(ds.scenario_embeddings, ds.catalog, config)
            items = ds.scenario_embeddings.items("test")
            preds = list(predict_each(trained, ds.scenario_embeddings, items))
            truths = [
                ds.catalog.attributes_of(ds.scenario_embeddings.tool_of(i)) for i in items
            ]
            accs.append(attribute_wise_accuracy(preds, truths).value)
        rows[seed] = accs
    ok = all(
        accs[i + 1] >= accs[i] - tolerance
        for accs in rows.values()
        for i in range(len(accs) - 1)
    )
    detail = "; ".join(
        f"seed {s}: " + "->".join(f"{a:.3f}" for a in accs) for s, accs in rows.items()
    )
    verdict(4, ok, f"small->medium->large within 2pp: {detail}")
    assert ok


# ---------------------------------------------------------------------------
# 5. Ablation discriminability


def build_graspability_pair(seed=2, noise=0.2, trials_per_tool=50):
    """Two tools that differ only in graspability, 8 distinct fillers, and
    oracle predictions (truth + noise) for every trial item."""
    rng = SplitMix64(seed)
    low = np.full(13, 4.0)
    low[GRASP_INDEX] = 2.0
    high = np.full(13, 4.0)
    high[GRASP_INDEX] = 6.0
    tools = [ToolRecord(0, "pair_low", low), ToolRecord(1, "pair_high", high)]
    seen = {tuple(low), tuple(high)}
    for j in range(8):
        while True:
            vals = tuple(float(rng.randint(7) + 1) for _ in range(13))
            if vals not in seen:
                seen.add(vals)
                tools.append(ToolRecord(2 + j, f"filler_{j}", np.array(vals)))
                break
    catalog = ToolCatalog(tools)

    preds: dict[int, np.ndarray] = {}
    item_tool: dict[int, int] = {}
    counter = [0]

    def new_item(tool_id: int) -> int:
        iid = counter[0]
        counter[0] += 1
        preds[iid] = catalog.attributes_of(tool_id) + noise * rng.normals(13)
        item_tool[iid] = tool_id
        return iid

    trials = []
    for scen_tool, other in ((0, 1), (1, 0)):
        for _ in range(trials_per_tool):
            scen_item = new_item(scen_tool)
            cands = [new_item(scen_tool), new_item(other)] + [new_item(2 + j) for j in range(8)]
            order = list(range(10))
            rng.shuffle(order)
            shuffled = [cands[i] for i in order]
            trials.append(
                MatchingTrial(len(trials), scen_item, tuple(shuffled), shuffled.index(cands[0]))
            )
    return catalog, trials, preds


def oracle_select(query, candidates, mask_index):
    """Brute-force cosine argmax with masking and low-id tie-break."""
    def score(u, v):
        dims = [d for d in range(13) if d != mask_index]
        dot = math.fsum(u[d] * v[d] for d in dims)
        nu = math.sqrt(math.fsum(u[d] * u[d] for d in dims))
        nv = math.sqrt(math.fsum(v[d] * v[d] for d in dims))
        return dot / (nu * nv)

    best_id, best = None, -float("inf")
    for cid, vec in sorted(candidates):
        s = score(query, vec)
        if s > best:
            best_id, best = cid, s
    return best_id


def test_criterion_5_ablation_discriminability():
    """Removing graspability collapses matching on the constructed pair to
    <= 60% while every other single-attribute mask keeps it >= 90%; each
    trial's selection is verified against a brute-force oracle."""
    catalog, trials, preds = build_graspability_pair(seed=2)
    lookup = lambda ids: np.array([preds[i] for i in ids])
    batch = MatchingBatch.gather(trials, lookup, lookup)
    values = {}
    oracle_mismatches = 0
    for removed in [None] + list(range(NUM_ATTRIBUTES)):
        mask = None if removed is None else AblationMask([removed])
        report = matching_accuracy(batch, metric="cosine", mask=mask, collect_rankings=True)
        values[removed] = report.value
        mask_index = -1 if removed is None else removed
        for row in report.details["per_trial"]:
            trial = trials[row["trial_id"]]
            cands = [(iid, preds[iid]) for iid in trial.candidate_item_ids]
            want = oracle_select(preds[trial.scenario_item_id], cands, mask_index)
            if want != row["selected_item_id"]:
                oracle_mismatches += 1
    grasp = values[GRASP_INDEX]
    other_min = min(v for k, v in values.items() if k is not None and k != GRASP_INDEX)
    passed = grasp <= 0.60 and other_min >= 0.90 and values[None] >= 0.90 and oracle_mismatches == 0
    verdict(
        5,
        passed,
        f"graspability-masked={grasp:.2f} (<=0.60) other-mask min={other_min:.2f} (>=0.90) "
        f"oracle mismatches={oracle_mismatches}",
    )
    assert grasp <= 0.60
    assert other_min >= 0.90
    assert values[None] >= 0.90
    assert oracle_mismatches == 0


# ---------------------------------------------------------------------------
# 6. Metric oracles


def oracle_round(x: float) -> int:
    return int(math.floor(min(max(x, 1.0), 7.0) + 0.5))


def oracle_attr(preds, truths):
    num = den = 0
    for p, t in zip(preds, truths):
        for a, b in zip(p, t):
            den += 1
            num += int(oracle_round(float(a)) == int(oracle_round(float(b))))
    return num, den


def oracle_cosine(u, v):
    dot = math.fsum(float(a) * float(b) for a, b in zip(u, v))
    nu = math.sqrt(math.fsum(float(a) ** 2 for a in u))
    nv = math.sqrt(math.fsum(float(b) ** 2 for b in v))
    return dot / (nu * nv)


def oracle_class(labeled, catalog):
    num = 0
    for true_tool, vec in labeled:
        best_tool, best = None, -float("inf")
        for tool in catalog:
            s = oracle_cosine(vec, tool.attributes)
            if s > best:
                best_tool, best = tool.tool_id, s
        num += int(best_tool == true_tool)
    return num, len(labeled)


def oracle_matching(trials, preds):
    num = 0
    for trial in trials:
        q = preds[trial.scenario_item_id]
        best_id, best = None, -float("inf")
        for iid in sorted(trial.candidate_item_ids):
            s = oracle_cosine(q, preds[iid])
            if s > best:
                best_id, best = iid, s
        num += int(best_id == trial.target_item_id)
    return num, len(trials)


def test_criterion_6_metric_oracles():
    """All three accuracy metrics agree exactly (integer counts) with
    brute-force reimplementations over 100 randomized fixtures."""
    mismatches = []
    for fixture_seed in range(100):
        rng = SplitMix64(40_000 + fixture_seed)
        n_tools = 2 + rng.randint(9)          # 2..10
        n_items = 1 + rng.randint(20)         # 1..20
        tools = []
        for t in range(n_tools):
            attrs = np.array([float(rng.randint(7) + 1) for _ in range(13)])
            tools.append(ToolRecord(t, f"t{t}", attrs))
        catalog = ToolCatalog(tools)

        item_tool = {i: rng.randint(n_tools) for i in range(n_items)}
        preds = {
            i: catalog.attributes_of(item_tool[i]) + rng.normals(13) * rng.uniform(0.05, 2.0)
            for i in range(n_items)
        }
        pred_list = [preds[i] for i in range(n_items)]
        truth_list = [catalog.attributes_of(item_tool[i]) for i in range(n_items)]

        got = attribute_wise_accuracy(pred_list, truth_list)
        want = oracle_attr(pred_list, truth_list)
        if (got.numerator, got.denominator) != want:
            mismatches.append((fixture_seed, "attr", (got.numerator, got.denominator), want))

        labeled = [(item_tool[i], preds[i]) for i in range(n_items)]
        got = most_similar_class_accuracy(labeled, catalog)
        want = oracle_class(labeled, catalog)
        if (got.numerator, got.denominator) != want:
            mismatches.append((fixture_seed, "class", (got.numerator, got.denominator), want))

        if n_items >= 11:
            trials = []
            for trial_id in range(5):
                cand = rng.sample(list(range(n_items)), 10)
                target_pos = rng.randint(10)
                scenario = cand[target_pos]  # query an existing item's prediction
                trials.append(MatchingTrial(trial_id, scenario, tuple(cand), target_pos))
            lookup = lambda ids: np.array([preds[i] for i in ids])
            got = matching_accuracy(MatchingBatch.gather(trials, lookup, lookup))
            want = oracle_matching(trials, preds)
            if (got.numerator, got.denominator) != want:
                mismatches.append((fixture_seed, "matching", (got.numerator, got.denominator), want))

    passed = not mismatches
    verdict(6, passed, f"metric oracles exact over 100 fixture seeds; mismatches={len(mismatches)}")
    assert not mismatches, mismatches[:5]


# ---------------------------------------------------------------------------
# 7. Determinism end to end


def run_cli(capsys, *argv) -> dict:
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json.loads(captured.out)


def test_criterion_7_determinism(tmp_path, capsys):
    """gen-synth -> train -> match twice with identical seeds: byte-identical
    artifacts and identical reports modulo the wall-time field."""
    data = tmp_path / "data"
    ckpt_v = data / "visual_head.json"
    ckpt_l = data / "language_head.json"
    reports = {"gen": [], "train": [], "match": []}
    artifact_hashes = []
    checkpoint_hashes = []
    for _ in range(2):  # identical invocations, same paths
        reports["gen"].append(run_cli(
            capsys, "gen-synth", "--tools", "10", "--preset", "small",
            "--images", "2,1", "--dv", "13", "--dl", "13", "--sigma", "0.2",
            "--seed", "11", "--out", str(data),
        ))
        artifact_hashes.append(
            {k: v["sha256"] for k, v in reports["gen"][-1]["artifacts"].items()}
        )
        reports["train"].append(run_cli(
            capsys, "train", "--pathway", "visual",
            "--embeddings", str(data / "visual.femb"),
            "--manifest", str(data / "visual_manifest.jsonl"),
            "--catalog", str(data / "catalog.csv"),
            "--out", str(ckpt_v), "--hidden", "16", "--epochs", "5",
        ))
        run_cli(
            capsys, "train", "--pathway", "language",
            "--embeddings", str(data / "scenarios.femb"),
            "--manifest", str(data / "scenarios_manifest.jsonl"),
            "--catalog", str(data / "catalog.csv"),
            "--out", str(ckpt_l), "--hidden", "16", "--epochs", "5",
        )
        checkpoint_hashes.append((sha256_file(ckpt_v), sha256_file(ckpt_l)))
        reports["match"].append(run_cli(
            capsys, "match",
            "--visual-checkpoint", str(ckpt_v),
            "--language-checkpoint", str(ckpt_l),
            "--visual", str(data / "visual.femb"),
            "--visual-manifest", str(data / "visual_manifest.jsonl"),
            "--scenarios", str(data / "scenarios.femb"),
            "--scenario-manifest", str(data / "scenarios_manifest.jsonl"),
            "--trials", str(data / "trials.jsonl"),
        ))

    artifacts_equal = artifact_hashes[0] == artifact_hashes[1]
    checkpoints_equal = checkpoint_hashes[0] == checkpoint_hashes[1]

    def strip(report: dict) -> dict:
        out = dict(report)
        out.pop("wall_time_s", None)
        return out

    reports_equal = all(strip(reports[k][0]) == strip(reports[k][1]) for k in reports)
    passed = artifacts_equal and checkpoints_equal and reports_equal
    verdict(
        7,
        passed,
        f"byte-identical artifacts={artifacts_equal} checkpoints={checkpoints_equal} "
        f"reports-modulo-walltime={reports_equal}",
    )
    assert artifacts_equal
    assert checkpoints_equal
    assert reports_equal


# ---------------------------------------------------------------------------
# 8. Similarity invariants


def test_criterion_8_similarity_invariants():
    """Cosine positive-scale invariance and both-metric symmetry within
    1e-12 over 1e5 random pairs; exact-match selection always wins under
    negative_euclidean in 100 constructed cases."""
    # Pair i takes words 27i..27i+26 of one SplitMix64(8008) stream: a and b
    # from 13 normals each, then the scale from one uniform. Two generators
    # at the same seed read every word both ways and keep the ones each needs.
    pairs = 100_000
    normals = SplitMix64(8008).normals(27 * pairs).reshape(pairs, 27)
    a, b = normals[:, :13], normals[:, 13:26]
    lam = SplitMix64(8008).uniforms(27 * pairs, 1e-3, 1e3).reshape(pairs, 27)[:, 26:]
    cos_ab, cos_scaled = score_batch(a, np.stack([b, lam * b], axis=1), "cosine")[0].T
    cos_ba = score_batch(b, a[:, None], "cosine")[0][:, 0]
    euc_ab = score_batch(a, b[:, None], "negative_euclidean")[0][:, 0]
    euc_ba = score_batch(b, a[:, None], "negative_euclidean")[0][:, 0]
    worst_scale = float(np.abs(cos_scaled - cos_ab).max())
    worst_sym_cos = float(np.abs(cos_ba - cos_ab).max())
    worst_sym_euc = float(np.abs(euc_ab - euc_ba).max())
    # The one-pair functions are the batch's rows, bit for bit.
    for i in range(0, pairs, 997):
        assert cosine_similarity(a[i], b[i]) == cos_ab[i]
        assert cosine_similarity(a[i], lam[i, 0] * b[i]) == cos_scaled[i]
        assert cosine_similarity(b[i], a[i]) == cos_ba[i]
        assert negative_euclidean(a[i], b[i]) == euc_ab[i]
        assert negative_euclidean(b[i], a[i]) == euc_ba[i]
    exact_hits = 0
    for case in range(100):
        case_rng = SplitMix64(9000 + case)
        query = case_rng.uniforms(13, 1, 7)
        candidates = [(i, case_rng.uniforms(13, 1, 7)) for i in range(9)]
        winner_id = int(case_rng.randint(50)) + 20  # never the lowest id
        candidates.append((winner_id, query.copy()))
        selected, score = select_tool(query, candidates, metric="negative_euclidean")
        exact_hits += int(selected == winner_id and score == 0.0)
    passed = (
        worst_scale <= 1e-12
        and worst_sym_cos <= 1e-12
        and worst_sym_euc <= 1e-12
        and exact_hits == 100
    )
    verdict(
        8,
        passed,
        f"scale-dev={worst_scale:.1e} sym-dev cos={worst_sym_cos:.1e} "
        f"euclid={worst_sym_euc:.1e} (<=1e-12) exact-match {exact_hits}/100",
    )
    assert worst_scale <= 1e-12
    assert worst_sym_cos <= 1e-12
    assert worst_sym_euc <= 1e-12
    assert exact_hits == 100


# ---------------------------------------------------------------------------
# 9. Format robustness


def test_criterion_9_format_robustness(tmp_path):
    """Corrupted inputs are rejected with structured errors; a checkpoint
    round-trip preserves predictions bit for bit."""
    from toolmatch.domain import EmbeddingRecord

    failures = []

    emb_path, man_path = tmp_path / "e.femb", tmp_path / "m.jsonl"
    write_embeddings(
        [EmbeddingRecord(0, 0, "train", np.arange(4.0)),
         EmbeddingRecord(1, 0, "test", np.ones(4))],
        emb_path, man_path,
    )
    emb_path.write_bytes(emb_path.read_bytes()[:-3])
    try:
        read_embeddings(emb_path, man_path)
        failures.append("truncated embedding file accepted")
    except FormatError as exc:
        if "expected" not in str(exc) or "found" not in str(exc):
            failures.append(f"truncation error lacks detail: {exc}")

    cat_path = tmp_path / "c.csv"
    cols = CATALOG_HEADER.split(",")
    cols[2], cols[3] = cols[3], cols[2]
    cat_path.write_text(",".join(cols) + "\n" + ",".join(["0", "x"] + ["4.0"] * 13) + "\n")
    try:
        load_catalog(cat_path)
        failures.append("permuted catalog header accepted")
    except FormatError as exc:
        if "column 2" not in str(exc):
            failures.append(f"header error does not locate the column: {exc}")

    row = ["0", "x"] + ["4.0"] * 13
    row[2 + 8] = "0.5"  # force_requirement below scale
    cat_path.write_text(CATALOG_HEADER + "\n" + ",".join(row) + "\n")
    try:
        load_catalog(cat_path)
        failures.append("out-of-range rating accepted")
    except FormatError as exc:
        msg = str(exc)
        if "row 2" not in msg or "force_requirement" not in msg or "[1, 7]" not in msg:
            failures.append(f"range error lacks row/column/bounds: {exc}")

    ds = generate(SyntheticSpec(
        n_tools=10, images_per_tool=(3, 1), scenarios_per_tool=(2, 1),
        d_v=16, d_l=13, noise_sigma=0.1, seed=4,
    ))
    trained = train_head(ds.visual, ds.catalog, HeadConfig.for_pathway(
        "visual", 16, hidden_dims=(16,), max_epochs=5, batch_size=4,
    ))
    ckpt = tmp_path / "head.json"
    save_checkpoint(trained, ckpt)
    loaded = load_checkpoint(ckpt)
    probe = SplitMix64(77).normals(50 * 16).reshape(50, 16)
    before = head_forward(trained.head, probe)
    after = head_forward(loaded.head, probe)
    if not np.array_equal(before, after):
        failures.append("checkpoint round-trip changed predictions")

    passed = not failures
    verdict(9, passed, "rejects bad files with located errors; round-trip bit-exact"
            if passed else "; ".join(failures))
    assert not failures, failures
