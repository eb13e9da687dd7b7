"""Accuracy metrics against small hand-counted fixtures."""

import json
import math

import numpy as np
import pytest

from toolmatch.domain import ATTRIBUTE_NAMES, NUM_ATTRIBUTES, MatchingTrial, ToolCatalog, ToolRecord
from toolmatch.evaluation import (
    EvaluationReport,
    MatchingBatch,
    ablation_sweep,
    attribute_wise_accuracy,
    clamp_vector,
    matching_accuracy,
    most_similar_class_accuracy,
    round_half_up_clamped,
)
from toolmatch.rng import SplitMix64
from toolmatch.similarity import AblationMask, SimilarityError, rank_candidates, select_tool


def match(trials, predict_scenarios, predict_candidates, clamp=False, **kwargs):
    """``matching_accuracy`` over the trials gathered through the two lookups."""
    return matching_accuracy(MatchingBatch.gather(trials, predict_scenarios, predict_candidates, clamp), **kwargs)


def rows_of(vectors):
    """A batch lookup over an id -> vector dict: ids -> (len(ids), 13) rows."""
    return lambda ids: np.array([vectors[i] for i in ids])


ROUNDING_CASES = [
    (3.5, 4),    # halves round up
    (2.49, 2),
    (2.5, 3),
    (6.5, 7),
    (4.4999999, 4),
    (1.0, 1),
    (7.0, 7),
    (7.2, 7),    # clamped into range first
    (9e9, 7),
    (0.3, 1),
    (-100.0, 1),
]


class TestRounding:
    @pytest.mark.parametrize("x,want", ROUNDING_CASES)
    def test_values(self, x, want):
        got = round_half_up_clamped(np.array([x]))
        assert got.tolist() == [want] and got.dtype == np.int64
        # The same rule applied to every case at once, as one array.
        xs, wants = zip(*ROUNDING_CASES)
        assert round_half_up_clamped(np.array(xs)).tolist() == list(wants)

    def test_non_finite_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="non-finite"):
                round_half_up_clamped(np.array([4.0, bad]))
        with pytest.raises(ValueError, match="non-finite value nan"):
            round_half_up_clamped(np.array([[3.0, 4.0], [math.nan, 5.0]]))

    def test_clamp_vector(self):
        out = clamp_vector(np.array([0.0, 8.0, 3.5]))
        assert list(out) == [1.0, 7.0, 3.5]


def catalog3():
    # Cosine is scale-invariant, so the three vectors must differ in
    # direction, not just magnitude. Rope differs from mallet only at the
    # spiky attribute (index 1).
    rows = [
        ToolRecord(0, "mallet", np.full(13, 5.0)),
        ToolRecord(1, "pillow", np.array([2.0, 2, 6, 6, 6, 2, 2, 2, 2, 2, 2, 2, 2])),
        ToolRecord(2, "rope", np.array([5.0, 1, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5])),
    ]
    return ToolCatalog(rows)


class TestAttributeWise:
    def test_hand_counted_fixture(self):
        # Sample 0: all 13 match. Sample 1: attribute 0 off by one rounded
        # step, the rest match. 25 of 26 cells.
        truth = [np.full(13, 3.0), np.full(13, 5.0)]
        pred0 = np.full(13, 3.4)          # rounds to 3 everywhere
        pred1 = np.full(13, 4.6)          # rounds to 5 everywhere
        pred1 = pred1.copy()
        pred1[0] = 4.2                    # rounds to 4, truth is 5
        report = attribute_wise_accuracy([pred0, pred1], truth)
        assert report.numerator == 25
        assert report.denominator == 26
        assert report.value == 25 / 26

    def test_per_attribute_breakdown(self):
        truth = [np.full(13, 3.0), np.full(13, 5.0)]
        preds = [np.full(13, 3.0), np.full(13, 5.0)]
        preds[1] = preds[1].copy()
        preds[1][4] = 1.0
        report = attribute_wise_accuracy(preds, truth)
        rows = {r["attribute"]: r for r in report.per_attribute}
        assert len(rows) == 13
        assert rows["texturedness"]["numerator"] == 1   # attribute index 4
        assert rows["elongation"]["numerator"] == 2
        assert all(r["denominator"] == 2 for r in report.per_attribute)
        assert report.numerator == 25

    def test_truth_rounded_with_same_rule(self):
        # Non-integral rating averages in the truth follow half-up too.
        report = attribute_wise_accuracy([np.full(13, 5.0)], [np.full(13, 4.5)])
        assert report.value == 1.0
        report = attribute_wise_accuracy([np.full(13, 4.0)], [np.full(13, 4.5)])
        assert report.value == 0.0

    def test_predictions_clamped_into_scale(self):
        report = attribute_wise_accuracy([np.full(13, 11.0)], [np.full(13, 7.0)])
        assert report.value == 1.0

    def test_mask_restricts_columns(self):
        truth = [np.full(13, 3.0)]
        pred = np.full(13, 3.0)
        pred = pred.copy()
        pred[6] = 6.0
        full = attribute_wise_accuracy([pred], truth)
        masked = attribute_wise_accuracy([pred], truth, mask=AblationMask([6]))
        assert full.numerator == 12 and full.denominator == 13
        assert masked.numerator == 12 and masked.denominator == 12
        assert len(masked.per_attribute) == 12
        assert all(r["attribute"] != "graspability" for r in masked.per_attribute)

    def test_array_and_list_give_the_same_report(self):
        # An (n, 13) array, as predict_each returns it, reads as the list of its rows.
        rng = np.random.default_rng(5)
        preds = rng.uniform(0.0, 8.0, size=(6, 13))
        truths = rng.integers(1, 8, size=(6, 13)).astype(np.float64)
        for mask in (None, AblationMask([3, 11])):
            want = attribute_wise_accuracy(list(preds), list(truths), mask).to_dict()
            assert attribute_wise_accuracy(preds, truths, mask).to_dict() == want
        with pytest.raises(ValueError, match="at least one"):
            attribute_wise_accuracy(np.zeros((0, 13)), np.zeros((0, 13)))

    def test_errors(self):
        with pytest.raises(ValueError, match="at least one"):
            attribute_wise_accuracy([], [])
        with pytest.raises(ValueError, match="predictions but"):
            attribute_wise_accuracy([np.zeros(13)], [])
        with pytest.raises(ValueError, match="columns"):
            attribute_wise_accuracy([np.zeros(12)], [np.zeros(12)])

    def test_report_value_guard(self):
        report = EvaluationReport("x", 0, 0)
        with pytest.raises(ValueError, match="denominator"):
            _ = report.value


class TestClassAccuracy:
    def test_perfect_predictions(self):
        catalog = catalog3()
        preds = [(t.tool_id, t.attributes + 0.05) for t in catalog]
        report = most_similar_class_accuracy(preds, catalog)
        assert (report.numerator, report.denominator) == (3, 3)

    def test_one_wrong(self):
        catalog = catalog3()
        preds = [
            (0, catalog.get(0).attributes.copy()),
            (1, np.full(13, 5.05)),   # parallel to mallet, labeled pillow
            (2, catalog.get(2).attributes.copy()),
        ]
        report = most_similar_class_accuracy(preds, catalog)
        assert report.value == pytest.approx(2 / 3)

    def test_tie_goes_to_lower_tool_id(self):
        rows = [
            ToolRecord(3, "left", np.full(13, 5.0)),
            ToolRecord(8, "right", np.full(13, 5.0)),
        ]
        catalog = ToolCatalog(rows)
        report = most_similar_class_accuracy([(3, np.full(13, 5.0))], catalog)
        assert report.value == 1.0
        report = most_similar_class_accuracy([(8, np.full(13, 5.0))], catalog)
        assert report.value == 0.0

    def test_unscorable_prediction_counted_incorrect(self):
        catalog = catalog3()
        good = catalog.get(1).attributes + 0.01
        report = most_similar_class_accuracy([(0, np.zeros(13)), (1, good)], catalog)
        assert (report.numerator, report.denominator) == (1, 2)
        assert report.details["failed_items"] == [0]

    def test_failed_items_are_positions_not_tools(self):
        report = most_similar_class_accuracy([(2, np.zeros(13)), (2, np.zeros(13))], catalog3())
        assert (report.numerator, report.denominator) == (0, 2)
        assert report.details["failed_items"] == [0, 1]

    def test_clamp_rescues_zero_vector(self):
        # Clamping lifts the zero vector to all-ones, which is parallel to
        # the constant mallet vector, so the item even scores correct.
        catalog = catalog3()
        report = most_similar_class_accuracy([(0, np.zeros(13))], catalog, clamp=True)
        assert "failed_items" not in report.details
        assert (report.numerator, report.denominator) == (1, 1)

    def test_mask_changes_nearest_class(self):
        # Rope is identified only by its low spiky rating (index 1). With
        # that column removed, rope and mallet are both constant vectors; the
        # cosine tie resolves to the lower tool id, away from the true class.
        catalog = catalog3()
        pred = catalog.get(2).attributes.copy()
        full = most_similar_class_accuracy([(2, pred)], catalog)
        assert full.value == 1.0
        masked = most_similar_class_accuracy([(2, pred)], catalog, mask=AblationMask([1]))
        assert masked.value == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            most_similar_class_accuracy([], catalog3())


def make_trial(trial_id, scenario_item, candidates, target_pos):
    return MatchingTrial(
        trial_id=trial_id,
        scenario_item_id=scenario_item,
        candidate_item_ids=tuple(candidates),
        target_position=target_pos,
    )


class TestMatching:
    def setup_method(self):
        # Item 100 is the scenario. Candidate 0 sits on top of the scenario
        # vector; candidates 1..9 point elsewhere.
        self.vectors = {100: np.full(13, 5.0), 0: np.full(13, 5.0)}
        for i in range(1, 10):
            v = np.full(13, 2.0)
            v[i % 13] = 7.0
            self.vectors[i] = v
        self.lookup = rows_of(self.vectors)

    def test_correct_trial(self):
        trial = make_trial(0, 100, range(10), 0)
        report = match([trial], self.lookup, self.lookup)
        assert (report.numerator, report.denominator) == (1, 1)

    def test_wrong_target_position(self):
        trial = make_trial(0, 100, range(10), 3)
        report = match([trial], self.lookup, self.lookup)
        assert (report.numerator, report.denominator) == (0, 1)

    def test_mixed_batch_fraction(self):
        trials = [
            make_trial(0, 100, range(10), 0),
            make_trial(1, 100, range(10), 0),
            make_trial(2, 100, range(10), 5),
            make_trial(3, 100, range(10), 9),
        ]
        report = match(trials, self.lookup, self.lookup)
        assert report.value == 0.5

    def test_euclidean_metric_path(self):
        trial = make_trial(0, 100, range(10), 0)
        report = match([trial], self.lookup, self.lookup, metric="negative_euclidean")
        assert report.value == 1.0
        assert report.config["metric"] == "negative_euclidean"

    def test_failed_trial_keeps_denominator(self):
        vectors = dict(self.vectors)
        vectors[4] = np.zeros(13)
        for i in range(10, 19):
            v = np.full(13, 2.0)
            v[i % 13] = 7.0
            vectors[i] = v
        lookup = rows_of(vectors)
        trials = [make_trial(7, 100, range(10), 0), make_trial(8, 100, [0] + list(range(10, 19)), 0)]
        report = match(trials, lookup, lookup)
        assert report.denominator == 2
        assert report.details["failed_trials"] == [7]
        assert report.numerator == 1  # the second trial still scores

    def test_collect_rankings_structure(self):
        trial = make_trial(5, 100, range(10), 0)
        report = match([trial], self.lookup, self.lookup, collect_rankings=True)
        rows = report.details["per_trial"]
        assert len(rows) == 1
        row = rows[0]
        assert row["trial_id"] == 5
        assert row["target_item_id"] == 0
        assert row["selected_item_id"] == 0
        assert row["correct"] is True
        assert len(row["ranking"]) == 10
        assert row["ranking"][0][0] == 0
        scores = [s for _, s in row["ranking"]]
        assert scores == sorted(scores, reverse=True)

    def test_mask_changes_outcome(self):
        # The target's only edge over candidate 1 is attribute 0; distractor 1
        # is slightly better everywhere else. Masking attribute 0 flips the
        # selection to the distractor.
        vectors = {
            100: np.full(13, 5.0),
            0: np.concatenate([[5.0], np.full(12, 4.0)]),
            1: np.concatenate([[1.0], np.full(12, 4.5)]),
        }
        for i in range(2, 10):
            vectors[i] = np.full(13, 1.0)
        lookup = rows_of(vectors)
        trial = make_trial(0, 100, range(10), 0)
        unmasked = match([trial], lookup, lookup, metric="negative_euclidean")
        masked = match(
            [trial], lookup, lookup, metric="negative_euclidean", mask=AblationMask([0])
        )
        assert unmasked.value == 1.0
        assert masked.value == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            match([], self.lookup, self.lookup)


ALL_MASKS = [None] + [AblationMask([i]) for i in range(NUM_ATTRIBUTES)]


def random_vectors(seed, n):
    """Predictions spread over [0, 8], so clamping to [1, 7] changes them."""
    rng = SplitMix64(seed)
    return [rng.uniforms(NUM_ATTRIBUTES, 0.0, 8.0) for _ in range(n)]


class TestBatchedEquivalence:
    """The batched metrics against the per-trial and per-item loops they
    replace, bit for bit, under every single-attribute mask."""

    def setup_method(self):
        vectors = dict(enumerate(random_vectors(30, 60)))
        vectors[3] = vectors[7].copy()      # duplicate vectors: id 3 must beat id 7
        vectors[40] = vectors[12].copy()
        vectors[50] = np.zeros(NUM_ATTRIBUTES)
        vectors[50][6] = 4.0                # zero norm only once graspability is masked
        for k, v in enumerate(random_vectors(31, 10)):
            vectors[100 + k] = v
        vectors[105] = np.zeros(NUM_ATTRIBUTES)  # zero-norm query
        self.vectors = vectors
        rng = SplitMix64(32)
        plain = [i for i in range(60) if i not in (3, 7, 12, 40, 50)]
        trials = []
        for t in range(40):
            special = {0: [7, 3, 50], 1: [40, 12]}.get(t % 5, [])
            candidates = special + rng.sample(plain, 10 - len(special))
            rng.shuffle(candidates)
            # A target on a duplicate makes the tie decide the hit.
            target = candidates.index(special[t % 2]) if special else rng.randint(10)
            trials.append(make_trial(t, 100 + t % 10, candidates, target))
        self.trials = trials
        self.lookup = rows_of(vectors)

    def reference_matching(self, metric, mask, clamp):
        """One rank_candidates call per trial, as the metric used to score."""
        rows, failed = [], []
        for trial in self.trials:
            query = self.vectors[trial.scenario_item_id]
            candidates = [(iid, self.vectors[iid]) for iid in trial.candidate_item_ids]
            if clamp:
                query = clamp_vector(query)
                candidates = [(iid, clamp_vector(v)) for iid, v in candidates]
            try:
                ranked = rank_candidates(query, candidates, metric=metric, mask=mask)
            except SimilarityError:
                failed.append(trial.trial_id)
                continue
            rows.append({
                "trial_id": trial.trial_id,
                "target_item_id": trial.target_item_id,
                "selected_item_id": ranked[0][0],
                "correct": ranked[0][0] == trial.target_item_id,
                "ranking": [[iid, score] for iid, score in ranked],
            })
        return rows, failed

    @pytest.mark.parametrize("clamp", [False, True])
    @pytest.mark.parametrize("metric", ["cosine", "negative_euclidean"])
    def test_matching_equals_per_trial_loop(self, metric, clamp):
        failed_by_mask, numerators = [], set()
        for mask in ALL_MASKS:
            rows, failed = self.reference_matching(metric, mask, clamp)
            report = match(self.trials, self.lookup, self.lookup, metric=metric,
                                       mask=mask, clamp=clamp, collect_rankings=True)
            # JSON text compares every float by its exact repr.
            assert json.dumps(report.details["per_trial"]) == json.dumps(rows)
            assert report.details.get("failed_trials", []) == failed
            assert report.numerator == sum(r["correct"] for r in rows)
            assert report.denominator == len(self.trials)
            plain = match(self.trials, self.lookup, self.lookup, metric=metric, mask=mask, clamp=clamp)
            assert (plain.numerator, plain.details.get("failed_trials", [])) == (report.numerator, failed)
            failed_by_mask.append(failed)
            numerators.add(report.numerator)
        assert len(numerators) > 1  # the masks do move the count
        if metric == "cosine" and not clamp:
            # The zero query fails under every mask, item 50 only once graspability is gone.
            zero_query = {t.trial_id for t in self.trials if t.scenario_item_id == 105}
            holds_50 = {t.trial_id for t in self.trials if 50 in t.candidate_item_ids}
            for mask, failed in zip(ALL_MASKS, failed_by_mask):
                assert failed == sorted(zero_query | (holds_50 if mask == AblationMask([6]) else set()))
        else:
            assert not any(failed_by_mask)

    @pytest.mark.parametrize("clamp", [False, True])
    @pytest.mark.parametrize("metric", ["cosine", "negative_euclidean"])
    def test_one_batch_serves_every_mask(self, metric, clamp):
        """A sweep gathers once; scoring one batch under each mask gives the
        report a fresh gather does, and leaves the batch as it was."""
        batch = MatchingBatch.gather(self.trials, self.lookup, self.lookup, clamp)
        kept = [batch.queries.copy(), batch.candidates.copy()]
        for mask in ALL_MASKS:
            shared = matching_accuracy(batch, metric=metric, mask=mask, collect_rankings=True)
            fresh = match(self.trials, self.lookup, self.lookup, clamp, metric=metric, mask=mask,
                          collect_rankings=True)
            assert json.dumps(shared.to_dict()) == json.dumps(fresh.to_dict())
        assert batch.queries.tobytes() == kept[0].tobytes()
        assert batch.candidates.tobytes() == kept[1].tobytes()

    def test_gather_predicts_sorted_distinct_ids_once(self):
        calls = {"scenarios": [], "candidates": []}

        def recording(kind):
            def predict(ids):
                calls[kind].append(ids.tolist())
                return self.lookup(ids)
            return predict

        MatchingBatch.gather(self.trials, recording("scenarios"), recording("candidates"))
        assert calls["scenarios"] == [sorted({t.scenario_item_id for t in self.trials})]
        assert calls["candidates"] == [sorted({c for t in self.trials for c in t.candidate_item_ids})]

    def test_duplicates_resolve_to_lower_id(self):
        for trial in self.trials[:2]:
            report = match([trial], self.lookup, self.lookup, collect_rankings=True)
            ranking = report.details["per_trial"][0]["ranking"]
            low, high = (3, 7) if trial.trial_id == 0 else (12, 40)
            ids = [iid for iid, _ in ranking]
            assert ranking[ids.index(low)][1] == ranking[ids.index(high)][1]
            assert ids.index(low) == ids.index(high) - 1

    @pytest.mark.parametrize("clamp", [False, True])
    def test_class_equals_per_item_loop(self, clamp):
        attributes = random_vectors(33, 15)
        attributes[9] = attributes[4].copy()  # tied tools: 4 must win over 9
        catalog = ToolCatalog([ToolRecord(i, f"tool{i}", np.clip(a, 1.0, 7.0)) for i, a in enumerate(attributes)])
        rng = SplitMix64(34)
        preds = [(rng.randint(15), v) for v in random_vectors(35, 50)]
        preds[2] = (5, np.zeros(NUM_ATTRIBUTES))         # fails under cosine: listed by position 2
        only_6 = np.zeros(NUM_ATTRIBUTES)
        only_6[6] = 3.0
        preds[7] = (1, only_6)                           # fails only with graspability masked
        preds[11] = (9, catalog.get(9).attributes.copy())  # ties 4 and 9: scores incorrect
        preds[12] = (4, catalog.get(4).attributes.copy())  # ties 4 and 9: scores correct
        catalog_pairs = [(t.tool_id, t.attributes) for t in catalog]
        for mask in ALL_MASKS:
            correct, failed = 0, []
            for position, (tool, vec) in enumerate(preds):
                try:
                    best, _ = select_tool(clamp_vector(vec) if clamp else vec, catalog_pairs, mask=mask)
                except SimilarityError:
                    failed.append(position)
                    continue
                correct += int(best == tool)
            report = most_similar_class_accuracy(preds, catalog, mask, clamp=clamp)
            assert (report.numerator, report.denominator) == (correct, len(preds))
            assert report.details.get("failed_items", []) == failed
            if not clamp:
                assert failed == ([2, 7] if mask == AblationMask([6]) else [2])
            else:
                assert failed == []
        for position, want in ((11, 0), (12, 1)):
            assert most_similar_class_accuracy([preds[position]], catalog).numerator == want


class TestAblationSweep:
    def test_rows_in_registry_order_with_deltas(self):
        def evaluate(mask):
            if mask is None:
                return EvaluationReport("matching_accuracy", 90, 100)
            # Removing attribute i costs i correct trials.
            i = min(mask.removed)
            return EvaluationReport("matching_accuracy", 90 - i, 100)

        sweep = ablation_sweep(evaluate)
        assert sweep["baseline"]["value"] == 0.9
        rows = sweep["rows"]
        assert [r["attribute"] for r in rows] == list(ATTRIBUTE_NAMES)
        assert [r["removed_index"] for r in rows] == list(range(13))
        for i, row in enumerate(rows):
            assert row["numerator"] == 90 - i
            assert row["denominator"] == 100
            assert row["value"] == pytest.approx((90 - i) / 100)
            assert row["delta"] == pytest.approx(-i / 100)

    def test_calls_every_single_attribute_mask(self):
        seen = []

        def evaluate(mask):
            seen.append(None if mask is None else tuple(sorted(mask.removed)))
            return EvaluationReport("attribute_wise_accuracy", 1, 2)

        ablation_sweep(evaluate)
        assert seen[0] is None
        assert seen[1:] == [(i,) for i in range(13)]
