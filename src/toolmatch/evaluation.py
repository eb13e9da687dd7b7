"""Evaluation metrics: cell-exact attribute accuracy, nearest-class accuracy,
trial matching accuracy, and the single-attribute ablation sweep.

Every accuracy is reported as an exact integer numerator/denominator pair;
the floating value is always their quotient, so parallel or re-ordered
evaluation cannot drift.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from toolmatch.domain import (
    ATTRIBUTE_NAMES,
    NUM_ATTRIBUTES,
    RATING_MAX,
    RATING_MIN,
    MatchingTrial,
    ToolCatalog,
)
from toolmatch.similarity import AblationMask, best_ids, rank_rows, score_batch
from toolmatch.similarity import cosine_similarity, rank_candidates  # noqa: F401  patched here by toolbench/tracing.py


@dataclass
class EvaluationReport:
    """One metric outcome with its exact counts and configuration echo."""

    metric_name: str
    numerator: int
    denominator: int
    per_attribute: list[dict] | None = None
    config: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    @property
    def value(self) -> float:
        if self.denominator <= 0:
            raise ValueError(f"{self.metric_name}: empty evaluation (denominator 0)")
        return self.numerator / self.denominator

    def to_dict(self) -> dict:
        out = {
            "metric": self.metric_name,
            "value": self.value,
            "numerator": self.numerator,
            "denominator": self.denominator,
            "config": self.config,
        }
        if self.per_attribute is not None:
            out["per_attribute"] = self.per_attribute
        if self.details:
            out["details"] = self.details
        return out


def round_half_up_clamped(x: float | np.ndarray) -> int | np.ndarray:
    """Clamp to the 1-7 rating scale, then round to nearest with halves going up.

    Accepts a scalar (returns an int) or an array (returns an int64 array).
    """
    a = np.asarray(x, dtype=np.float64)
    bad = a[~np.isfinite(a)]
    if bad.size:
        raise ValueError(f"cannot round non-finite value {bad[0]}")
    out = np.floor(np.clip(a, RATING_MIN, RATING_MAX) + 0.5).astype(np.int64)
    return int(out) if out.ndim == 0 else out


def clamp_vector(v: np.ndarray) -> np.ndarray:
    """Clip an attribute vector to the rating scale (optional pre-matching step)."""
    return np.clip(np.asarray(v, dtype=np.float64), RATING_MIN, RATING_MAX)


def attribute_wise_accuracy(
    preds: Sequence[np.ndarray],
    truths: Sequence[np.ndarray],
    mask: AblationMask | None = None,
) -> EvaluationReport:
    """Fraction of (sample, attribute) cells where the rounded prediction
    exactly matches the integer ground truth; micro-averaged, with a
    per-attribute breakdown.

    A mask restricts the count to surviving attribute columns.
    """
    if len(preds) != len(truths):
        raise ValueError(f"got {len(preds)} predictions but {len(truths)} truths")
    if not preds:
        raise ValueError("need at least one sample")
    pred_mat = np.asarray(preds, dtype=np.float64)
    if pred_mat.shape[1] != NUM_ATTRIBUTES:
        raise ValueError(f"predictions must have {NUM_ATTRIBUTES} columns, got {pred_mat.shape}")
    # Non-integral truths (rating averages) follow the prediction rounding rule.
    truth_int = round_half_up_clamped(truths)
    pred_int = round_half_up_clamped(pred_mat)

    cols = mask.kept if mask is not None and mask.removed else np.arange(NUM_ATTRIBUTES)
    hits = pred_int[:, cols] == truth_int[:, cols]
    n_samples = pred_mat.shape[0]

    per_attribute = []
    for j, col in enumerate(cols):
        per_attribute.append(
            {
                "attribute": ATTRIBUTE_NAMES[int(col)],
                "numerator": int(hits[:, j].sum()),
                "denominator": n_samples,
            }
        )
    return EvaluationReport(
        metric_name="attribute_wise_accuracy",
        numerator=int(hits.sum()),
        denominator=int(hits.size),
        per_attribute=per_attribute,
        config={"mask": sorted(mask.removed) if mask else []},
    )


def most_similar_class_accuracy(
    preds: Sequence[tuple[int, np.ndarray]],
    catalog: ToolCatalog,
    mask: AblationMask | None = None,
    clamp: bool = False,
) -> EvaluationReport:
    """Fraction of predictions whose cosine-nearest catalog vector belongs to
    the true tool category; ties go to the lower tool_id.

    All predictions are scored against the catalog as one (items, tools)
    matrix. Items whose prediction cannot be scored (zero norm after masking)
    are counted incorrect, and their positions in ``preds`` are listed in
    ``details.failed_items``.
    """
    if not preds:
        raise ValueError("need at least one prediction")
    true_tools = np.array([tool for tool, _ in preds])
    queries = np.array([vec for _, vec in preds], dtype=np.float64)
    if clamp:
        queries = clamp_vector(queries)
    tool_ids = np.array([t.tool_id for t in catalog])
    scores, spoiled = score_batch(queries, catalog.attribute_matrix(), mask=mask)
    scored = spoiled < 0
    report = EvaluationReport(
        metric_name="most_similar_class_accuracy",
        numerator=int((scored & (best_ids(scores, tool_ids) == true_tools)).sum()),
        denominator=len(preds),
        config={"mask": sorted(mask.removed) if mask else [], "clamp": clamp},
    )
    if not scored.all():
        report.details["failed_items"] = np.flatnonzero(~scored).tolist()
    return report


PredictFn = Callable[[int], np.ndarray]


def _gather(predict: PredictFn, ids: np.ndarray, clamp: bool) -> np.ndarray:
    """Predictions for an array of item ids, shaped ``ids.shape + (13,)``;
    each distinct id is fetched through ``predict`` once."""
    distinct, inverse = np.unique(ids, return_inverse=True)
    table = np.array([predict(int(i)) for i in distinct], dtype=np.float64)
    if clamp:
        table = clamp_vector(table)
    return table[inverse.reshape(ids.shape)]


def matching_accuracy(
    trials: Sequence[MatchingTrial],
    predict_scenario: PredictFn,
    predict_candidate: PredictFn,
    metric: str = "cosine",
    mask: AblationMask | None = None,
    clamp: bool = False,
    collect_rankings: bool = False,
) -> EvaluationReport:
    """Fraction of trials where the similarity argmax over the 10 candidates
    is the target item.

    The query is the scenario item's predicted attribute vector; candidates
    are the candidate items' predictions. Every trial is scored in one pass
    over a (trials, 10) score matrix. Trials whose scoring fails are counted
    incorrect and flagged, keeping the denominator stable.
    """
    if not trials:
        raise ValueError("need at least one trial")
    candidate_ids = np.array([t.candidate_item_ids for t in trials])
    targets = np.array([t.target_item_id for t in trials])
    queries = _gather(predict_scenario, np.array([t.scenario_item_id for t in trials]), clamp)
    candidates = _gather(predict_candidate, candidate_ids, clamp)
    scores, spoiled = score_batch(queries, candidates, metric=metric, mask=mask)
    scored = spoiled < 0
    hits = scored & (best_ids(scores, candidate_ids) == targets)
    report = EvaluationReport(
        metric_name="matching_accuracy",
        numerator=int(hits.sum()),
        denominator=len(trials),
        config={"metric": metric, "mask": sorted(mask.removed) if mask else [], "clamp": clamp},
    )
    if not scored.all():
        report.details["failed_trials"] = [trials[i].trial_id for i in np.flatnonzero(~scored)]
    if collect_rankings:
        order = rank_rows(scores, candidate_ids)
        ranked_ids = np.take_along_axis(candidate_ids, order, axis=1).tolist()
        ranked_scores = np.take_along_axis(scores, order, axis=1).tolist()
        report.details["per_trial"] = [
            {
                "trial_id": trials[i].trial_id,
                "target_item_id": trials[i].target_item_id,
                "selected_item_id": ranked_ids[i][0],
                "correct": bool(hits[i]),
                "ranking": [[iid, score] for iid, score in zip(ranked_ids[i], ranked_scores[i])],
            }
            for i in np.flatnonzero(scored)
        ]
    return report


def ablation_sweep(evaluate: Callable[[AblationMask | None], EvaluationReport]) -> dict:
    """Evaluate once unmasked, then once per single-attribute removal.

    Returns the baseline report plus one row per attribute in registry order,
    each with its value and delta against the baseline.
    """
    baseline = evaluate(None)
    rows = []
    for i in range(NUM_ATTRIBUTES):
        report = evaluate(AblationMask([i]))
        rows.append(
            {
                "attribute": ATTRIBUTE_NAMES[i],
                "removed_index": i,
                "value": report.value,
                "numerator": report.numerator,
                "denominator": report.denominator,
                "delta": report.value - baseline.value,
            }
        )
    return {"baseline": baseline.to_dict(), "rows": rows}
