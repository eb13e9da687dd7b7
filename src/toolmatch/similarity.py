"""Similarity scoring, candidate ranking, and attribute masking for ablations.

:func:`score_batch` is the one scoring path: it scores a batch of queries
against their candidates in one numpy pass. Ranking one query
(:func:`rank_candidates`, :func:`select_tool`) and scoring one pair
(:func:`cosine_similarity`, :func:`negative_euclidean`) are its batch-of-one
cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from toolmatch.domain import NUM_ATTRIBUTES, attribute_index

METRIC_NAMES = ("cosine", "negative_euclidean")


class SimilarityError(ValueError):
    """A similarity score could not be computed (zero norm, length mismatch)."""

    def __init__(self, message: str, item_id: int | None = None):
        super().__init__(message)
        self.item_id = item_id


def _zero_norm_error(position: int, ids: Sequence[int] | None = None) -> SimilarityError:
    """The error for a spoiled row, naming ``ids[position]`` when ids are given."""
    message = "cosine similarity undefined for zero-norm vector"
    if ids is None:
        return SimilarityError(message)
    cid = ids[position]
    return SimilarityError(f"candidate {cid}: {message}", item_id=cid)


def _score_pair(a: np.ndarray, b: np.ndarray, metric: str) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scores, spoiled = score_batch(a[None], b[None], metric)
    if spoiled[0] >= 0:
        raise _zero_norm_error(0)
    return float(scores[0, 0])


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    return _score_pair(a, b, "cosine")


def negative_euclidean(a: np.ndarray, b: np.ndarray) -> float:
    return _score_pair(a, b, "negative_euclidean")


METRICS = {"cosine": cosine_similarity, "negative_euclidean": negative_euclidean}


def resolve_metric(name: str):
    if name not in METRICS:
        raise ValueError(f"unknown metric {name!r}; expected one of {METRIC_NAMES}")
    return METRICS[name]


@dataclass(frozen=True)
class AblationMask:
    """Set of attribute indices deleted from all vectors before scoring."""

    removed: frozenset[int]

    def __init__(self, removed: Iterable[int] = ()):
        object.__setattr__(self, "removed", frozenset(int(i) for i in removed))
        for i in self.removed:
            if not 0 <= i < NUM_ATTRIBUTES:
                raise ValueError(f"attribute index {i} not in [0, {NUM_ATTRIBUTES - 1}]")
        if len(self.removed) >= NUM_ATTRIBUTES:
            raise ValueError("mask must leave at least one attribute dimension")

    @classmethod
    def from_names(cls, names: Iterable[str]) -> "AblationMask":
        return cls(attribute_index(n) for n in names)

    @property
    def kept(self) -> np.ndarray:
        """Surviving indices in registry order."""
        return np.array([i for i in range(NUM_ATTRIBUTES) if i not in self.removed])

    def __bool__(self) -> bool:
        return bool(self.removed)


def apply_mask(v: np.ndarray, mask: AblationMask | None) -> np.ndarray:
    """Drop the masked attribute dimensions (the last axis), preserving survivor order."""
    v = np.asarray(v, dtype=np.float64)
    if mask is None or not mask.removed:
        return v
    if v.shape[-1:] != (NUM_ATTRIBUTES,):
        raise ValueError(f"mask applies to 13-vectors, got shape {v.shape}")
    # np.take keeps rows C-ordered (v[..., kept] does not), so every row sums
    # in the same order as the vector would alone.
    return np.take(v, mask.kept, axis=-1)


def score_batch(
    queries: np.ndarray,
    candidates: np.ndarray,
    metric: str = "cosine",
    mask: AblationMask | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Score every query against its candidates in one pass.

    ``queries`` is (n, k); ``candidates`` is (n, m, k), one candidate set per
    query, or (m, k), one set shared by every query. The mask drops its
    attribute columns from both first. Returns ``(scores, spoiled)``: the
    (n, m) scores, and per query the position of the first candidate that a
    zero-norm cosine failure spoils (0 when the query itself has zero norm),
    or -1 when the row scored. A spoiled row's scores mean nothing.

    Products are formed in fresh C-ordered arrays and summed along the last
    axis, so each row sums in the same order whatever the batch size: a batch
    of one gives the same bits as a batch of thousands.
    """
    resolve_metric(metric)  # rejects unknown names
    queries = apply_mask(queries, mask)
    candidates = apply_mask(candidates, mask)
    if (queries.ndim != 2 or candidates.ndim not in (2, 3) or candidates.shape[-1] != queries.shape[1]
            or candidates.ndim == 3 and len(candidates) != len(queries)):
        raise SimilarityError(f"length mismatch: queries {queries.shape} vs candidates {candidates.shape}")
    rows = candidates if candidates.ndim == 3 else candidates[None]
    spoiled = np.full(len(queries), -1)
    if metric == "negative_euclidean":
        return -np.linalg.norm(rows - queries[:, None, :], axis=-1), spoiled
    # Both norms take the same reduction, so cosine stays exactly symmetric.
    q_norm = np.sqrt(np.add.reduce(queries * queries, axis=-1))
    norms = np.sqrt(np.add.reduce(rows * rows, axis=-1))
    dots = np.add.reduce(rows * queries[:, None, :], axis=-1)
    denominator = q_norm[:, None] * norms
    if not (np.logical_and.reduce(q_norm, axis=None) and np.logical_and.reduce(norms, axis=None)):
        zero_rows = norms == 0.0
        spoiled = np.where(q_norm == 0.0, 0, np.where(zero_rows.any(axis=-1), zero_rows.argmax(axis=-1), -1))
        denominator[spoiled >= 0] = 1.0  # spoiled rows divide without warnings
    return dots / denominator, spoiled


def rank_rows(scores: np.ndarray, ids) -> np.ndarray:
    """Per row of ``scores`` (or for one 1-D row), candidate positions best
    first: ties go to the lower id and NaN scores rank last. ``ids`` is
    shaped like ``scores``."""
    return np.lexsort((ids, -scores), axis=-1)


def best_ids(scores: np.ndarray, ids) -> np.ndarray:
    """Per row of ``scores``, the id at the head of its :func:`rank_rows`
    order, found without sorting. ``ids`` is shaped like ``scores`` or like
    one of its rows."""
    ids = np.asarray(ids)
    top = np.fmax.reduce(scores, axis=-1, keepdims=True)  # NaN only when the whole row is
    best = (scores == top) | np.isnan(top)
    return np.where(best, ids, np.iinfo(ids.dtype).max).min(axis=-1)


def rank_candidates(
    query: np.ndarray,
    candidates: Sequence[tuple[int, np.ndarray]],
    metric: str = "cosine",
    mask: AblationMask | None = None,
) -> list[tuple[int, float]]:
    """Score candidates against the query, best first, ties broken by ascending id.

    The single-query case of :func:`score_batch`. A zero-norm cosine failure
    carries the id of the first candidate it spoils.
    """
    if not candidates:
        raise ValueError("need at least one candidate")
    ids, vecs = zip(*candidates)
    rows = np.asarray(vecs, dtype=np.float64)
    scores, spoiled = score_batch(np.asarray(query, dtype=np.float64)[None], rows, metric, mask)
    if spoiled[0] >= 0:
        raise _zero_norm_error(int(spoiled[0]), ids)
    row = scores[0].tolist()
    return [(ids[i], row[i]) for i in rank_rows(scores[0], ids).tolist()]


def select_tool(
    query: np.ndarray,
    candidates: Sequence[tuple[int, np.ndarray]],
    metric: str = "cosine",
    mask: AblationMask | None = None,
) -> tuple[int, float]:
    """The argmax of the similarity ranking: (candidate id, score)."""
    return rank_candidates(query, candidates, metric=metric, mask=mask)[0]
