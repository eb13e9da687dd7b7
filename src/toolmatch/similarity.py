"""Similarity scoring, candidate ranking, and attribute masking for ablations."""

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


def _score_rows(query, rows, metric: str, ids: Sequence[int] | None = None) -> np.ndarray:
    """Score one query against every row of an (n, k) matrix.

    A zero-norm cosine failure names the first row it spoils (row 0 when the
    query itself has zero norm) by its entry in ``ids``, when given.
    """
    query = np.asarray(query, dtype=np.float64)
    rows = np.asarray(rows, dtype=np.float64)
    if rows.shape[1:] != query.shape:
        raise SimilarityError(f"length mismatch: {query.shape} vs {rows.shape[1:]}")
    if metric == "negative_euclidean":
        return -np.linalg.norm(rows - query, axis=1)
    # Both norms take the same reduction, so cosine stays exactly symmetric.
    q_norm = np.sqrt((query * query).sum())
    norms = np.sqrt((rows * rows).sum(axis=1))
    if q_norm == 0.0 or not norms.all():
        message = "cosine similarity undefined for zero-norm vector"
        if ids is None:
            raise SimilarityError(message)
        cid = ids[0 if q_norm == 0.0 else int(np.flatnonzero(norms == 0.0)[0])]
        raise SimilarityError(f"candidate {cid}: {message}", item_id=cid)
    return (rows * query).sum(axis=1) / (q_norm * norms)


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    return float(_score_rows(a, [b], "cosine")[0])


def negative_euclidean(a: np.ndarray, b: np.ndarray) -> float:
    return float(_score_rows(a, [b], "negative_euclidean")[0])


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


EMPTY_MASK = AblationMask()


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


def rank_candidates(
    query: np.ndarray,
    candidates: Sequence[tuple[int, np.ndarray]],
    metric: str = "cosine",
    mask: AblationMask | None = None,
) -> list[tuple[int, float]]:
    """Score candidates against the query, best first, ties broken by ascending id.

    The masked candidates are stacked and scored in one pass. A zero-norm
    cosine failure carries the id of the first candidate it spoils.
    """
    if not candidates:
        raise ValueError("need at least one candidate")
    resolve_metric(metric)  # rejects unknown names
    ids = [cid for cid, _ in candidates]
    rows = apply_mask([vec for _, vec in candidates], mask)
    scores = _score_rows(apply_mask(query, mask), rows, metric, ids)
    return [(ids[i], float(scores[i])) for i in np.lexsort((ids, -scores))]


def select_tool(
    query: np.ndarray,
    candidates: Sequence[tuple[int, np.ndarray]],
    metric: str = "cosine",
    mask: AblationMask | None = None,
) -> tuple[int, float]:
    """The argmax of the similarity ranking: (candidate id, score)."""
    return rank_candidates(query, candidates, metric=metric, mask=mask)[0]
