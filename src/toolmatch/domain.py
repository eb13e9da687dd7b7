"""Core domain types shared by every other module.

The attribute registry fixes one canonical name order for the 13 tool
attributes. Every file format, vector, and report in this package indexes
attributes in exactly this order; nothing may permute it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

# Canonical registry: physical (0-5), functional (6-9), psychological (10-12).
ATTRIBUTE_NAMES: tuple[str, ...] = (
    "elongation",
    "spiky",
    "size",
    "smoothness",
    "texturedness",
    "hardness",
    "graspability",
    "hand_relatedness",
    "force_requirement",
    "body_extension",
    "threatness",
    "valence",
    "arousal",
)

NUM_ATTRIBUTES = len(ATTRIBUTE_NAMES)
RATING_MIN = 1.0
RATING_MAX = 7.0

_ATTRIBUTE_INDEX: dict[str, int] = {name: i for i, name in enumerate(ATTRIBUTE_NAMES)}

VALID_SPLITS = ("train", "test")


def canonical_attribute_order() -> list[str]:
    """Return the 13 attribute names in registry order (stable across runs)."""
    return list(ATTRIBUTE_NAMES)


def attribute_index(name: str) -> int:
    """Registry index of an attribute name; raises KeyError for unknown names."""
    try:
        return _ATTRIBUTE_INDEX[name]
    except KeyError:
        raise KeyError(
            f"unknown attribute {name!r}; expected one of {', '.join(ATTRIBUTE_NAMES)}"
        ) from None


def validate_attribute_vector(values, ground_truth: bool = False) -> np.ndarray:
    """Validate and coerce a 13-entry attribute vector to a float64 array.

    Ground-truth vectors must lie on the 1-7 rating scale; model predictions
    are only checked for length and finiteness (they may transiently exceed
    the scale before any clamping decision is made downstream).

    Raises ValueError naming the first violating index and the reason.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.shape[0] != NUM_ATTRIBUTES:
        raise ValueError(
            f"attribute vector must have length {NUM_ATTRIBUTES}, got shape {arr.shape}"
        )
    finite = np.isfinite(arr)
    if not finite.all():
        idx = int(np.argmin(finite))
        raise ValueError(f"attribute vector has non-finite value at index {idx}: {arr[idx]}")
    if ground_truth:
        in_range = (arr >= RATING_MIN) & (arr <= RATING_MAX)
        if not in_range.all():
            idx = int(np.argmin(in_range))
            raise ValueError(
                f"attribute vector value out of range at index {idx} "
                f"({ATTRIBUTE_NAMES[idx]}): {arr[idx]} not in "
                f"[{RATING_MIN:g}, {RATING_MAX:g}]"
            )
    return arr


@dataclass(frozen=True, eq=False)
class ToolRecord:
    """One tool category: numeric identity, display name, ground-truth attributes."""

    tool_id: int
    tool_name: str
    attributes: np.ndarray  # (13,) float64, values in [1, 7]

    def __post_init__(self):
        if self.tool_id < 0:
            raise ValueError(f"tool_id must be non-negative, got {self.tool_id}")
        object.__setattr__(
            self, "attributes", validate_attribute_vector(self.attributes, ground_truth=True)
        )


class ToolCatalog:
    """Ordered set of tool categories with their canonical attribute vectors."""

    def __init__(self, tools: Iterable[ToolRecord]):
        self.tools: list[ToolRecord] = list(tools)
        if not self.tools:
            raise ValueError("catalog must contain at least one tool")
        ids = [t.tool_id for t in self.tools]
        for prev, cur in zip(ids, ids[1:]):
            if cur <= prev:
                raise ValueError(
                    f"tool_ids must be strictly increasing, got {prev} before {cur}"
                )
        self._by_id: dict[int, ToolRecord] = {t.tool_id: t for t in self.tools}

    def __len__(self) -> int:
        return len(self.tools)

    def __iter__(self):
        return iter(self.tools)

    def __contains__(self, tool_id: int) -> bool:
        return tool_id in self._by_id

    def get(self, tool_id: int) -> ToolRecord:
        try:
            return self._by_id[tool_id]
        except KeyError:
            raise KeyError(f"tool_id {tool_id} not in catalog") from None

    def attributes_of(self, tool_id: int) -> np.ndarray:
        return self.get(tool_id).attributes

    def tool_ids(self) -> list[int]:
        return [t.tool_id for t in self.tools]

    def attribute_matrix(self) -> np.ndarray:
        """All catalog vectors stacked in tool order, shape (n_tools, 13)."""
        return np.stack([t.attributes for t in self.tools])


@dataclass(frozen=True, eq=False)
class EmbeddingRecord:
    """A precomputed feature vector standing in for a frozen backbone's output."""

    item_id: int
    tool_id: int
    split: str
    embedding: np.ndarray

    def __post_init__(self):
        if self.item_id < 0:
            raise ValueError(f"item_id must be non-negative, got {self.item_id}")
        if self.split not in VALID_SPLITS:
            raise ValueError(f"split must be one of {VALID_SPLITS}, got {self.split!r}")
        emb = np.asarray(self.embedding, dtype=np.float64)
        if emb.ndim != 1 or emb.size == 0:
            raise ValueError(f"embedding must be a non-empty 1-D vector, got shape {emb.shape}")
        object.__setattr__(self, "embedding", emb)


class EmbeddingSet:
    """In-memory embedding provider: O(1) item lookup, split enumeration.

    Columnar: ``item_ids``, ``tool_ids`` and ``split_codes`` (an index into
    ``VALID_SPLITS``) sit beside one read-only ``(n, dim)`` float64 matrix
    ``vectors``, row ``r`` of each column describing the same item, rows in
    the order given. Frozen-backbone semantics: the vector returned for an
    item never changes.
    """

    def __init__(self, records: Iterable[EmbeddingRecord]):
        records = list(records)
        dim = records[0].embedding.shape[0] if records else 0
        vectors = np.empty((len(records), dim))
        for row, rec in enumerate(records):
            if rec.embedding.shape[0] != dim:
                raise ValueError(
                    f"item {rec.item_id}: embedding dimension {rec.embedding.shape[0]} "
                    f"differs from dataset dimension {dim}"
                )
            vectors[row] = rec.embedding
        self._set_columns(
            [r.item_id for r in records], [r.tool_id for r in records],
            [r.split for r in records], vectors,
        )

    @classmethod
    def from_arrays(cls, item_ids, tool_ids, splits, vectors) -> "EmbeddingSet":
        """Build a set from whole columns: ids, tool ids, split names, (n, dim) vectors.

        A float64 ``vectors`` array is kept without a copy, so the caller
        hands it over and must not write to it afterwards; the id and tool
        columns are copied.
        """
        self = cls.__new__(cls)
        self._set_columns(item_ids, tool_ids, splits, vectors)
        return self

    def _set_columns(self, item_ids, tool_ids, splits, vectors) -> None:
        """Validate the four columns together and adopt them, read-only."""
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2:
            raise ValueError(f"vectors must be an (n, dim) matrix, got shape {vectors.shape}")
        ids = _int_column("item_ids", item_ids)
        tools = _int_column("tool_ids", tool_ids)
        names, splits = splits, np.asarray(splits)
        if splits.ndim != 1:
            raise ValueError(f"splits must be one-dimensional, got shape {splits.shape}")
        lengths = (len(ids), len(tools), len(splits), len(vectors))
        if len(set(lengths)) != 1:
            raise ValueError(
                "column lengths differ: {} item_ids, {} tool_ids, {} splits, {} vectors".format(*lengths)
            )
        if not len(ids):
            raise ValueError("embedding set must contain at least one record")
        if vectors.shape[1] == 0:
            raise ValueError("embeddings must be non-empty vectors, got dimension 0")
        if ids.min() < 0:
            raise ValueError(f"item_id must be non-negative, got {ids.min()}")
        codes = np.full(len(ids), len(VALID_SPLITS), dtype=np.uint8)
        for code, name in enumerate(VALID_SPLITS):
            codes[splits == name] = code
        bad = codes == len(VALID_SPLITS)
        if not isinstance(names, np.ndarray):  # numpy drops a str's trailing NULs: "train\x00" == "train"
            names = list(names)
            bad |= np.array([name not in VALID_SPLITS for name in names], dtype=bool)
        if bad.any():
            name = (names if isinstance(names, list) else splits.tolist())[int(np.argmax(bad))]
            raise ValueError(f"split must be one of {VALID_SPLITS}, got {name!r}")
        row_of = dict(zip(ids.tolist(), range(len(ids))))
        if len(row_of) != len(ids):
            unique, counts = np.unique(ids, return_counts=True)
            raise ValueError(f"duplicate item_id {unique[counts > 1][0]}")

        vectors = vectors.view()
        for column in (ids, tools, codes, vectors):
            column.flags.writeable = False
        self.item_ids, self.tool_ids, self.split_codes, self.vectors = ids, tools, codes, vectors
        self.dim = vectors.shape[1]
        self._row_of = row_of
        self._ascending = bool((ids[1:] > ids[:-1]).all())

    def __len__(self) -> int:
        return len(self.item_ids)

    def __contains__(self, item_id: int) -> bool:
        return item_id in self._row_of

    def _row(self, item_id: int) -> int:
        try:
            return self._row_of[item_id]
        except KeyError:
            raise KeyError(f"item_id {item_id} not in embedding set") from None

    def record(self, item_id: int) -> EmbeddingRecord:
        row = self._row(item_id)
        return EmbeddingRecord(
            item_id=int(self.item_ids[row]),
            tool_id=int(self.tool_ids[row]),
            split=VALID_SPLITS[self.split_codes[row]],
            embedding=self.vectors[row],
        )

    def vector(self, item_id: int) -> np.ndarray:
        """The item's row of ``vectors``: a read-only view."""
        return self.vectors[self._row(item_id)]

    def tool_of(self, item_id: int) -> int:
        return int(self.tool_ids[self._row(item_id)])

    def ascending_rows(self) -> np.ndarray | None:
        """Row order that sorts the item ids, or None when they already ascend."""
        return None if self._ascending else np.argsort(self.item_ids, kind="stable")

    def items(self, split: str | None = None) -> list[int]:
        """Item ids in ascending order, optionally restricted to one split."""
        ids = self.item_ids
        if split is not None:
            if split not in VALID_SPLITS:
                raise ValueError(f"split must be one of {VALID_SPLITS}, got {split!r}")
            ids = ids[self.split_codes == VALID_SPLITS.index(split)]
        return ids.tolist() if self._ascending else sorted(ids.tolist())

    def matrix(self, item_ids: Sequence[int]) -> np.ndarray:
        """The given items' vectors as a new (n, dim) float64 matrix."""
        if not len(item_ids):
            return np.zeros((0, self.dim))
        try:
            rows = [self._row_of[i] for i in item_ids]
        except KeyError as exc:
            raise KeyError(f"item_id {exc.args[0]} not in embedding set") from None
        return self.vectors[rows]

    def check_tool_ids(self, catalog: ToolCatalog) -> None:
        """Reject items whose tool_id is missing from the companion catalog."""
        unknown = ~np.isin(self.tool_ids, catalog.tool_ids())
        if unknown.any():
            row = int(np.flatnonzero(unknown)[np.argmin(self.item_ids[unknown])])
            raise ValueError(
                f"item {self.item_ids[row]} references tool_id {self.tool_ids[row]} not in catalog"
            )


def _int_column(name: str, values) -> np.ndarray:
    """A 1-D int64 copy, so later writes to ``values`` cannot reach the set; rejects non-integers."""
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size and (arr.dtype.kind not in "iu"
                     or (arr.dtype.kind == "u" and arr.max() > np.iinfo(np.int64).max)):
        raise ValueError(f"{name} must be 64-bit signed integers, got dtype {arr.dtype}")
    return arr.astype(np.int64)


@dataclass(frozen=True)
class ScenarioRecord:
    """A task scenario; the engine consumes its embedding, text is provenance."""

    scenario_id: int
    tool_id: int
    text: str
    item_id: int

    def __post_init__(self):
        if self.scenario_id < 0 or self.item_id < 0:
            raise ValueError("scenario_id and item_id must be non-negative")


CANDIDATES_PER_TRIAL = 10


@dataclass(frozen=True)
class MatchingTrial:
    """One scenario paired with 10 candidate items (1 target, 9 distractors)."""

    trial_id: int
    scenario_item_id: int
    candidate_item_ids: tuple[int, ...]
    target_position: int

    def __post_init__(self):
        object.__setattr__(self, "candidate_item_ids", tuple(self.candidate_item_ids))
        n = len(self.candidate_item_ids)
        if n != CANDIDATES_PER_TRIAL:
            raise ValueError(f"trial {self.trial_id}: expected {CANDIDATES_PER_TRIAL} candidates, got {n}")
        if len(set(self.candidate_item_ids)) != n:
            raise ValueError(f"trial {self.trial_id}: duplicate candidate item ids")
        if not 0 <= self.target_position < n:
            raise ValueError(
                f"trial {self.trial_id}: target_position {self.target_position} not in [0, {n - 1}]"
            )

    @property
    def target_item_id(self) -> int:
        return self.candidate_item_ids[self.target_position]


def check_trial(trial: MatchingTrial, scenario_tool: Mapping[int, int] | EmbeddingSet,
                candidate_tool: Mapping[int, int] | EmbeddingSet) -> None:
    """Cross-check a trial against the manifests that resolve its item ids.

    The candidate at target_position must share the scenario's tool; the nine
    distractors must not.
    """
    def _tool(src, item_id):
        if isinstance(src, EmbeddingSet):
            return src.tool_of(item_id)
        return src[item_id]

    want = _tool(scenario_tool, trial.scenario_item_id)
    got = _tool(candidate_tool, trial.target_item_id)
    if got != want:
        raise ValueError(
            f"trial {trial.trial_id}: target item {trial.target_item_id} has tool_id {got}, "
            f"scenario expects {want}"
        )
    for pos, iid in enumerate(trial.candidate_item_ids):
        if pos == trial.target_position:
            continue
        tid = _tool(candidate_tool, iid)
        if tid == want:
            raise ValueError(
                f"trial {trial.trial_id}: distractor item {iid} at position {pos} "
                f"duplicates the target tool_id {want}"
            )
