"""The benchmark's own input generator, writers and reader.

Inputs come from numpy's generator seeded with the run's ``--seed``, never
from ``toolmatch.synthetic``, and are written in the layouts the root README
documents, so the program reads files it did not write. Every tool gets a
distinct integer attribute vector on the 1-7 scale; an item's embedding is
that vector mixed through an orthonormal-column matrix plus Gaussian noise.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ATTRIBUTE_NAMES = (
    "elongation", "spiky", "size", "smoothness", "texturedness", "hardness",
    "graspability", "hand_relatedness", "force_requirement", "body_extension",
    "threatness", "valence", "arousal",
)
NUM_ATTRIBUTES = len(ATTRIBUTE_NAMES)
CANDIDATES = 10
FEMB_HEADER = struct.Struct("<4sIIQ")


@dataclass
class ItemSet:
    """Embedding items of one pathway, ids ascending."""

    ids: np.ndarray  # int64
    tools: np.ndarray  # int64
    splits: np.ndarray  # "train" / "test"
    vectors: np.ndarray  # float32, as stored on disk

    def where(self, split: str) -> np.ndarray:
        return np.flatnonzero(self.splits == split)

    def by_tool(self, split: str) -> dict[int, np.ndarray]:
        """Item ids of a split grouped by tool."""
        rows = self.where(split)
        return {int(t): self.ids[rows[self.tools[rows] == t]] for t in np.unique(self.tools[rows])}


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """Independent generator per (seed, stream ...) so inputs never shift when
    another stream draws more or fewer numbers."""
    return np.random.default_rng([seed % (1 << 64), *stream])


def tool_attributes(g: np.random.Generator, n_tools: int) -> np.ndarray:
    """Distinct integer attribute vectors, shape (n_tools, 13), values 1-7."""
    seen: set[tuple[int, ...]] = set()
    rows = []
    while len(rows) < n_tools:
        row = tuple(int(v) for v in g.integers(1, 8, NUM_ATTRIBUTES))
        if row not in seen:
            seen.add(row)
            rows.append(row)
    return np.array(rows, dtype=np.float64)


def mixer(g: np.random.Generator, dim: int) -> np.ndarray:
    """A (dim, 13) matrix with orthonormal columns, so it preserves distances."""
    q, _ = np.linalg.qr(g.standard_normal((dim, NUM_ATTRIBUTES)))
    return q


def items(g: np.random.Generator, mix: np.ndarray, attributes: np.ndarray,
          per_tool: tuple[int, int], sigma: float, first_id: int = 0) -> ItemSet:
    """Tool-major items: ``per_tool`` = (train, test) items for every tool."""
    n_train, n_test = per_tool
    stride = n_train + n_test
    n_tools = len(attributes)
    tools = np.repeat(np.arange(n_tools), stride)
    base = attributes[tools] @ mix.T
    noise = g.standard_normal(base.shape) * sigma
    splits = np.tile(np.array(["train"] * n_train + ["test"] * n_test), n_tools)
    return ItemSet(ids=first_id + np.arange(len(tools), dtype=np.int64), tools=tools.astype(np.int64),
                   splits=splits, vectors=(base + noise).astype(np.float32))


def trials(g: np.random.Generator, n_trials: int, scenarios: ItemSet, visual: ItemSet) -> list[dict]:
    """Matching trials over test items: the scenario's tool supplies the
    target, nine other tools one distractor each, in shuffled positions."""
    scen_by_tool = scenarios.by_tool("test")
    vis_by_tool = visual.by_tool("test")
    tools = np.array(sorted(vis_by_tool))
    out = []
    for trial_id in range(n_trials):
        tool = int(tools[trial_id % len(tools)])
        others = g.choice(tools[tools != tool], CANDIDATES - 1, replace=False)
        cands = [int(g.choice(vis_by_tool[tool]))] + [int(g.choice(vis_by_tool[int(t)])) for t in others]
        order = g.permutation(CANDIDATES)
        cands = [cands[i] for i in order]
        out.append({"trial_id": trial_id, "scenario_item_id": int(g.choice(scen_by_tool[tool])),
                    "candidate_item_ids": cands, "target_position": int(np.flatnonzero(order == 0)[0])})
    return out


# ---------------------------------------------------------------------------
# Writers and reader for the documented file layouts


def write_catalog(path, attributes: np.ndarray) -> None:
    rows = ["tool_id,tool_name," + ",".join(ATTRIBUTE_NAMES)]
    rows += [f"{i},tool_{i:03d}," + ",".join(repr(float(v)) for v in row) for i, row in enumerate(attributes)]
    Path(path).write_text("\n".join(rows) + "\n", encoding="utf-8")


def femb_length(count: int, dim: int) -> int:
    return FEMB_HEADER.size + count * (8 + 4 * dim)


def write_embeddings(path, manifest_path, item_set: ItemSet) -> None:
    count, dim = item_set.vectors.shape
    record = np.dtype([("item_id", "<u8"), ("vec", "<f4", (dim,))])
    body = np.empty(count, dtype=record)
    body["item_id"] = item_set.ids
    body["vec"] = item_set.vectors
    Path(path).write_bytes(FEMB_HEADER.pack(b"FEMB", 1, dim, count) + body.tobytes())
    Path(manifest_path).write_text("".join(
        json.dumps({"item_id": int(i), "tool_id": int(t), "split": str(s)}, separators=(",", ":")) + "\n"
        for i, t, s in zip(item_set.ids, item_set.tools, item_set.splits)), encoding="utf-8")


def write_trials(path, trial_rows: list[dict]) -> None:
    Path(path).write_text("".join(json.dumps(t, separators=(",", ":")) + "\n" for t in trial_rows),
                          encoding="utf-8")


def read_embeddings(path) -> tuple[np.ndarray, np.ndarray]:
    """Decode a ``.femb`` file: (item ids, float32 vectors) in file order."""
    data = Path(path).read_bytes()
    magic, version, dim, count = FEMB_HEADER.unpack_from(data)
    if magic != b"FEMB" or version != 1 or len(data) != femb_length(count, dim):
        raise ValueError(f"{path}: not a version-1 FEMB file of {count} x {dim}")
    record = np.dtype([("item_id", "<u8"), ("vec", "<f4", (dim,))])
    body = np.frombuffer(data, dtype=record, count=count, offset=FEMB_HEADER.size)
    return body["item_id"].astype(np.int64), body["vec"].copy()


def read_jsonl(path) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text(encoding="utf-8").splitlines() if line.strip()]


def read_catalog(path) -> np.ndarray:
    """Attribute matrix of a catalog CSV, rows in file order."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()[1:]
    return np.array([[float(v) for v in line.split(",")[2:]] for line in lines if line.strip()])
