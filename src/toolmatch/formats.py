"""Persistent file formats: catalog CSV, binary embeddings with JSONL
manifests, scenario and trial JSONL, and JSON head checkpoints.

Every reader validates strictly and rejects rather than coercing: exact
header match, exact byte-length equation, no NaN passthrough, no column
reordering. Checkpoints store parameters as decimal strings produced by
``repr`` so 64-bit values round-trip bit-exactly through JSON.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from toolmatch.domain import (
    ATTRIBUTE_NAMES,
    NUM_ATTRIBUTES,
    EmbeddingRecord,
    EmbeddingSet,
    MatchingTrial,
    ScenarioRecord,
    ToolCatalog,
    ToolRecord,
    VALID_SPLITS,
)
from toolmatch.evaluation import round_half_up_clamped
from toolmatch.nn import LAYER_NORM_EPSILON, DenseLayer, LayerNormParams, MlpHead, validate_layer_dims
from toolmatch.training import HeadConfig, TrainedHead

CATALOG_HEADER = "tool_id,tool_name," + ",".join(ATTRIBUTE_NAMES)

EMBEDDING_MAGIC = b"FEMB"
EMBEDDING_VERSION = 1
_EMBEDDING_HEADER_BYTES = 20  # magic 4 + version 4 + dim 4 + count 8

CHECKPOINT_VERSION = 1


class FormatError(ValueError):
    """A file failed validation; the message says where and why."""


def _read_text(path) -> str:
    return Path(path).read_text(encoding="utf-8")


def _jsonl_lines(path) -> Iterable[tuple[int, dict]]:
    """Yield (line_number, parsed object) for each non-empty line."""
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: line {lineno}: invalid JSON: {exc.msg}") from None
        if not isinstance(obj, dict):
            raise FormatError(f"{path}: line {lineno}: expected a JSON object")
        yield lineno, obj


def _require_keys(obj: dict, keys: Sequence[str], where: str) -> None:
    for key in keys:
        if key not in obj:
            raise FormatError(f"{where}: missing required field {key!r}")


# ---------------------------------------------------------------------------
# Catalog CSV


def load_catalog(path) -> ToolCatalog:
    """Parse a catalog CSV, validating header, ranges, and id ordering."""
    lines = _read_text(path).splitlines()
    if not lines:
        raise FormatError(f"{path}: empty catalog file")
    header = lines[0]
    if header != CATALOG_HEADER:
        expected_cols = CATALOG_HEADER.split(",")
        found_cols = header.split(",")
        detail = f"expected {len(expected_cols)} columns, found {len(found_cols)}"
        for i, want in enumerate(expected_cols):
            got = found_cols[i] if i < len(found_cols) else "<missing>"
            if got != want:
                detail = f"first mismatch at column {i}: expected {want!r}, found {got!r}"
                break
        raise FormatError(
            f"{path}: catalog header mismatch ({detail}); "
            f"expected header: {CATALOG_HEADER!r}; found: {header!r}"
        )

    tools: list[ToolRecord] = []
    seen: set[int] = set()
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != 2 + NUM_ATTRIBUTES:
            raise FormatError(
                f"{path}: row {lineno}: expected {2 + NUM_ATTRIBUTES} fields, found {len(fields)}"
            )
        try:
            tool_id = int(fields[0])
        except ValueError:
            raise FormatError(f"{path}: row {lineno}: tool_id {fields[0]!r} is not an integer") from None
        if tool_id in seen:
            raise FormatError(f"{path}: row {lineno}: duplicate tool_id {tool_id}")
        seen.add(tool_id)
        values = np.empty(NUM_ATTRIBUTES)
        for j, raw in enumerate(fields[2:]):
            col = ATTRIBUTE_NAMES[j]
            try:
                v = float(raw)
            except ValueError:
                raise FormatError(
                    f"{path}: row {lineno}, column {col!r}: value {raw!r} is not a number"
                ) from None
            if not np.isfinite(v):
                raise FormatError(f"{path}: row {lineno}, column {col!r}: value must be finite")
            if not 1.0 <= v <= 7.0:
                raise FormatError(
                    f"{path}: row {lineno}, column {col!r}: value {raw} outside [1, 7]"
                )
            values[j] = v
        tools.append(ToolRecord(tool_id=tool_id, tool_name=fields[1], attributes=values))

    try:
        return ToolCatalog(tools)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None


def rounded_truths(catalog: ToolCatalog) -> dict[int, np.ndarray]:
    """Integer-rounded truth vector per tool, using the metric rounding rule."""
    return {t.tool_id: round_half_up_clamped(t.attributes) for t in catalog}


def save_catalog(catalog: ToolCatalog, path) -> None:
    """Write a catalog CSV that load_catalog accepts byte-for-byte."""
    rows = [CATALOG_HEADER]
    for tool in catalog:
        if any(ch in tool.tool_name for ch in ',"\r\n'):
            raise FormatError(
                f"tool {tool.tool_id}: name {tool.tool_name!r} contains a CSV delimiter"
            )
        cells = [str(tool.tool_id), tool.tool_name] + [repr(float(v)) for v in tool.attributes]
        rows.append(",".join(cells))
    Path(path).write_text("\n".join(rows) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Binary embedding files + JSONL manifests


def write_embeddings(records: Sequence[EmbeddingRecord], path, manifest_path) -> None:
    """Write embeddings as little-endian binary plus a JSONL split manifest."""
    dim = records[0].embedding.shape[0] if records else 0
    seen: set[int] = set()
    for rec in records:
        if rec.embedding.shape[0] != dim:
            raise FormatError(
                f"item {rec.item_id}: dimension {rec.embedding.shape[0]} differs from first record's {dim}"
            )
        if rec.item_id in seen:
            raise FormatError(f"duplicate item_id {rec.item_id}")
        seen.add(rec.item_id)

    parts = [struct.pack("<4sIIQ", EMBEDDING_MAGIC, EMBEDDING_VERSION, dim, len(records))]
    manifest_lines = []
    for rec in records:
        parts.append(struct.pack("<Q", rec.item_id))
        parts.append(np.asarray(rec.embedding, dtype="<f4").tobytes())
        manifest_lines.append(json.dumps(
            {"item_id": rec.item_id, "tool_id": rec.tool_id, "split": rec.split},
            separators=(",", ":"),
        ))
    Path(path).write_bytes(b"".join(parts))
    Path(manifest_path).write_text(
        "".join(line + "\n" for line in manifest_lines), encoding="utf-8"
    )


def read_embeddings(path, manifest_path) -> EmbeddingSet:
    """Load a binary embedding file and its manifest into an embedding set.

    Stored 32-bit values are widened to 64-bit for all downstream math.
    """
    data = Path(path).read_bytes()
    if len(data) < _EMBEDDING_HEADER_BYTES:
        raise FormatError(
            f"{path}: truncated header: expected at least {_EMBEDDING_HEADER_BYTES} bytes, "
            f"found {len(data)}"
        )
    if data[:4] != EMBEDDING_MAGIC:
        raise FormatError(
            f"{path}: bad magic bytes {data[:4]!r}, expected {EMBEDDING_MAGIC!r}"
        )
    version = int(np.frombuffer(data, dtype="<u4", count=1, offset=4)[0])
    if version != EMBEDDING_VERSION:
        raise FormatError(f"{path}: unsupported version {version}, expected {EMBEDDING_VERSION}")
    dim = int(np.frombuffer(data, dtype="<u4", count=1, offset=8)[0])
    count = int(np.frombuffer(data, dtype="<u8", count=1, offset=12)[0])
    expected = _EMBEDDING_HEADER_BYTES + count * (8 + 4 * dim)
    if len(data) != expected:
        raise FormatError(
            f"{path}: length mismatch for dim={dim}, count={count}: "
            f"expected {expected} bytes, found {len(data)}"
        )
    if count == 0:
        raise FormatError(f"{path}: embedding file contains no records")

    record_dtype = np.dtype([("item_id", "<u8"), ("vec", "<f4", (dim,))])
    raw = np.frombuffer(data, dtype=record_dtype, count=count, offset=_EMBEDDING_HEADER_BYTES)
    ids = [int(i) for i in raw["item_id"]]
    if len(set(ids)) != len(ids):
        dup = next(i for i in ids if ids.count(i) > 1)
        raise FormatError(f"{path}: duplicate item_id {dup}")

    meta: dict[int, tuple[int, str]] = {}
    id_set = set(ids)
    for lineno, obj in _jsonl_lines(manifest_path):
        _require_keys(obj, ("item_id", "tool_id", "split"), f"{manifest_path}: line {lineno}")
        item_id = int(obj["item_id"])
        if item_id not in id_set:
            raise FormatError(
                f"{manifest_path}: line {lineno}: manifest references unknown item_id {item_id}"
            )
        if item_id in meta:
            raise FormatError(f"{manifest_path}: line {lineno}: duplicate manifest entry for item_id {item_id}")
        split = obj["split"]
        if split not in VALID_SPLITS:
            raise FormatError(
                f"{manifest_path}: line {lineno}: split must be one of {VALID_SPLITS}, got {split!r}"
            )
        meta[item_id] = (int(obj["tool_id"]), split)
    missing = id_set - set(meta)
    if missing:
        raise FormatError(f"{path}: item_id {min(missing)} missing from manifest")

    records = [
        EmbeddingRecord(
            item_id=item_id,
            tool_id=meta[item_id][0],
            split=meta[item_id][1],
            embedding=raw["vec"][i].astype(np.float64),
        )
        for i, item_id in enumerate(ids)
    ]
    return EmbeddingSet(records)


# ---------------------------------------------------------------------------
# Scenario and trial JSONL


def write_scenarios(scenarios: Sequence[ScenarioRecord], path) -> None:
    lines = [
        json.dumps(
            {"scenario_id": s.scenario_id, "tool_id": s.tool_id, "text": s.text, "item_id": s.item_id},
            separators=(",", ":"),
        )
        for s in scenarios
    ]
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def read_scenarios(path, catalog: ToolCatalog | None = None) -> list[ScenarioRecord]:
    scenarios: list[ScenarioRecord] = []
    seen_ids: set[int] = set()
    seen_items: set[int] = set()
    for lineno, obj in _jsonl_lines(path):
        _require_keys(obj, ("scenario_id", "tool_id", "text", "item_id"), f"{path}: line {lineno}")
        sid = int(obj["scenario_id"])
        item_id = int(obj["item_id"])
        if sid in seen_ids:
            raise FormatError(f"{path}: line {lineno}: duplicate scenario_id {sid}")
        if item_id in seen_items:
            raise FormatError(f"{path}: line {lineno}: duplicate item_id {item_id}")
        seen_ids.add(sid)
        seen_items.add(item_id)
        tool_id = int(obj["tool_id"])
        if catalog is not None and tool_id not in catalog:
            raise FormatError(f"{path}: line {lineno}: tool_id {tool_id} not in catalog")
        scenarios.append(
            ScenarioRecord(scenario_id=sid, tool_id=tool_id, text=str(obj["text"]), item_id=item_id)
        )
    return scenarios


def write_trials(trials: Sequence[MatchingTrial], path) -> None:
    lines = [
        json.dumps(
            {
                "trial_id": t.trial_id,
                "scenario_item_id": t.scenario_item_id,
                "candidate_item_ids": list(t.candidate_item_ids),
                "target_position": t.target_position,
            },
            separators=(",", ":"),
        )
        for t in trials
    ]
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def read_trials(path) -> list[MatchingTrial]:
    trials: list[MatchingTrial] = []
    seen: set[int] = set()
    for lineno, obj in _jsonl_lines(path):
        _require_keys(
            obj,
            ("trial_id", "scenario_item_id", "candidate_item_ids", "target_position"),
            f"{path}: line {lineno}",
        )
        trial_id = int(obj["trial_id"])
        if trial_id in seen:
            raise FormatError(f"{path}: line {lineno}: duplicate trial_id {trial_id}")
        seen.add(trial_id)
        try:
            trials.append(
                MatchingTrial(
                    trial_id=trial_id,
                    scenario_item_id=int(obj["scenario_item_id"]),
                    candidate_item_ids=tuple(int(i) for i in obj["candidate_item_ids"]),
                    target_position=int(obj["target_position"]),
                )
            )
        except ValueError as exc:
            raise FormatError(f"{path}: line {lineno}: {exc}") from None
    return trials


# ---------------------------------------------------------------------------
# Checkpoints


def _encode_array(arr: np.ndarray) -> list[str]:
    return [repr(float(v)) for v in arr.reshape(-1)]


def _decode_array(values, shape: tuple[int, ...], where: str) -> np.ndarray:
    size = int(np.prod(shape))
    if not isinstance(values, list) or len(values) != size:
        found = len(values) if isinstance(values, list) else f"type {type(values).__name__}"
        raise FormatError(f"{where}: expected {size} values, found {found}")
    try:
        arr = np.array([float(v) for v in values], dtype=np.float64)
    except (TypeError, ValueError):
        raise FormatError(f"{where}: values must be decimal strings") from None
    if not np.isfinite(arr).all():
        raise FormatError(f"{where}: non-finite parameter value")
    return arr.reshape(shape)


def save_checkpoint(trained: TrainedHead, path) -> None:
    """Serialize a trained head to JSON with bit-exact parameter strings."""
    head = trained.head
    groups = []
    for i, layer in enumerate(head.layers):
        group = {"weights": _encode_array(layer.weights), "bias": _encode_array(layer.bias)}
        if i < len(head.layers) - 1:
            norm = head.norms[i]
            group["gamma"] = _encode_array(norm.gamma)
            group["beta"] = _encode_array(norm.beta)
        groups.append(group)
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "pathway": trained.config.pathway,
        "layer_dims": list(head.layer_dims),
        "seed": trained.config.seed,
        "config": trained.config.to_dict(),
        "best_validation_mse": repr(float(trained.best_validation_mse)),
        "epochs_run": trained.epochs_run,
        "parameters": groups,
    }
    Path(path).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def load_checkpoint(path) -> TrainedHead:
    """Rebuild a TrainedHead from a checkpoint (the training log is not persisted)."""
    try:
        doc = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON: {exc.msg}") from None
    _require_keys(
        doc,
        ("format_version", "pathway", "layer_dims", "seed", "config",
         "best_validation_mse", "epochs_run", "parameters"),
        str(path),
    )
    if doc["format_version"] != CHECKPOINT_VERSION:
        raise FormatError(
            f"{path}: unsupported format_version {doc['format_version']}, "
            f"expected {CHECKPOINT_VERSION}"
        )
    try:
        config = HeadConfig(**doc["config"])
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{path}: invalid config echo: {exc}") from None
    try:
        dims = validate_layer_dims(doc["layer_dims"])
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None
    if dims != config.layer_dims or doc["pathway"] != config.pathway or doc["seed"] != config.seed:
        raise FormatError(f"{path}: top-level fields disagree with the config echo")

    groups = doc["parameters"]
    n_layers = len(dims) - 1
    if not isinstance(groups, list) or len(groups) != n_layers:
        raise FormatError(f"{path}: expected {n_layers} parameter groups, found {len(groups)}")
    layers: list[DenseLayer] = []
    norms: list[LayerNormParams] = []
    for i, group in enumerate(groups):
        fan_in, fan_out = dims[i], dims[i + 1]
        hidden = i < n_layers - 1
        allowed = {"weights", "bias", "gamma", "beta"} if hidden else {"weights", "bias"}
        _require_keys(group, sorted(allowed), f"{path}: layer {i}")
        extra = set(group) - allowed
        if extra:
            raise FormatError(f"{path}: layer {i}: unexpected field {sorted(extra)[0]!r}")
        w = _decode_array(group["weights"], (fan_out, fan_in), f"{path}: layer {i} weights")
        b = _decode_array(group["bias"], (fan_out,), f"{path}: layer {i} bias")
        layers.append(DenseLayer(w, b))
        if hidden:
            gamma = _decode_array(group["gamma"], (fan_out,), f"{path}: layer {i} gamma")
            beta = _decode_array(group["beta"], (fan_out,), f"{path}: layer {i} beta")
            norms.append(LayerNormParams(gamma, beta, LAYER_NORM_EPSILON))

    head = MlpHead(layer_dims=dims, layers=layers, norms=norms, rng_seed=int(doc["seed"]))
    try:
        best = float(doc["best_validation_mse"])
    except (TypeError, ValueError):
        raise FormatError(f"{path}: best_validation_mse is not a decimal string") from None
    return TrainedHead(
        head=head,
        config=config,
        best_validation_mse=best,
        epochs_run=int(doc["epochs_run"]),
        training_log=[],
    )


# ---------------------------------------------------------------------------
# Fingerprints


def sha256_file(path) -> str:
    """Hex SHA-256 of a file's bytes, streamed in chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
