"""Persistent file formats: catalog CSV, binary embeddings with JSONL
manifests, scenario and trial JSONL, and JSON head checkpoints.

Every reader validates strictly and rejects rather than coercing: exact
header match, exact byte-length equation, no NaN passthrough, no column
reordering. Checkpoints store parameters as decimal strings produced by
``repr`` so 64-bit values round-trip bit-exactly through JSON.

A JSONL writer fills one ``%`` template per line. The template gives the
bytes of ``json.dumps`` with ``(",", ":")`` separators, in the writer's key
order, with a line feed after each line. Text goes through
``encode_basestring_ascii``, as in ``json.dumps``.

A JSONL reader accepts any JSON object per line. It first types the file
into line numbers and one column per field: with one pattern match over the
whole text if every line is in that compact form, else line by line. One
check per kind then names the file and the line of the first bad row.
"""

from __future__ import annotations

import hashlib
import json
import re
import struct
from json.encoder import encode_basestring_ascii
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
from toolmatch.nn import MlpHead, validate_layer_dims
from toolmatch.training import HeadConfig, TrainedHead

CATALOG_HEADER = "tool_id,tool_name," + ",".join(ATTRIBUTE_NAMES)
_DECIMAL = re.compile(r"[0-9]+(?:\.[0-9]+)?")  # an attribute cell, as save_catalog writes it

EMBEDDING_MAGIC = b"FEMB"
EMBEDDING_VERSION = 1
_EMBEDDING_HEADER_BYTES = 20  # magic 4 + version 4 + dim 4 + count 8

CHECKPOINT_VERSION = 1
# Names of a checkpoint layer's parameter arrays, in canonical order; the
# output layer has only the first two.
_PARAMETER_NAMES = ("weights", "bias", "gamma", "beta")


class FormatError(ValueError):
    """A file failed validation; the message says where and why."""


def _decode(data: bytes, path) -> str:
    """``data``, read from ``path``, as UTF-8 text; any other byte is a FormatError naming the line."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise FormatError(f"{path}: line {line}: not UTF-8 text: byte 0x{data[exc.start]:02x} "
                          f"at offset {exc.start}") from None


def _read_text(path) -> str:
    """The file's text with its line endings as stored; ``_split_lines`` takes each kind."""
    return _decode(Path(path).read_bytes(), path)


_LINE_END = re.compile(r"\r\n|\r|\n")


def _split_lines(text: str) -> list[str]:
    """The lines of ``text``, each ended by ``\\n``, ``\\r\\n`` or ``\\r`` only.

    ``str.splitlines`` also ends one at U+2028, U+0085, 0x0c and five more
    characters that a tool name or a JSON string may hold.
    """
    lines = _LINE_END.split(text)
    return lines[:-1] if lines[-1] == "" else lines


def _loads(text: str, where: str):
    """``json.loads(text)``; any failure is a FormatError that starts with ``where``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{where}: invalid JSON: {exc.msg}") from None
    except ValueError as exc:  # an integer longer than the interpreter's digit limit
        raise FormatError(f"{where}: unreadable JSON number: {exc}") from None


def _jsonl_lines(path, text: str) -> Iterable[tuple[int, dict]]:
    """Yield (line_number, parsed object) for each non-empty line of ``text``, read from ``path``."""
    for lineno, line in enumerate(_split_lines(text), start=1):
        if not line.strip():
            continue
        obj = _loads(line, f"{path}: line {lineno}")
        if not isinstance(obj, dict):
            raise FormatError(f"{path}: line {lineno}: expected a JSON object")
        yield lineno, obj


# One pattern per JSONL kind: a line exactly as its writer emits it. An
# integer has no sign or leading zero; a manifest id has at most 18 digits,
# so it always fits int64; scenario text is printable ASCII without an escape.
_NUM = "(?:0|[1-9][0-9]*)"
_INT, _ID = f"({_NUM})", "(0|[1-9][0-9]{0,17})"
_MANIFEST_ROW = re.compile(r'^\{"item_id":%s,"tool_id":%s,"split":"(%s)"\}\n'
                           % (_ID, _ID, "|".join(map(re.escape, VALID_SPLITS))), re.M)
_SCENARIO_ROW = re.compile(r'^\{"scenario_id":%s,"tool_id":%s,"text":"([ !#-\[\]-~]*)","item_id":%s\}\n'
                           % (_INT, _INT, _INT), re.M)
_TRIAL_ROW = re.compile(r'^\{"trial_id":%s,"scenario_item_id":%s,"candidate_item_ids":\[(%s(?:,%s)*)\],'
                        r'"target_position":%s\}\n' % (_INT, _INT, _NUM, _NUM, _INT), re.M)


def _compact_rows(pattern: re.Pattern, text: str) -> list[tuple[str, ...]] | None:
    """The groups of every line if each line of ``text`` is one ``pattern`` match, else None.

    A match starts at a line start and ends at its only newline, so as many
    matches as newlines, with one at the end of the text, cover every line.
    """
    rows = pattern.findall(text)
    return rows if text.endswith("\n") and len(rows) == text.count("\n") else None


_JSON_KINDS = {  # (one, many)
    int: ("an integer", "integers"), np.int64: ("a 64-bit signed integer", "64-bit signed integers"),
    float: ("a number", "numbers"), str: ("a string", "strings"),
    list: ("a list", "lists"), dict: ("an object", "objects"),
}
_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1


def _is_kind(value, kind: type) -> bool:
    """Whether a parsed JSON value has one JSON type; true and false are never numbers."""
    if kind is int:
        return type(value) is int
    if kind is np.int64:
        return type(value) is int and _INT64_MIN <= value <= _INT64_MAX
    if kind is float:
        return type(value) in (int, float)
    return type(value) is kind


def _field(obj: dict, key: str, kind: type, where: str, of: type | None = None):
    """``obj[key]`` if present with JSON type ``kind`` (a list's items type ``of``), else FormatError.

    A float, string or boolean is never an integer. Kind ``np.int64`` is an
    integer that also fits the int64 columns of an embedding set.
    """
    try:
        value = obj[key]
    except KeyError:
        raise FormatError(f"{where}: missing required field {key!r}") from None
    if not (_is_kind(value, kind) and (of is None or all(_is_kind(v, of) for v in value))):
        want = _JSON_KINDS[kind][0] + (f" of {_JSON_KINDS[of][1]}" if of else "")
        raise FormatError(f"{where}: field {key!r} must be {want}, got {json.dumps(value)[:40]}")
    return value


# The fields of each JSONL kind, in the order of its pattern's groups: key -> (JSON type, item type).
_MANIFEST_FIELDS = {"item_id": (np.int64, None), "tool_id": (np.int64, None), "split": (str, None)}
_SCENARIO_FIELDS = {"scenario_id": (int, None), "tool_id": (int, None),
                    "text": (str, None), "item_id": (int, None)}
_TRIAL_FIELDS = {"trial_id": (int, None), "scenario_item_id": (int, None),
                 "candidate_item_ids": (list, int), "target_position": (int, None)}


def _compact_column(cells: tuple[str, ...], kind: type, of: type | None) -> Sequence:
    """A pattern group's cells typed as ``_field`` types them (a list of integers is comma-joined)."""
    if kind is str:
        return cells
    if kind is np.int64:  # at most 18 digits, which numpy parses faster than int
        return np.array(cells, dtype=np.int64)
    if of is not None:
        return [list(map(int, c.split(","))) for c in cells]
    return list(map(int, cells))


def _jsonl_columns(path, pattern: re.Pattern, fields: dict) -> tuple[Sequence[int], list]:
    """(line numbers, one typed column per field) of the JSONL file at ``path``.

    A compact file is typed column by column, any other line by line. A
    compact file with an integer past the interpreter's digit limit is read
    line by line too, so that ``_loads`` names the line.
    """
    text = _read_text(path)
    rows = _compact_rows(pattern, text)
    if rows is not None:
        try:
            return range(1, len(rows) + 1), [_compact_column(cells, *kind)
                                             for cells, kind in zip(zip(*rows), fields.values())]
        except ValueError:
            pass
    lines, values = [], []
    for lineno, obj in _jsonl_lines(path, text):
        where = f"{path}: line {lineno}"
        values.append([_field(obj, key, kind, where, of) for key, (kind, of) in fields.items()])
        lines.append(lineno)
    return lines, list(zip(*values)) or [()] * len(fields)


# ---------------------------------------------------------------------------
# Catalog CSV


def load_catalog(path) -> ToolCatalog:
    """Parse a catalog CSV, validating header, ranges, and id ordering."""
    lines = _split_lines(_read_text(path))
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
        if not (fields[0].isascii() and fields[0].isdigit()):
            raise FormatError(f"{path}: row {lineno}: tool_id {fields[0]!r} is not a non-negative integer")
        try:
            tool_id = int(fields[0])
        except ValueError as exc:  # longer than the interpreter's digit limit
            raise FormatError(f"{path}: row {lineno}: tool_id: {exc}") from None
        if tool_id in seen:
            raise FormatError(f"{path}: row {lineno}: duplicate tool_id {tool_id}")
        seen.add(tool_id)
        values = np.empty(NUM_ATTRIBUTES)
        for j, raw in enumerate(fields[2:]):
            col = ATTRIBUTE_NAMES[j]
            if not _DECIMAL.fullmatch(raw):  # float() would take "0_5", " 4.0 ", "nan" and "1e0"
                raise FormatError(
                    f"{path}: row {lineno}, column {col!r}: value {raw!r} is not a number "
                    "written as digits with an optional fraction"
                )
            v = float(raw)  # finite unless past 1e308, which the range check rejects
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


_MANIFEST_LINE = '{"item_id":%d,"tool_id":%d,"split":"%s"}\n'  # json.dumps(..., separators=(",", ":"))


def write_embeddings(embeddings: EmbeddingSet | Sequence[EmbeddingRecord], path, manifest_path) -> None:
    """Write embeddings as little-endian binary plus a JSONL split manifest.

    A set is written in ascending item id order, a sequence of records in
    its own order (an empty one gives a header-only file).
    """
    if isinstance(embeddings, EmbeddingSet):
        order = embeddings.ascending_rows()
    elif embeddings:
        try:
            embeddings, order = EmbeddingSet(embeddings), None
        except ValueError as exc:
            raise FormatError(str(exc)) from None
    else:
        with open(path, "wb") as fh:
            fh.write(struct.pack("<4sIIQ", EMBEDDING_MAGIC, EMBEDDING_VERSION, 0, 0))
        Path(manifest_path).write_text("", encoding="utf-8")
        return
    ids, tools, codes, vectors = (embeddings.item_ids, embeddings.tool_ids,
                                  embeddings.split_codes, embeddings.vectors)
    rank = slice(None)
    if order is not None:
        ids, tools, codes, rank = ids[order], tools[order], codes[order], np.argsort(order)
    count, dim = vectors.shape
    block = np.empty(count, dtype=[("item_id", "<u8"), ("vec", "<f4", (dim,))])
    block["item_id"] = ids
    block["vec"][rank] = vectors  # scattered into place: no sorted copy of the matrix
    names = [VALID_SPLITS[c] for c in codes.tolist()]
    lines = [_MANIFEST_LINE % row for row in zip(ids.tolist(), tools.tolist(), names)]
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sIIQ", EMBEDDING_MAGIC, EMBEDDING_VERSION, dim, count))
        block.tofile(fh)
    Path(manifest_path).write_text("".join(lines), encoding="utf-8")


def read_embeddings(path, manifest_path) -> EmbeddingSet:
    """Load a binary embedding file and its manifest into an embedding set.

    Rows keep the file's order. Stored 32-bit values are widened to 64-bit
    for all downstream math.
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
    if dim == 0:
        raise FormatError(f"{path}: embedding dimension is 0")

    record_dtype = np.dtype([("item_id", "<u8"), ("vec", "<f4", (dim,))])
    raw = np.frombuffer(data, dtype=record_dtype, count=count, offset=_EMBEDDING_HEADER_BYTES)
    if int(raw["item_id"].max()) > _INT64_MAX:
        raise FormatError(f"{path}: item_id {int(raw['item_id'].max())} exceeds 2**63 - 1")
    ids = raw["item_id"].astype(np.int64)
    unique, counts = np.unique(ids, return_counts=True)
    if len(unique) != count:
        raise FormatError(f"{path}: duplicate item_id {unique[counts > 1][0]}")

    tool_ids, splits = _manifest_columns(path, manifest_path, ids)
    return EmbeddingSet.from_arrays(ids, tool_ids, splits, raw["vec"].astype(np.float64))


def _manifest_columns(path, manifest_path, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(tool ids, split names) by row of the embedding file ``path``, whose distinct ids are ``ids``."""
    lines, (items, tools, splits) = _jsonl_columns(manifest_path, _MANIFEST_ROW, _MANIFEST_FIELDS)
    items = np.asarray(items, dtype=np.int64)
    by_id = np.argsort(ids)
    at = np.searchsorted(ids[by_id], items).clip(max=len(ids) - 1)  # where each line's id sorts
    unknown = ids[by_id[at]] != items
    repeated = np.ones(len(items), dtype=bool)
    repeated[np.unique(items, return_index=True)[1]] = False  # every line but an id's first
    bad = unknown | repeated | np.array([s not in VALID_SPLITS for s in splits], dtype=bool)
    if bad.any():
        row = int(bad.argmax())
        where, item_id = f"{manifest_path}: line {lines[row]}", items[row]
        if unknown[row]:
            raise FormatError(f"{where}: manifest references unknown item_id {item_id}")
        if repeated[row]:
            raise FormatError(f"{where}: duplicate manifest entry for item_id {item_id}")
        raise FormatError(f"{where}: split must be one of {VALID_SPLITS}, got {splits[row]!r}")
    if len(items) < len(ids):
        raise FormatError(f"{path}: item_id {np.setdiff1d(ids, items).min()} missing from manifest")
    order = np.empty_like(by_id)
    order[by_id[at]] = np.arange(len(ids))  # file row r is described by line order[r]
    return np.asarray(tools, dtype=np.int64)[order], np.array(splits)[order]


# ---------------------------------------------------------------------------
# Scenario and trial JSONL


# One line of each kind as json.dumps(..., separators=(",", ":")) writes it; a
# template takes exact ints only, since "%d" writes True as 1 and 1.5 as 1.
_SCENARIO_LINE = '{"scenario_id":%d,"tool_id":%d,"text":%s,"item_id":%d}\n'
_TRIAL_LINE = '{"trial_id":%d,"scenario_item_id":%d,"candidate_item_ids":[%s],"target_position":%d}\n'


def write_scenarios(scenarios: Sequence[ScenarioRecord], path) -> None:
    """Write scenarios as compact JSONL, one object per line in the given order."""
    lines = []
    for s in scenarios:
        if not (type(s.scenario_id) is type(s.tool_id) is type(s.item_id) is int and isinstance(s.text, str)):
            raise FormatError(f"scenario {s.scenario_id!r}: ids must be integers and text a string")
        lines.append(_SCENARIO_LINE % (s.scenario_id, s.tool_id, encode_basestring_ascii(s.text), s.item_id))
    Path(path).write_text("".join(lines), encoding="utf-8")


def read_scenarios(path, catalog: ToolCatalog | None = None) -> list[ScenarioRecord]:
    """The scenarios of a JSONL file; with a catalog, every tool_id must be in it."""
    lines, columns = _jsonl_columns(path, _SCENARIO_ROW, _SCENARIO_FIELDS)
    scenarios: list[ScenarioRecord] = []
    seen_ids: set[int] = set()
    seen_items: set[int] = set()
    for lineno, sid, tool_id, text, item_id in zip(lines, *columns):
        try:
            if sid in seen_ids:
                raise ValueError(f"duplicate scenario_id {sid}")
            if item_id in seen_items:
                raise ValueError(f"duplicate item_id {item_id}")
            if catalog is not None and tool_id not in catalog:
                raise ValueError(f"tool_id {tool_id} not in catalog")
            scenarios.append(ScenarioRecord(sid, tool_id, text, item_id))
        except ValueError as exc:
            raise FormatError(f"{path}: line {lineno}: {exc}") from None
        seen_ids.add(sid)
        seen_items.add(item_id)
    return scenarios


def write_trials(trials: Sequence[MatchingTrial], path) -> None:
    """Write trials as compact JSONL, one object per line in the given order."""
    lines = []
    for t in trials:
        ids = (t.trial_id, t.scenario_item_id, t.target_position, *t.candidate_item_ids)
        if set(map(type, ids)) != {int}:
            raise FormatError(f"trial {t.trial_id!r}: ids and target_position must be integers")
        lines.append(_TRIAL_LINE % (t.trial_id, t.scenario_item_id, ",".join(map(str, t.candidate_item_ids)),
                                    t.target_position))
    Path(path).write_text("".join(lines), encoding="utf-8")


def read_trials(path) -> list[MatchingTrial]:
    """The matching trials of a JSONL file; trial ids are distinct."""
    lines, columns = _jsonl_columns(path, _TRIAL_ROW, _TRIAL_FIELDS)
    trials: list[MatchingTrial] = []
    seen: set[int] = set()
    for lineno, trial_id, scenario_item_id, candidates, target_position in zip(lines, *columns):
        try:
            if trial_id in seen:
                raise ValueError(f"duplicate trial_id {trial_id}")
            trials.append(MatchingTrial(trial_id, scenario_item_id, candidates, target_position))
        except ValueError as exc:
            raise FormatError(f"{path}: line {lineno}: {exc}") from None
        seen.add(trial_id)
    return trials


# ---------------------------------------------------------------------------
# Checkpoints


def _encode_array(arr: np.ndarray) -> list[str]:
    return [repr(float(v)) for v in arr.reshape(-1)]


# One parameter array as ``json.dumps(doc, indent=1)`` writes it in its group:
# the name, then the array's quoted strings joined by ``_ARRAY_SEPARATOR``.
_ARRAY_BLOCK = '   "%s": [\n    "%s"\n   ]'
_ARRAY_SEPARATOR = '",\n    "'


def _decimal_strings(group: dict, key: str, size: int, where: str) -> list:
    """The field's list of ``size`` values; ``_parse_decimals`` checks that each is a string."""
    values = _field(group, key, list, where)
    if len(values) != size:
        raise FormatError(f"{where} {key}: expected {size} values, found {len(values)}")
    return values


_REPR_CHARS = b"0123456789.e+-infa"  # every character repr writes for a float


def _parse_decimals(strings: list) -> np.ndarray | None:
    """The floats written as ``strings``, or None if one is not a string ``repr`` could write.

    ``float`` alone also takes underscores between digits, whitespace around
    a number and non-ASCII digits. One join and one pass over its bytes rule
    those out at a small part of the cost of a pattern match per string; the
    join also fails on a value that is not a string.
    """
    try:
        joined = "".join(strings)
    except TypeError:
        return None
    if not joined.isascii() or joined.encode("ascii").translate(None, _REPR_CHARS):
        return None
    try:
        return np.fromiter(map(float, strings), dtype=np.float64, count=len(strings))
    except ValueError:
        return None


def save_checkpoint(trained: TrainedHead, path) -> None:
    """Serialize a trained head to JSON with bit-exact parameter strings.

    The text is ``json.dumps(doc, indent=1)`` of the whole document, with
    ``"parameters"`` last. Indentation sends ``json.dumps`` to its pure-Python
    encoder, so only the small fields go through it; each parameter array is
    joined into its block from ``_ARRAY_BLOCK``, as a ``repr`` string needs no
    JSON escaping.
    """
    head = trained.head
    params = head.parameters()
    groups = ["  {\n" + ",\n".join(_ARRAY_BLOCK % (name, _ARRAY_SEPARATOR.join(_encode_array(p)))
                                    for name, p in zip(_PARAMETER_NAMES, params[4 * k:4 * k + 4]))
              + "\n  }" for k in range(len(head.layer_dims) - 1)]
    fields = {
        "format_version": CHECKPOINT_VERSION,
        "pathway": trained.config.pathway,
        "layer_dims": list(head.layer_dims),
        "seed": trained.config.seed,
        "config": trained.config.to_dict(),
        "best_validation_mse": repr(float(trained.best_validation_mse)),
        "epochs_run": trained.epochs_run,
    }
    text = json.dumps(fields, indent=1)[:-2] + ',\n "parameters": [\n' + ",\n".join(groups) + "\n ]\n}\n"
    Path(path).write_text(text, encoding="utf-8")


# JSON type of each field of a checkpoint's config echo (HeadConfig.to_dict).
_CONFIG_FIELDS = {
    "pathway": (str, None), "layer_dims": (list, int), "learning_rate": (float, None),
    "batch_size": (int, None), "max_epochs": (int, None), "patience": (int, None),
    "validation_fraction": (float, None), "seed": (int, None),
}


def load_checkpoint(path) -> TrainedHead:
    """Rebuild a TrainedHead from a checkpoint (the training log is not persisted)."""
    where = str(path)
    doc = _loads(_read_text(path), where)
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: expected a JSON object")
    version = _field(doc, "format_version", int, where)
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"{path}: unsupported format_version {version}, expected {CHECKPOINT_VERSION}")
    echo = _field(doc, "config", dict, where)
    for key, (kind, of) in _CONFIG_FIELDS.items():
        if key in echo:
            _field(echo, key, kind, f"{path}: config", of)
    try:
        config = HeadConfig(**echo)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{path}: invalid config echo: {exc}") from None
    try:
        dims = validate_layer_dims(_field(doc, "layer_dims", list, where, of=int))
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None
    pathway = _field(doc, "pathway", str, where)
    seed = _field(doc, "seed", int, where)
    if dims != config.layer_dims or pathway != config.pathway or seed != config.seed:
        raise FormatError(f"{path}: top-level fields disagree with the config echo")

    groups = _field(doc, "parameters", list, where, of=dict)
    n_layers = len(dims) - 1
    if len(groups) != n_layers:
        raise FormatError(f"{path}: expected {n_layers} parameter groups, found {len(groups)}")
    fields = []  # (where, name, decimal strings) per parameter array, in canonical order
    for i, group in enumerate(groups):
        names = _PARAMETER_NAMES if i < n_layers - 1 else _PARAMETER_NAMES[:2]
        at = f"{path}: layer {i}"
        extra = set(group) - set(names)
        if extra:
            raise FormatError(f"{at}: unexpected field {sorted(extra)[0]!r}")
        sizes = (dims[i + 1] * dims[i],) + (dims[i + 1],) * 3
        fields += [(at, name, _decimal_strings(group, name, size, at)) for name, size in zip(names, sizes)]
    parts = []
    for at, name, values in fields:
        part = _parse_decimals(values)
        if part is None:
            raise FormatError(f"{at}: field {name!r} must hold decimal strings only")
        if not np.isfinite(part).all():
            raise FormatError(f"{at} {name}: non-finite parameter value")
        parts.append(part)
    best = _parse_decimals([_field(doc, "best_validation_mse", str, where)])
    if best is None:
        raise FormatError(f"{path}: best_validation_mse is not a decimal string")
    if not best[0] >= 0.0:  # nan fails this too; inf is what an untrained head saves
        raise FormatError(f"{path}: best_validation_mse must be a non-negative MSE or inf, "
                          f"got {doc['best_validation_mse']!r}")
    epochs_run = _field(doc, "epochs_run", int, where)
    if not 0 <= epochs_run <= config.max_epochs:
        raise FormatError(f"{path}: epochs_run {epochs_run} not in [0, {config.max_epochs}] "
                          "(the config's max_epochs)")
    return TrainedHead(
        head=MlpHead(dims, np.concatenate(parts)),
        config=config,
        best_validation_mse=float(best[0]),
        epochs_run=epochs_run,
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
