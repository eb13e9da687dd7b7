"""File formats: the catalog CSV, the binary embedding container and its
manifest, scenario/trial JSONL, and bit-exact checkpoints."""

import json
import re

import numpy as np
import pytest

from toolmatch.domain import (
    ATTRIBUTE_NAMES,
    EmbeddingRecord,
    MatchingTrial,
    ScenarioRecord,
    ToolCatalog,
    ToolRecord,
)
from toolmatch.formats import (
    CATALOG_HEADER,
    FormatError,
    load_catalog,
    load_checkpoint,
    read_embeddings,
    read_scenarios,
    read_trials,
    save_catalog,
    save_checkpoint,
    sha256_file,
    write_embeddings,
    write_scenarios,
    write_trials,
)
from toolmatch.evaluation import round_half_up_clamped
from toolmatch.nn import init_head
from toolmatch.training import HeadConfig, TrainedHead, train_head
from toolmatch.domain import EmbeddingSet


# Characters at which str.splitlines ends a line; only \n, \r\n and \r end a row or a JSONL line.
OTHER_LINE_BREAKS = ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]


def small_catalog():
    return ToolCatalog(
        [
            ToolRecord(0, "hammer", np.linspace(1, 7, 13)),
            ToolRecord(3, "sponge", np.full(13, 4.25)),
        ]
    )


class TestCatalogCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "catalog.csv"
        catalog = small_catalog()
        save_catalog(catalog, path)
        loaded = load_catalog(path)
        assert loaded.tool_ids() == [0, 3]
        for tool in catalog:
            got = loaded.get(tool.tool_id)
            assert got.tool_name == tool.tool_name
            assert np.array_equal(got.attributes, tool.attributes)

    @pytest.mark.parametrize("char", OTHER_LINE_BREAKS)
    def test_round_trip_keeps_a_name_holding_another_line_break(self, tmp_path, char):
        path = tmp_path / "catalog.csv"
        save_catalog(ToolCatalog([ToolRecord(0, f"saw{char}blade", np.full(13, 4.0)),
                                  ToolRecord(1, "awl", np.full(13, 2.0))]), path)
        assert [t.tool_name for t in load_catalog(path)] == [f"saw{char}blade", "awl"]

    def test_header_names_every_attribute(self):
        assert CATALOG_HEADER.split(",") == ["tool_id", "tool_name"] + list(ATTRIBUTE_NAMES)

    def test_header_mismatch_names_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        cols = CATALOG_HEADER.split(",")
        cols[5] = "sharpness"
        path.write_text(",".join(cols) + "\n")
        with pytest.raises(FormatError, match="column 5.*expected 'smoothness'.*found 'sharpness'"):
            load_catalog(path)

    def test_missing_column_reported(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(CATALOG_HEADER.split(",")[:-1]) + "\n")
        with pytest.raises(FormatError, match="column 14.*'<missing>'"):
            load_catalog(path)

    def test_out_of_range_value_cites_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        row = ["7", "awl"] + ["4.0"] * 13
        row[2 + 4] = "7.3"  # texturedness
        path.write_text(CATALOG_HEADER + "\n" + ",".join(row) + "\n")
        with pytest.raises(FormatError, match=r"row 2, column 'texturedness': value 7.3 outside \[1, 7\]"):
            load_catalog(path)

    def test_non_numeric_value(self, tmp_path):
        path = tmp_path / "bad.csv"
        row = ["7", "awl"] + ["4.0"] * 13
        row[2] = "often"
        path.write_text(CATALOG_HEADER + "\n" + ",".join(row) + "\n")
        with pytest.raises(FormatError, match="column 'elongation'.*not a number"):
            load_catalog(path)

    def test_duplicate_tool_id(self, tmp_path):
        path = tmp_path / "bad.csv"
        row = ",".join(["7", "awl"] + ["4.0"] * 13)
        path.write_text(CATALOG_HEADER + "\n" + row + "\n" + row + "\n")
        with pytest.raises(FormatError, match="duplicate tool_id 7"):
            load_catalog(path)

    @pytest.mark.parametrize("raw", ["-1", "1_0", "+3", " 4", "x"])
    def test_tool_id_must_be_plain_digits(self, tmp_path, raw):
        # int() would take "1_0" as 10 and "+3" as 3; the reader rejects
        # rather than coercing, and names the file and the row.
        path = tmp_path / "bad.csv"
        good = ",".join(["0", "awl"] + ["4.0"] * 13)
        bad = ",".join([raw, "axe"] + ["4.0"] * 13)
        path.write_text(CATALOG_HEADER + "\n" + good + "\n" + bad + "\n")
        with pytest.raises(FormatError, match=re.escape(f"{path}: row 3: tool_id {raw!r}")):
            load_catalog(path)

    def test_tool_id_past_the_digit_limit(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(CATALOG_HEADER + "\n" + ",".join(["1" * 5000, "awl"] + ["4.0"] * 13) + "\n")
        with pytest.raises(FormatError, match=re.escape(f"{path}: row 2: tool_id: ") + ".*digits"):
            load_catalog(path)

    @pytest.mark.parametrize("raw", ["0_5", " 4.0 ", "4_0", "+4", "4.", ".5", "4e0", "nan", "inf", "\uff14"])
    def test_attribute_must_be_a_plain_decimal(self, tmp_path, raw):
        # float() would take "0_5" as 5.0 and " 4.0 " as 4.0.
        path = tmp_path / "bad.csv"
        row = ["0", "awl"] + ["4.0"] * 13
        row[2 + 3] = raw  # smoothness
        path.write_text(CATALOG_HEADER + "\n" + ",".join(row) + "\n")
        with pytest.raises(FormatError, match=re.escape(f"{path}: row 2, column 'smoothness': value {raw!r}")):
            load_catalog(path)

    @pytest.mark.parametrize("raw, value", [("4", 4.0), ("4.0", 4.0), ("3.25", 3.25), ("006.50", 6.5)])
    def test_attribute_decimal_forms_load(self, tmp_path, raw, value):
        path = tmp_path / "ok.csv"
        path.write_text(CATALOG_HEADER + "\n" + ",".join(["0", "awl", raw] + ["4.0"] * 12) + "\n")
        assert load_catalog(path).attributes_of(0)[0] == value

    def test_ids_must_ascend(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = [
            ",".join(["7", "awl"] + ["4.0"] * 13),
            ",".join(["3", "axe"] + ["4.0"] * 13),
        ]
        path.write_text(CATALOG_HEADER + "\n" + "\n".join(rows) + "\n")
        with pytest.raises(FormatError):
            load_catalog(path)

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(CATALOG_HEADER + "\n" + "1,awl,4.0\n")
        with pytest.raises(FormatError, match="expected 15 fields, found 3"):
            load_catalog(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(FormatError, match="empty catalog"):
            load_catalog(path)

    def test_blank_lines_tolerated(self, tmp_path):
        path = tmp_path / "ok.csv"
        row = ",".join(["1", "awl"] + ["4.0"] * 13)
        path.write_text(CATALOG_HEADER + "\n\n" + row + "\n\n")
        assert load_catalog(path).tool_ids() == [1]

    def test_name_with_comma_rejected_on_save(self, tmp_path):
        catalog = ToolCatalog([ToolRecord(0, "rock, large", np.full(13, 4.0))])
        with pytest.raises(FormatError, match="delimiter"):
            save_catalog(catalog, tmp_path / "x.csv")

    def test_rounded_truths_use_half_up(self):
        truths = round_half_up_clamped(small_catalog().attribute_matrix())
        assert list(truths[1]) == [4] * 13            # 4.25 rounds down
        # linspace(1,7,13) is exactly 1.0, 1.5, 2.0, ... halves go up
        assert list(truths[0]) == [1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7]


def two_records(dim=4):
    return [
        EmbeddingRecord(0, 0, "train", np.arange(dim, dtype=np.float64) + 0.25),
        EmbeddingRecord(9, 1, "test", -np.ones(dim)),
    ]


class TestEmbeddingFile:
    def test_file_length_equation(self, tmp_path):
        path = tmp_path / "e.bin"
        write_embeddings(two_records(dim=4), path, tmp_path / "m.jsonl")
        # 20-byte header + 2 records of (8-byte id + 4*4 payload)
        assert path.stat().st_size == 68

    def test_round_trip_preserves_f32_exactly(self, tmp_path):
        path, man = tmp_path / "e.bin", tmp_path / "m.jsonl"
        rng_vals = np.array([0.1, -2.5, 1e-7, 3.14159265358979])
        records = [EmbeddingRecord(5, 2, "train", rng_vals)]
        write_embeddings(records, path, man)
        loaded = read_embeddings(path, man)
        want = rng_vals.astype(np.float32).astype(np.float64)
        assert np.array_equal(loaded.vector(5), want)
        assert loaded.tool_of(5) == 2
        assert loaded.record(5).split == "train"

    def test_written_twice_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        write_embeddings(two_records(), a, tmp_path / "a.jsonl")
        write_embeddings(two_records(), b, tmp_path / "b.jsonl")
        assert a.read_bytes() == b.read_bytes()
        assert sha256_file(a) == sha256_file(b)

    def test_truncated_by_one_byte(self, tmp_path):
        path, man = tmp_path / "e.bin", tmp_path / "m.jsonl"
        write_embeddings(two_records(dim=4), path, man)
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(FormatError, match="expected 68 bytes, found 67"):
            read_embeddings(path, man)

    def test_one_trailing_byte(self, tmp_path):
        path, man = tmp_path / "e.bin", tmp_path / "m.jsonl"
        write_embeddings(two_records(dim=4), path, man)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="expected 68 bytes, found 69"):
            read_embeddings(path, man)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "e.bin"
        path.write_bytes(b"FEMB\x01")
        with pytest.raises(FormatError, match="truncated header"):
            read_embeddings(path, tmp_path / "m.jsonl")

    def test_bad_magic(self, tmp_path):
        path, man = tmp_path / "e.bin", tmp_path / "m.jsonl"
        write_embeddings(two_records(), path, man)
        data = bytearray(path.read_bytes())
        data[:4] = b"XEMB"
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="bad magic"):
            read_embeddings(path, man)

    def test_unsupported_version(self, tmp_path):
        path, man = tmp_path / "e.bin", tmp_path / "m.jsonl"
        write_embeddings(two_records(), path, man)
        data = bytearray(path.read_bytes())
        data[4] = 2
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="unsupported version 2"):
            read_embeddings(path, man)

    def test_empty_write_is_header_only_and_rejected_on_read(self, tmp_path):
        path, man = tmp_path / "e.bin", tmp_path / "m.jsonl"
        write_embeddings([], path, man)
        assert path.stat().st_size == 20
        with pytest.raises(FormatError, match="no records"):
            read_embeddings(path, man)

    def test_manifest_unknown_item(self, tmp_path):
        path, man = tmp_path / "e.bin", tmp_path / "m.jsonl"
        write_embeddings(two_records(), path, man)
        with open(man, "a") as fh:
            fh.write(json.dumps({"item_id": 77, "tool_id": 0, "split": "train"}) + "\n")
        with pytest.raises(FormatError, match="unknown item_id 77"):
            read_embeddings(path, man)

    def test_manifest_missing_item(self, tmp_path):
        path, man = tmp_path / "e.bin", tmp_path / "m.jsonl"
        write_embeddings(two_records(), path, man)
        lines = man.read_text().splitlines()
        man.write_text(lines[0] + "\n")
        with pytest.raises(FormatError, match="item_id 9 missing from manifest"):
            read_embeddings(path, man)

    def test_manifest_duplicate_entry(self, tmp_path):
        path, man = tmp_path / "e.bin", tmp_path / "m.jsonl"
        write_embeddings(two_records(), path, man)
        lines = man.read_text().splitlines()
        man.write_text("\n".join(lines + [lines[0]]) + "\n")
        with pytest.raises(FormatError, match="duplicate manifest entry"):
            read_embeddings(path, man)

    def test_manifest_bad_split(self, tmp_path):
        path, man = tmp_path / "e.bin", tmp_path / "m.jsonl"
        write_embeddings([EmbeddingRecord(0, 0, "train", np.ones(3))], path, man)
        man.write_text(json.dumps({"item_id": 0, "tool_id": 0, "split": "dev"}) + "\n")
        with pytest.raises(FormatError, match="split must be one of"):
            read_embeddings(path, man)

    def test_manifest_invalid_json(self, tmp_path):
        path, man = tmp_path / "e.bin", tmp_path / "m.jsonl"
        write_embeddings([EmbeddingRecord(0, 0, "train", np.ones(3))], path, man)
        man.write_text("{not json\n")
        with pytest.raises(FormatError, match="line 1: invalid JSON"):
            read_embeddings(path, man)

    def test_manifest_missing_key(self, tmp_path):
        path, man = tmp_path / "e.bin", tmp_path / "m.jsonl"
        write_embeddings([EmbeddingRecord(0, 0, "train", np.ones(3))], path, man)
        man.write_text(json.dumps({"item_id": 0, "split": "train"}) + "\n")
        with pytest.raises(FormatError, match="missing required field 'tool_id'"):
            read_embeddings(path, man)

    def test_write_rejects_mixed_dimensions(self, tmp_path):
        records = [
            EmbeddingRecord(0, 0, "train", np.ones(3)),
            EmbeddingRecord(1, 0, "train", np.ones(4)),
        ]
        with pytest.raises(FormatError, match="dimension 4 differs"):
            write_embeddings(records, tmp_path / "e.bin", tmp_path / "m.jsonl")

    def test_write_rejects_duplicate_ids(self, tmp_path):
        records = [
            EmbeddingRecord(4, 0, "train", np.ones(3)),
            EmbeddingRecord(4, 1, "test", np.ones(3)),
        ]
        with pytest.raises(FormatError, match="duplicate item_id 4"):
            write_embeddings(records, tmp_path / "e.bin", tmp_path / "m.jsonl")

    def test_little_endian_layout(self, tmp_path):
        # dim=1, count=1, item 258, value 1.0: every byte is pinned.
        path, man = tmp_path / "e.bin", tmp_path / "m.jsonl"
        write_embeddings([EmbeddingRecord(258, 0, "train", np.array([1.0]))], path, man)
        data = path.read_bytes()
        assert data[:4] == b"FEMB"
        assert data[4:8] == (1).to_bytes(4, "little")
        assert data[8:12] == (1).to_bytes(4, "little")
        assert data[12:20] == (1).to_bytes(8, "little")
        assert data[20:28] == (258).to_bytes(8, "little")
        assert data[28:32] == np.float32(1.0).tobytes()


class TestColumnarEmbeddingFile:
    def test_non_ascending_ids_read_back(self, tmp_path):
        path, man = tmp_path / "e.bin", tmp_path / "m.jsonl"
        records = [
            EmbeddingRecord(9, 1, "test", np.array([1.0, 2.0, 3.0])),
            EmbeddingRecord(2, 0, "train", np.array([-1.0, 0.5, 0.25])),
            EmbeddingRecord(5, 3, "test", np.array([4.0, 5.0, 6.0])),
        ]
        write_embeddings(records, path, man)
        loaded = read_embeddings(path, man)
        assert loaded.item_ids.tolist() == [9, 2, 5]  # the file's row order
        assert loaded.items() == [2, 5, 9]
        assert loaded.items("test") == [5, 9]
        for rec in records:
            got = loaded.record(rec.item_id)
            assert (got.tool_id, got.split) == (rec.tool_id, rec.split)
            assert np.array_equal(got.embedding, rec.embedding)
        assert np.array_equal(loaded.matrix([9, 2]), np.stack([records[0].embedding, records[1].embedding]))

    def test_set_and_records_write_the_same_bytes(self, tmp_path):
        records = two_records(dim=5) + [EmbeddingRecord(12, 4, "train", np.full(5, 1 / 3))]
        write_embeddings(records, tmp_path / "r.bin", tmp_path / "r.jsonl")
        write_embeddings(EmbeddingSet(records), tmp_path / "s.bin", tmp_path / "s.jsonl")
        assert (tmp_path / "r.bin").read_bytes() == (tmp_path / "s.bin").read_bytes()
        assert (tmp_path / "r.jsonl").read_bytes() == (tmp_path / "s.jsonl").read_bytes()

    def test_set_is_written_in_ascending_id_order(self, tmp_path):
        records = two_records(dim=3)
        write_embeddings(records, tmp_path / "r.bin", tmp_path / "r.jsonl")
        write_embeddings(EmbeddingSet(records[::-1]), tmp_path / "s.bin", tmp_path / "s.jsonl")
        assert (tmp_path / "r.bin").read_bytes() == (tmp_path / "s.bin").read_bytes()
        assert (tmp_path / "r.jsonl").read_bytes() == (tmp_path / "s.jsonl").read_bytes()

    def test_manifest_lines_match_compact_json(self, tmp_path):
        records = two_records() + [EmbeddingRecord(123456789012, -3, "test", np.ones(4))]
        write_embeddings(records, tmp_path / "e.bin", tmp_path / "m.jsonl")
        want = "".join(
            json.dumps({"item_id": r.item_id, "tool_id": r.tool_id, "split": r.split}, separators=(",", ":")) + "\n"
            for r in records
        )
        assert (tmp_path / "m.jsonl").read_text() == want

    def test_read_duplicate_id_in_binary(self, tmp_path):
        path, man = tmp_path / "e.bin", tmp_path / "m.jsonl"
        write_embeddings(two_records(dim=2), path, man)
        data = bytearray(path.read_bytes())
        data[20 + 16:20 + 24] = (0).to_bytes(8, "little")  # second record's id 9 -> 0
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="duplicate item_id 0"):
            read_embeddings(path, man)

    def test_zero_dimension_and_oversized_id_rejected(self, tmp_path):
        path, man = tmp_path / "e.bin", tmp_path / "m.jsonl"
        header = b"FEMB" + (1).to_bytes(4, "little")
        path.write_bytes(header + (0).to_bytes(4, "little") + (1).to_bytes(8, "little") + bytes(8))
        with pytest.raises(FormatError, match="embedding dimension is 0"):
            read_embeddings(path, man)
        path.write_bytes(header + (1).to_bytes(4, "little") + (1).to_bytes(8, "little")
                         + (1 << 63).to_bytes(8, "little") + bytes(4))
        with pytest.raises(FormatError, match=r"item_id 9223372036854775808 exceeds 2\*\*63 - 1"):
            read_embeddings(path, man)


class TestScenarioJsonl:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "s.jsonl"
        scenarios = [
            ScenarioRecord(0, 2, "drive a nail into a board", 100),
            ScenarioRecord(1, 5, "soak up a spill", 101),
        ]
        write_scenarios(scenarios, path)
        loaded = read_scenarios(path)
        assert loaded == scenarios

    @pytest.mark.parametrize("char", ["\u2028", "\u2029", "\x85"])
    def test_text_holding_another_line_break(self, tmp_path, char):
        # json.dumps(..., ensure_ascii=False) writes these characters unescaped.
        path = tmp_path / "s.jsonl"
        rows = [{"scenario_id": 0, "tool_id": 2, "text": f"saw{char}a board", "item_id": 100},
                {"scenario_id": 1, "tool_id": 3, "text": "b", "item_id": 101},
                {"scenario_id": 1, "tool_id": 3, "text": "c", "item_id": 102}]
        path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows[:2]), encoding="utf-8")
        assert [s.text for s in read_scenarios(path)] == [f"saw{char}a board", "b"]
        path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows), encoding="utf-8")
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: line 3: duplicate scenario_id 1$"):
            read_scenarios(path)

    def test_duplicate_scenario_id(self, tmp_path):
        path = tmp_path / "s.jsonl"
        write_scenarios([ScenarioRecord(0, 2, "a", 100)], path)
        line = path.read_text()
        path.write_text(line + json.dumps({"scenario_id": 0, "tool_id": 3, "text": "b", "item_id": 101}) + "\n")
        with pytest.raises(FormatError, match="duplicate scenario_id 0"):
            read_scenarios(path)

    def test_duplicate_item_id(self, tmp_path):
        path = tmp_path / "s.jsonl"
        rows = [
            {"scenario_id": 0, "tool_id": 2, "text": "a", "item_id": 100},
            {"scenario_id": 1, "tool_id": 3, "text": "b", "item_id": 100},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        with pytest.raises(FormatError, match="duplicate item_id 100"):
            read_scenarios(path)

    def test_catalog_check(self, tmp_path):
        path = tmp_path / "s.jsonl"
        write_scenarios([ScenarioRecord(0, 99, "a", 100)], path)
        with pytest.raises(FormatError, match="tool_id 99 not in catalog"):
            read_scenarios(path, catalog=small_catalog())
        assert len(read_scenarios(path)) == 1  # no catalog, no check

    def test_missing_key(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text(json.dumps({"scenario_id": 0, "tool_id": 2, "text": "a"}) + "\n")
        with pytest.raises(FormatError, match="missing required field 'item_id'"):
            read_scenarios(path)


def dumps_lines(rows) -> bytes:
    """The JSONL the scenario and trial writers wrote with json.dumps."""
    return "".join(json.dumps(row, separators=(",", ":")) + "\n" for row in rows).encode("utf-8")


def scenario_row(s):
    return {"scenario_id": s.scenario_id, "tool_id": s.tool_id, "text": s.text, "item_id": s.item_id}


def trial_row(t):
    return {"trial_id": t.trial_id, "scenario_item_id": t.scenario_item_id,
            "candidate_item_ids": list(t.candidate_item_ids), "target_position": t.target_position}


# Texts json.dumps escapes: quote, backslash, every control character, DEL,
# non-ASCII, U+2028, an astral character and a lone surrogate.
ESCAPED_TEXTS = ['"', "\\", *map(chr, range(0x20)), "\x7f", "caf\u00e9 \u00fc", "\u2028",
                 "\U0001f528 hammer", "\ud800", 'say "hi"\\\n\tthen\x00stop']


class TestJsonlWriters:
    def test_scenario_lines_equal_json_dumps(self, tmp_path):
        path = tmp_path / "s.jsonl"
        scenarios = [ScenarioRecord(i, (1 << 64) + i, text, (1 << 63) + i) for i, text in enumerate(ESCAPED_TEXTS)]
        write_scenarios(scenarios, path)
        assert path.read_bytes() == dumps_lines(map(scenario_row, scenarios))
        assert read_scenarios(path) == scenarios

    def test_trial_lines_equal_json_dumps(self, tmp_path):
        path = tmp_path / "t.jsonl"
        trials = [MatchingTrial(1 << 64, (1 << 63) + 5, tuple((1 << 70) + k for k in range(10)), 9),
                  MatchingTrial(0, 0, tuple(range(10)), 0)]
        write_trials(trials, path)
        assert path.read_bytes() == dumps_lines(map(trial_row, trials))
        assert read_trials(path) == trials

    @staticmethod
    def writes_old_line_or_refuses(write, record, row, name, path):
        # "%d" % 1.5 is "1" and "%d" % True is "1": a writer may refuse such a
        # record, naming it, but never write other bytes than json.dumps did.
        try:
            write([record], path)
        except ValueError as exc:
            assert name in str(exc)
            assert not path.exists()
        else:
            assert path.read_bytes() == dumps_lines([row])

    @pytest.mark.parametrize("value", [True, False, 1.5, 2.0])
    @pytest.mark.parametrize("field", ["scenario_id", "tool_id", "item_id"])
    def test_scenario_with_a_bool_or_float_id(self, tmp_path, field, value):
        record = ScenarioRecord(**{"scenario_id": 3, "tool_id": 1, "text": "a", "item_id": 4, field: value})
        self.writes_old_line_or_refuses(write_scenarios, record, scenario_row(record),
                                        f"scenario {record.scenario_id!r}", tmp_path / "s.jsonl")

    @pytest.mark.parametrize("value", [True, 1.5, 2.0])
    @pytest.mark.parametrize("field", ["trial_id", "scenario_item_id", "target_position", "candidate"])
    def test_trial_with_a_bool_or_float_id(self, tmp_path, field, value):
        fields = {"trial_id": 3, "scenario_item_id": 1, "candidate_item_ids": (20, *range(9)), "target_position": 2}
        if field == "candidate":
            fields["candidate_item_ids"] = (value, *range(10, 19))
        else:
            fields[field] = value
        record = MatchingTrial(**fields)
        self.writes_old_line_or_refuses(write_trials, record, trial_row(record),
                                        f"trial {record.trial_id!r}", tmp_path / "t.jsonl")


class TestTrialJsonl:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        trials = [
            MatchingTrial(0, 100, tuple(range(10)), 3),
            MatchingTrial(1, 101, tuple(range(10, 20)), 0),
        ]
        write_trials(trials, path)
        assert read_trials(path) == trials

    def test_duplicate_trial_id(self, tmp_path):
        path = tmp_path / "t.jsonl"
        trials = [MatchingTrial(5, 100, tuple(range(10)), 0)]
        write_trials(trials * 2, path)
        with pytest.raises(FormatError, match="duplicate trial_id 5"):
            read_trials(path)

    def test_structural_error_wrapped_with_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        row = {"trial_id": 0, "scenario_item_id": 100,
               "candidate_item_ids": list(range(9)), "target_position": 0}
        path.write_text(json.dumps(row) + "\n")
        with pytest.raises(FormatError, match="line 1:.*expected 10 candidates, got 9"):
            read_trials(path)

    def test_bad_target_position(self, tmp_path):
        path = tmp_path / "t.jsonl"
        row = {"trial_id": 0, "scenario_item_id": 100,
               "candidate_item_ids": list(range(10)), "target_position": 10}
        path.write_text(json.dumps(row) + "\n")
        with pytest.raises(FormatError, match="target_position 10"):
            read_trials(path)


def trained_fixture(max_epochs=4):
    rng_attrs = np.linspace(1, 7, 13)
    catalog = ToolCatalog([ToolRecord(0, "a", rng_attrs), ToolRecord(1, "b", rng_attrs[::-1].copy())])
    records = []
    for item, (tool, split) in enumerate([(0, "train")] * 5 + [(1, "train")] * 5 + [(0, "test")]):
        vec = np.arange(6, dtype=np.float64) * (tool + 1) + item * 0.1
        records.append(EmbeddingRecord(item, tool, split, vec))
    emb = EmbeddingSet(records)
    config = HeadConfig(
        pathway="visual", layer_dims=(6, 8, 13), learning_rate=1e-3,
        batch_size=4, max_epochs=max_epochs, patience=50,
        validation_fraction=0.2, seed=7,
    )
    return train_head(emb, catalog, config), emb


class TestCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path):
        trained, emb = trained_fixture()
        path = tmp_path / "head.json"
        save_checkpoint(trained, path)
        loaded = load_checkpoint(path)
        assert loaded.config == trained.config
        assert loaded.epochs_run == trained.epochs_run
        assert loaded.best_validation_mse == trained.best_validation_mse
        assert loaded.training_log == []
        assert isinstance(trained.best_epoch, int) and loaded.best_epoch is None
        for a, b in zip(trained.head.parameters(), loaded.head.parameters()):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [2**64 - 1, -5])
    def test_round_trip_any_integer_seed(self, tmp_path, seed):
        """SplitMix64 takes any integer seed, so the checkpoint must keep it as written."""
        config = HeadConfig(pathway="visual", layer_dims=(6, 8, 13), learning_rate=1e-3,
                            batch_size=4, max_epochs=3, seed=seed)
        trained = TrainedHead(head=init_head(config.layer_dims, seed), config=config,
                              best_validation_mse=0.5, epochs_run=3, training_log=[])
        path = tmp_path / "head.json"
        save_checkpoint(trained, path)
        loaded = load_checkpoint(path)
        assert loaded.config == config and loaded.config.seed == seed
        for a, b in zip(trained.head.parameters(), loaded.head.parameters()):
            assert np.array_equal(a, b)

    def test_predictions_identical_after_reload(self, tmp_path):
        trained, emb = trained_fixture()
        path = tmp_path / "head.json"
        save_checkpoint(trained, path)
        loaded = load_checkpoint(path)
        from toolmatch.nn import head_forward
        x = emb.matrix(emb.items())
        assert np.array_equal(head_forward(trained.head, x), head_forward(loaded.head, x))

    def test_save_twice_byte_identical(self, tmp_path):
        trained, _ = trained_fixture()
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_checkpoint(trained, a)
        save_checkpoint(trained, b)
        assert a.read_bytes() == b.read_bytes()

    def test_infinite_best_mse_survives(self, tmp_path):
        trained, _ = trained_fixture(max_epochs=0)
        assert trained.best_validation_mse == float("inf")
        path = tmp_path / "head.json"
        save_checkpoint(trained, path)
        assert load_checkpoint(path).best_validation_mse == float("inf")

    def test_corrupted_array_length_names_layer(self, tmp_path):
        trained, _ = trained_fixture()
        path = tmp_path / "head.json"
        save_checkpoint(trained, path)
        doc = json.loads(path.read_text())
        doc["parameters"][1]["weights"].pop()
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=r"layer 1 weights: expected 104 values, found 103"):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        trained, _ = trained_fixture()
        path = tmp_path / "head.json"
        save_checkpoint(trained, path)
        doc = json.loads(path.read_text())
        doc["format_version"] = 9
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="unsupported format_version 9"):
            load_checkpoint(path)

    def test_top_level_config_disagreement(self, tmp_path):
        trained, _ = trained_fixture()
        path = tmp_path / "head.json"
        save_checkpoint(trained, path)
        doc = json.loads(path.read_text())
        doc["seed"] = doc["seed"] + 1
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="disagree"):
            load_checkpoint(path)

    @pytest.mark.parametrize("rate", [float("nan"), float("inf")])
    def test_non_finite_learning_rate_in_config_echo(self, tmp_path, rate):
        trained, _ = trained_fixture()
        path = tmp_path / "head.json"
        save_checkpoint(trained, path)
        doc = json.loads(path.read_text())
        doc["config"]["learning_rate"] = rate
        path.write_text(json.dumps(doc))  # NaN / Infinity: Python's json reads them back
        with pytest.raises(FormatError, match="invalid config echo: learning_rate"):
            load_checkpoint(path)

    def test_non_finite_parameter_rejected(self, tmp_path):
        trained, _ = trained_fixture()
        path = tmp_path / "head.json"
        save_checkpoint(trained, path)
        doc = json.loads(path.read_text())
        doc["parameters"][0]["weights"][0] = "nan"
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="non-finite parameter"):
            load_checkpoint(path)

    @pytest.mark.parametrize("layer, key, value, message", [
        (0, "gamma", "inf", "layer 0 gamma: non-finite parameter value"),
        (1, "bias", "-nan", "layer 1 bias: non-finite parameter value"),
        (1, "weights", "1.0.0", "layer 1: field 'weights' must hold decimal strings only"),
        (0, "beta", "0x1p-3", "layer 0: field 'beta' must hold decimal strings only"),
    ])
    def test_bad_value_names_its_array(self, tmp_path, layer, key, value, message):
        # A bad value names its layer and array wherever it sits in the vector.
        trained, _ = trained_fixture()
        path = tmp_path / "head.json"
        save_checkpoint(trained, path)
        doc = json.loads(path.read_text())
        doc["parameters"][layer][key][-1] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=re.escape(message)):
            load_checkpoint(path)

    def test_missing_field(self, tmp_path):
        trained, _ = trained_fixture()
        path = tmp_path / "head.json"
        save_checkpoint(trained, path)
        doc = json.loads(path.read_text())
        del doc["parameters"][0]["gamma"]
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="missing required field 'gamma'"):
            load_checkpoint(path)

    def test_unexpected_field(self, tmp_path):
        trained, _ = trained_fixture()
        path = tmp_path / "head.json"
        save_checkpoint(trained, path)
        doc = json.loads(path.read_text())
        doc["parameters"][-1]["gamma"] = ["1.0"]
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="unexpected field 'gamma'"):
            load_checkpoint(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "head.json"
        path.write_text("{]")
        with pytest.raises(FormatError, match="invalid JSON"):
            load_checkpoint(path)

    @pytest.mark.parametrize("dims", [(6, 13), (6, 9, 8, 7, 13)])
    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_bytes_equal_indented_json_dumps(self, tmp_path, dims, seed):
        """The writer's text is ``json.dumps(doc, indent=1)`` of the whole
        document, with or without hidden layers."""
        config = HeadConfig(pathway="language", layer_dims=dims, learning_rate=5e-5,
                            batch_size=4, max_epochs=9, seed=seed)
        trained = TrainedHead(head=init_head(dims, seed), config=config,
                              best_validation_mse=0.0123, epochs_run=9)
        params = trained.head.parameters()
        doc = {
            "format_version": 1, "pathway": "language", "layer_dims": list(dims), "seed": seed,
            "config": config.to_dict(), "best_validation_mse": repr(0.0123), "epochs_run": 9,
            "parameters": [
                {name: [repr(float(v)) for v in p.reshape(-1)]
                 for name, p in zip(("weights", "bias", "gamma", "beta"), params[4 * k:4 * k + 4])}
                for k in range(len(dims) - 1)
            ],
        }
        path = tmp_path / "head.json"
        save_checkpoint(trained, path)
        assert path.read_bytes() == (json.dumps(doc, indent=1) + "\n").encode("utf-8")

    @pytest.mark.parametrize("key, value, message", [
        ("best_validation_mse", "nan", "best_validation_mse must be a non-negative MSE or inf, got 'nan'"),
        ("best_validation_mse", "-1.5", "best_validation_mse must be a non-negative MSE or inf, got '-1.5'"),
        ("epochs_run", -3, "epochs_run -3 not in [0, 4]"),
        ("epochs_run", 5, "epochs_run 5 not in [0, 4]"),
    ])
    def test_impossible_provenance_rejected(self, tmp_path, key, value, message):
        trained, _ = trained_fixture()
        path = tmp_path / "head.json"
        save_checkpoint(trained, path)
        doc = json.loads(path.read_text())
        doc[key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=re.escape(f"{path}: {message}")):
            load_checkpoint(path)

    def test_parameters_stored_as_decimal_strings(self, tmp_path):
        trained, _ = trained_fixture()
        path = tmp_path / "head.json"
        save_checkpoint(trained, path)
        doc = json.loads(path.read_text())
        values = doc["parameters"][0]["weights"]
        assert all(isinstance(v, str) for v in values)
        assert float(values[0]) == trained.head.parameters()[0][0, 0]
        assert isinstance(doc["best_validation_mse"], str)


class TestSha256:
    def test_known_digest(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"abc")
        assert sha256_file(path) == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )
