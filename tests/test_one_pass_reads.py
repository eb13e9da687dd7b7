"""The two JSONL read paths: a file in the writers' compact form is typed in
one pass, any other layout line by line. Both feed the same columns to one
check per kind, so both must give the same result, or the same FormatError
naming the file and the line, on every input."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from toolmatch import formats
from toolmatch.cli import main
from toolmatch.domain import EmbeddingRecord, MatchingTrial, ScenarioRecord, ToolCatalog, ToolRecord
from toolmatch.formats import (
    FormatError,
    read_embeddings,
    read_scenarios,
    read_trials,
    write_embeddings,
    write_scenarios,
    write_trials,
)

TOOLBENCH = Path(__file__).resolve().parents[1] / "toolbench"

MANIFEST = [{"item_id": i, "tool_id": i % 3, "split": ("train", "test")[i % 2]} for i in (5, 2, 9, 0)]
SCENARIOS = [{"scenario_id": s, "tool_id": s % 3, "text": f"cut a {s}-inch board; use it (twice) ~ok",
              "item_id": 100 + s} for s in range(4)]
TRIALS = [{"trial_id": t, "scenario_item_id": 100 + t, "candidate_item_ids": list(range(10 * t, 10 * t + 10)),
           "target_position": t} for t in range(4)]
CATALOG = ToolCatalog([ToolRecord(t, f"tool{t}", np.full(13, 4.0)) for t in range(3)])


def compact(rows) -> str:
    return "".join(json.dumps(r, separators=(",", ":")) + "\n" for r in rows)


@pytest.fixture
def embeddings(tmp_path):
    """A .femb file whose rows follow MANIFEST, and a reader of it with a given manifest."""
    path = tmp_path / "e.femb"
    records = [EmbeddingRecord(m["item_id"], m["tool_id"], m["split"], np.arange(3.0) + m["item_id"])
               for m in MANIFEST]
    write_embeddings(records, path, tmp_path / "written.jsonl")
    assert (tmp_path / "written.jsonl").read_text() == compact(MANIFEST)
    return lambda manifest: read_embeddings(path, manifest)


def readers(embeddings):
    """(rows, read) for each JSONL kind; read maps a path to a comparable result."""
    def embedding_columns(p):
        s = embeddings(p)
        return s.item_ids.tolist(), s.tool_ids.tolist(), s.split_codes.tolist(), s.vectors.tolist()
    return {
        "manifest": (MANIFEST, embedding_columns),
        "scenarios": (SCENARIOS, lambda p: read_scenarios(p, CATALOG)),
        "trials": (TRIALS, read_trials),
    }


KINDS = ["manifest", "scenarios", "trials"]


def outcome(read, path):
    """("ok", result) or ("error", message) of one read."""
    try:
        return "ok", read(path)
    except FormatError as exc:
        return "error", str(exc)


def per_line_outcome(read, path, monkeypatch):
    """The outcome with the one-pass path switched off: the per-line reader's."""
    with monkeypatch.context() as m:
        m.setattr(formats, "_compact_rows", lambda pattern, text: None)
        return outcome(read, path)


@pytest.fixture
def line_reads(monkeypatch):
    """A list that grows by one each time the per-line reader starts on a file."""
    calls = []
    real = formats._jsonl_lines

    def counting(path, text):
        calls.append(path)
        return real(path, text)

    monkeypatch.setattr(formats, "_jsonl_lines", counting)
    return calls


def variants(rows):
    """The same rows in layouts other than the compact one."""
    spaced = "".join(json.dumps(r) + "\n" for r in rows)
    reordered = "".join(json.dumps(dict(reversed(list(r.items()))), separators=(",", ":")) + "\n" for r in rows)
    lines = compact(rows).splitlines(keepends=True)
    return {
        "spaced": spaced,
        "reordered": reordered,
        "blank line": "".join(lines[:2]) + "\n" + "".join(lines[2:]),
        "crlf": compact(rows).replace("\n", "\r\n"),
        "no final newline": compact(rows)[:-1],
    }


@pytest.mark.parametrize("kind", KINDS)
def test_other_layouts_read_like_the_compact_form(kind, embeddings, tmp_path, line_reads):
    rows, read = readers(embeddings)[kind]
    path = tmp_path / "compact.jsonl"
    path.write_text(compact(rows), newline="")
    want = read(path)
    assert line_reads == []  # the compact form took the one-pass path
    for name, text in variants(rows).items():
        path = tmp_path / f"{name}.jsonl"
        path.write_text(text, newline="")
        assert read(path) == want, name
        assert line_reads[-1] == path, f"{name} did not go through the per-line reader"


def hostile(kind, rows):
    """(name, text) of files that a whole-file parse could misread."""
    lines = compact(rows).splitlines()
    first, second = lines[0], lines[1]
    cut = first.index(",") + 1
    key = next(iter(rows[0]))
    out = [
        ("value split across two lines", "\n".join([first[:cut], first[cut:]] + lines[1:]) + "\n"),
        ("two objects on one line", first + second + "\n" + "\n".join(lines[2:]) + "\n"),
        ("an object before the first line", "{}" + compact(rows)),
        ("split line beside two on one", "\n".join([first[:cut], first[cut:] + second] + lines[2:]) + "\n"),
        ("nested object with the fields", json.dumps({"row": rows[0]}, separators=(",", ":")) + "\n"
         + "\n".join(lines[1:]) + "\n"),
        ("nested object at the line start", "{" + first[1:-1] + ',"x":' + first + "}\n" + "\n".join(lines[1:]) + "\n"),
        ("list of the fields", "[" + first + "]\n" + "\n".join(lines[1:]) + "\n"),
        ("leading space", " " + compact(rows)),
        ("escaped text", compact(rows).replace('"train"', '"tr\\u0061in"').replace('(twice)', '\\"twice\\"')),
        ("escape without a quote", compact(rows).replace('"test"', '"t\\u0065st"').replace("board", "bo\\u0061rd")),
        ("leading zero", compact(rows).replace(f'"{key}":2', f'"{key}":02').replace(f'"{key}":0,', f'"{key}":00,')),
        ("negative id", compact(rows).replace(f'"{key}":2', f'"{key}":-2')),
        ("duplicate key", "{" + f'"{key}":1,' + first[1:] + "\n" + "\n".join(lines[1:]) + "\n"),
        ("last line repeated", compact(rows) + lines[-1] + "\n"),
        ("first line dropped", compact(rows[1:])),
        ("empty file", ""),
        ("blank file", "\n\n"),
    ]
    if kind == "manifest":
        out += [("unknown item", compact(rows[:-1] + [{**rows[-1], "item_id": 77}])),
                ("bad split", compact(rows[:-1] + [{**rows[-1], "split": "dev"}])),
                ("19-digit id", compact(rows[:-1] + [{**rows[-1], "tool_id": 10**18}])),
                ("id past int64", compact(rows[:-1] + [{**rows[-1], "tool_id": 1 << 63}]))]
    elif kind == "scenarios":
        out += [("duplicate item_id", compact(rows[:-1] + [{**rows[-1], "item_id": 100}])),
                ("duplicate scenario_id", compact(rows[:-1] + [{**rows[-1], "scenario_id": 0}])),
                ("tool not in catalog", compact(rows[:-1] + [{**rows[-1], "tool_id": 3}])),
                ("non-ascii text", compact(rows[:-1] + [{**rows[-1], "text": "S\u00e4ge"}])
                 .replace("\\u00e4", "\u00e4")),
                ("line separator in text", compact(rows[:-1] + [{**rows[-1], "text": "a\u2028b"}])
                 .replace("\\u2028", "\u2028"))]
    else:
        out += [("nine candidates", compact(rows[:-1] + [{**rows[-1], "candidate_item_ids": list(range(9))}])),
                ("repeated candidate", compact(rows[:-1] + [{**rows[-1], "candidate_item_ids": [0] * 10}])),
                ("target past the end", compact(rows[:-1] + [{**rows[-1], "target_position": 10}])),
                ("no candidates", compact(rows[:-1] + [{**rows[-1], "candidate_item_ids": []}])),
                ("large ids", compact(rows[:-1] + [{**rows[-1], "trial_id": 1 << 70, "scenario_item_id": 10**40}]))]
    return out


@pytest.mark.parametrize("kind", KINDS)
def test_hostile_files_read_as_the_per_line_reader_reads_them(kind, embeddings, tmp_path, monkeypatch):
    rows, read = readers(embeddings)[kind]
    failures = []
    for n, (name, text) in enumerate(hostile(kind, rows)):
        path = tmp_path / f"case{n}.jsonl"
        path.write_text(text, encoding="utf-8", newline="")
        got, want = outcome(read, path), per_line_outcome(read, path, monkeypatch)
        if got != want:
            failures.append(f"{name}: {got} != per-line {want}")
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("fault", ["duplicate", "wrong type", "invalid JSON"])
def test_bad_last_line_of_a_compact_file_is_named(kind, fault, embeddings, tmp_path, monkeypatch):
    rows, read = readers(embeddings)[kind]
    key = next(iter(rows[0]))
    last = {"duplicate": compact([rows[0]]), "wrong type": compact([{**rows[-1], key: "7"}]),
            "invalid JSON": compact([rows[-1]])[:-2] + "\n"}[fault]
    path = tmp_path / "bad.jsonl"
    path.write_text(compact(rows[:-1]) + last)
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: line {len(rows)}: ") as raised:
        read(path)
    assert per_line_outcome(read, path, monkeypatch) == ("error", str(raised.value))


@pytest.mark.parametrize("kind", KINDS)
def test_integer_past_the_digit_limit_names_file_and_line(kind, embeddings, tmp_path):
    rows, read = readers(embeddings)[kind]
    key = next(iter(rows[0]))
    path = tmp_path / "long.jsonl"
    text = compact(rows)
    path.write_text(text.replace(f'"{key}":{rows[1][key]},', f'"{key}":{"1" * 5000},', 1))
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: line 2: .*digits"):
        read(path)


@pytest.fixture
def one_pass_only(monkeypatch):
    """Make the per-line reader fail the test if any read reaches it."""
    def refuse(path, text):
        raise AssertionError(f"{path} went through the per-line reader")

    monkeypatch.setattr(formats, "_jsonl_lines", refuse)


def test_writers_output_takes_the_one_pass_path(tmp_path, capsys, one_pass_only):
    """gen-synth's files, and records written by each writer, are read without the per-line reader."""
    out = tmp_path / "synth"
    assert main(["gen-synth", "--tools", "12", "--preset", "small", "--images", "4,2", "--sigma", "0.5",
                 "--seed", "3", "--out", str(out)]) == 0
    capsys.readouterr()
    extra = tmp_path / "extra"
    extra.mkdir()
    records = [EmbeddingRecord(10**17 + i, i, "test", np.ones(2)) for i in range(3)]
    write_embeddings(records[::-1], extra / "e.femb", extra / "m.jsonl")
    write_scenarios([ScenarioRecord(7, 1, "".join(map(chr, range(32, 127))).replace('"', "").replace("\\", ""), 0),
                     ScenarioRecord(0, 0, "", 7)], extra / "s.jsonl")
    write_trials([MatchingTrial(3, 1, tuple(range(20, 10, -1)), 9), MatchingTrial(0, 0, tuple(range(10)), 0)],
                 extra / "t.jsonl")
    catalog = formats.load_catalog(out / "catalog.csv")
    assert len(read_embeddings(out / "visual.femb", out / "visual_manifest.jsonl")) == 12 * 6
    assert len(read_embeddings(out / "scenarios.femb", out / "scenarios_manifest.jsonl")) > 0
    assert len(read_scenarios(out / "scenarios.jsonl", catalog)) > 0
    assert len(read_trials(out / "trials.jsonl")) > 0
    assert read_embeddings(extra / "e.femb", extra / "m.jsonl").item_ids.tolist() == [r.item_id for r in records[::-1]]
    assert [s.scenario_id for s in read_scenarios(extra / "s.jsonl")] == [7, 0]
    assert [t.trial_id for t in read_trials(extra / "t.jsonl")] == [3, 0]


def test_benchmark_writers_output_takes_the_one_pass_path(tmp_path, monkeypatch, one_pass_only):
    monkeypatch.syspath_prepend(str(TOOLBENCH))
    import inputs

    items = inputs.ItemSet(ids=np.arange(5, dtype=np.int64), tools=np.array([0, 1, 2, 0, 1]),
                           splits=np.array(["train", "test", "train", "test", "train"]),
                           vectors=np.ones((5, 3), dtype=np.float32))
    inputs.write_embeddings(tmp_path / "e.femb", tmp_path / "m.jsonl", items)
    inputs.write_trials(tmp_path / "t.jsonl", TRIALS)
    assert read_embeddings(tmp_path / "e.femb", tmp_path / "m.jsonl").tool_ids.tolist() == [0, 1, 2, 0, 1]
    assert [t.trial_id for t in read_trials(tmp_path / "t.jsonl")] == [0, 1, 2, 3]


@pytest.mark.parametrize("kind, change, message", [
    ("trials", {"trial_id": 0}, "duplicate trial_id 0"),
    ("scenarios", {"scenario_id": 0}, "duplicate scenario_id 0"),
    ("scenarios", {"item_id": 100}, "duplicate item_id 100"),
    ("scenarios", {"tool_id": 3}, "tool_id 3 not in catalog"),
    ("manifest", {"item_id": 5}, "duplicate manifest entry for item_id 5"),
    ("manifest", {"item_id": 77}, "manifest references unknown item_id 77"),
])
def test_fault_in_a_compact_file_is_named_in_one_pass(kind, change, message, embeddings, tmp_path, one_pass_only):
    """A compact file whose last line breaks a check is not read a second time to name the line."""
    rows, read = readers(embeddings)[kind]
    path = tmp_path / "bad.jsonl"
    path.write_text(compact(rows[:-1] + [{**rows[-1], **change}]))
    with pytest.raises(FormatError, match=f"^{re.escape(f'{path}: line {len(rows)}: {message}')}$"):
        read(path)
