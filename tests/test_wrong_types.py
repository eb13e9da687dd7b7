"""Wrong JSON types: every field of a valid manifest line, trial line,
scenario line and checkpoint is replaced, one at a time, by each value of a
different JSON type. Each replacement must raise a FormatError naming the
file and the field, and the CLI must exit 1 with its JSON error object.
"""

import copy
import json
import re

import numpy as np
import pytest

from toolmatch.cli import main
from toolmatch.domain import EmbeddingRecord
from toolmatch.formats import (
    CATALOG_HEADER,
    FormatError,
    load_catalog,
    load_checkpoint,
    read_embeddings,
    read_scenarios,
    read_trials,
    save_checkpoint,
    write_embeddings,
)
from toolmatch.nn import init_head
from toolmatch.training import HeadConfig, TrainedHead

# One value of each JSON type: null, boolean, number (float and int), string, list, object.
CANDIDATES = [None, True, 1.5, 7, "7", [7], {"v": 7}]

MANIFEST_LINE = {"item_id": 0, "tool_id": 0, "split": "train"}
TRIAL_LINE = {"trial_id": 0, "scenario_item_id": 100, "candidate_item_ids": list(range(10)), "target_position": 3}
SCENARIO_LINE = {"scenario_id": 0, "tool_id": 2, "text": "a", "item_id": 100}


def json_kind(value) -> str:
    return {type(None): "null", bool: "bool", int: "int", float: "float",
            str: "str", list: "list", dict: "dict"}[type(value)]


def wrong_values(valid):
    """Candidates of another JSON type than ``valid``; any number is right for a float."""
    kind = json_kind(valid)
    return [c for c in CANDIDATES
            if json_kind(c) != kind and not (kind == "float" and json_kind(c) == "int")]


def line_mutations(line: dict, list_fields=()):
    """(field, mutated line) for each field and wrong value, list items included."""
    for key, valid in line.items():
        for wrong in wrong_values(valid):
            yield key, {**line, key: wrong}
        if key in list_fields:
            for wrong in wrong_values(valid[0]):
                yield key, {**line, key: [wrong] + valid[1:]}


def checkpoint_mutations(doc: dict):
    """(field, mutated checkpoint) over top-level, config-echo and parameter fields."""
    def mutated(edit):
        out = copy.deepcopy(doc)
        edit(out)
        return out

    for key, valid in doc.items():
        for wrong in wrong_values(valid):
            yield key, mutated(lambda d: d.__setitem__(key, wrong))
    for key, valid in doc["config"].items():
        for wrong in wrong_values(valid):
            yield key, mutated(lambda d: d["config"].__setitem__(key, wrong))
    for wrong in wrong_values(doc["layer_dims"][0]):
        yield "layer_dims", mutated(lambda d: d["layer_dims"].__setitem__(0, wrong))
        yield "layer_dims", mutated(lambda d: d["config"]["layer_dims"].__setitem__(0, wrong))
    for i, group in enumerate(doc["parameters"]):
        for wrong in wrong_values(group):
            yield "parameters", mutated(lambda d: d["parameters"].__setitem__(i, wrong))
        for key, valid in group.items():
            for wrong in wrong_values(valid):
                yield key, mutated(lambda d: d["parameters"][i].__setitem__(key, wrong))
            for wrong in wrong_values(valid[0]):
                yield key, mutated(lambda d: d["parameters"][i][key].__setitem__(0, wrong))


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Valid inputs: embeddings + manifest, trials, scenarios, two checkpoints."""
    d = tmp_path_factory.mktemp("valid")
    paths = {name: d / name for name in ("e.femb", "m.jsonl", "t.jsonl", "s.jsonl", "head.json")}
    write_embeddings([EmbeddingRecord(0, 0, "train", np.ones(6))], paths["e.femb"], paths["m.jsonl"])
    config = HeadConfig(pathway="visual", layer_dims=(6, 8, 13), learning_rate=1e-3,
                        batch_size=4, max_epochs=3, seed=7)
    trained = TrainedHead(head=init_head(config.layer_dims, config.seed), config=config,
                          best_validation_mse=0.5, epochs_run=3, training_log=[])
    save_checkpoint(trained, paths["head.json"])
    return paths


def write_line(path, line: dict) -> None:
    path.write_text(json.dumps(line) + "\n")


def expect_format_error(call, path, field: str, failures: list, label) -> None:
    try:
        call()
    except FormatError as exc:
        if str(path) not in str(exc) or f"field {field!r}" not in str(exc):
            failures.append(f"{label}: message does not name the file and field: {exc}")
    except Exception as exc:  # noqa: BLE001 - the test reports any other type
        failures.append(f"{label}: {type(exc).__name__}: {exc}")
    else:
        failures.append(f"{label}: accepted")


def test_sanity_valid_files_load(files, tmp_path):
    for name, line in (("m", MANIFEST_LINE), ("t", TRIAL_LINE), ("s", SCENARIO_LINE)):
        write_line(tmp_path / name, line)
    assert len(read_embeddings(files["e.femb"], tmp_path / "m")) == 1
    assert len(read_trials(tmp_path / "t")) == 1
    assert len(read_scenarios(tmp_path / "s")) == 1
    assert load_checkpoint(files["head.json"]).epochs_run == 3


@pytest.mark.parametrize("kind", ["manifest", "trials", "scenarios"])
def test_jsonl_field_of_wrong_type_is_format_error(kind, files, tmp_path):
    path = tmp_path / f"{kind}.jsonl"
    line, read, lists = {
        "manifest": (MANIFEST_LINE, lambda: read_embeddings(files["e.femb"], path), ()),
        "trials": (TRIAL_LINE, lambda: read_trials(path), ("candidate_item_ids",)),
        "scenarios": (SCENARIO_LINE, lambda: read_scenarios(path), ()),
    }[kind]
    failures = []
    cases = list(line_mutations(line, lists))
    for field, mutated in cases:
        write_line(path, mutated)
        expect_format_error(read, f"{path}: line 1", field, failures, json.dumps(mutated))
    assert len(cases) >= 3 * len(line) and not failures, "\n".join(failures)


def test_checkpoint_field_of_wrong_type_is_format_error(files, tmp_path):
    doc = json.loads(files["head.json"].read_text())
    path = tmp_path / "head.json"
    failures = []
    cases = list(checkpoint_mutations(doc))
    for n, (field, mutated) in enumerate(cases):
        path.write_text(json.dumps(mutated))
        expect_format_error(lambda: load_checkpoint(path), path, field, failures, f"case {n} ({field})")
    assert len(cases) > 100 and not failures, "\n".join(failures)


def test_checkpoint_that_is_not_an_object(tmp_path):
    path = tmp_path / "head.json"
    for doc in ([], 5, "x", None):
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="expected a JSON object"):
            load_checkpoint(path)


def test_integer_fields_reject_true_and_fractions(tmp_path):
    """The two values that int() used to accept silently."""
    path = tmp_path / "t.jsonl"
    for wrong in (True, 1.7):
        write_line(path, {**TRIAL_LINE, "target_position": wrong})
        with pytest.raises(FormatError, match="field 'target_position' must be an integer"):
            read_trials(path)


def test_manifest_ids_must_fit_int64(files, tmp_path):
    """Manifest ids fill int64 columns; other integer fields take any size."""
    path = tmp_path / "m.jsonl"
    for key in ("item_id", "tool_id"):
        for wrong in (1 << 63, -(1 << 63) - 1):
            write_line(path, {**MANIFEST_LINE, key: wrong})
            with pytest.raises(FormatError, match=f"field {key!r} must be a 64-bit signed integer"):
                read_embeddings(files["e.femb"], path)
    write_line(path, {**TRIAL_LINE, "trial_id": 1 << 64})
    assert read_trials(path)[0].trial_id == 1 << 64


def cli_error(capsys, argv) -> dict:
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    assert code == 1, captured.out
    return json.loads(captured.err)["error"]


@pytest.mark.parametrize("kind", ["manifest", "trials", "checkpoint"])
def test_cli_exits_one_with_json_error(kind, files, tmp_path, capsys):
    """The CLI reads manifests, trials and checkpoints (no command reads scenarios)."""
    bad = tmp_path / "bad"
    catalog = tmp_path / "missing.csv"  # never reached: the bad file fails first
    if kind == "manifest":
        cases = [(f, json.dumps(m) + "\n") for f, m in line_mutations(MANIFEST_LINE)]
        argv = ["train", "--pathway", "visual", "--embeddings", files["e.femb"], "--manifest", bad,
                "--catalog", catalog, "--out", tmp_path / "out.json"]
    elif kind == "trials":
        cases = [(f, json.dumps(t) + "\n") for f, t in line_mutations(TRIAL_LINE, ("candidate_item_ids",))]
        write_line(tmp_path / "m.jsonl", MANIFEST_LINE)
        emb = ["--visual", files["e.femb"], "--visual-manifest", tmp_path / "m.jsonl"]
        argv = ["match", "--visual-checkpoint", files["head.json"], "--language-checkpoint", files["head.json"],
                *emb, "--scenarios", files["e.femb"], "--scenario-manifest", tmp_path / "m.jsonl",
                "--trials", bad]
    else:
        doc = json.loads(files["head.json"].read_text())
        cases = [(f, json.dumps(d)) for f, d in checkpoint_mutations(doc)]
        argv = ["eval-attr", "--checkpoint", bad, "--embeddings", files["e.femb"],
                "--manifest", tmp_path / "m.jsonl", "--catalog", catalog]
    failures = []
    for field, text in cases:
        bad.write_text(text)
        error = cli_error(capsys, argv)
        if error["type"] != "FormatError" or f"field {field!r}" not in error["message"]:
            failures.append(f"{text[:80]}: {error}")
    assert cases and not failures, "\n".join(failures)


TOO_LONG = "1" * 5000  # digits, past the interpreter's default limit of 4 300 for int <-> str


def test_checkpoint_integer_past_the_digit_limit_names_file(files, tmp_path, capsys):
    path = tmp_path / "head.json"
    path.write_text(files["head.json"].read_text().replace('"epochs_run": 3', f'"epochs_run": {TOO_LONG}'))
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: .*digits"):
        load_checkpoint(path)
    error = cli_error(capsys, ["eval-attr", "--checkpoint", path, "--embeddings", files["e.femb"],
                               "--manifest", files["m.jsonl"], "--catalog", tmp_path / "missing.csv"])
    assert error["type"] == "FormatError" and error["message"].startswith(f"{path}: ")


def test_trial_integer_past_the_digit_limit_names_file_and_line(files, tmp_path, capsys):
    path = tmp_path / "t.jsonl"
    path.write_text(json.dumps(TRIAL_LINE) + "\n" + json.dumps(TRIAL_LINE).replace(": 0,", f": {TOO_LONG},", 1) + "\n")
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: line 2: .*digits"):
        read_trials(path)
    emb = ["--visual", files["e.femb"], "--visual-manifest", files["m.jsonl"]]
    error = cli_error(capsys, ["match", "--visual-checkpoint", files["head.json"], "--language-checkpoint",
                               files["head.json"], *emb, "--scenarios", files["e.femb"], "--scenario-manifest",
                               files["m.jsonl"], "--trials", path])
    assert error["type"] == "FormatError" and error["message"].startswith(f"{path}: line 2: ")


# Strings that float() reads as numbers but repr never writes: an underscore
# between digits, whitespace around the number, a non-ASCII digit.
COERCED = ["1_5", " 0.25 ", "0.5\n", "١"]


@pytest.mark.parametrize("value", COERCED)
def test_checkpoint_parameter_float_would_coerce(files, tmp_path, capsys, value):
    float(value)  # accepted by float(), so only the checkpoint's own check can reject it
    doc = json.loads(files["head.json"].read_text())
    doc["parameters"][1]["bias"][0] = value
    path = tmp_path / "head.json"
    path.write_text(json.dumps(doc))
    message = f"{path}: layer 1: field 'bias' must hold decimal strings only"
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        load_checkpoint(path)
    error = cli_error(capsys, ["eval-attr", "--checkpoint", path, "--embeddings", files["e.femb"],
                               "--manifest", files["m.jsonl"], "--catalog", tmp_path / "missing.csv"])
    assert error == {"type": "FormatError", "module": "toolmatch.formats", "message": message}


def test_checkpoint_best_mse_float_would_coerce(files, tmp_path):
    doc = json.loads(files["head.json"].read_text())
    path = tmp_path / "head.json"
    for value in COERCED:
        path.write_text(json.dumps({**doc, "best_validation_mse": value}))
        with pytest.raises(FormatError, match="best_validation_mse is not a decimal string"):
            load_checkpoint(path)


def test_checkpoint_parameter_every_repr_form_loads(files, tmp_path):
    """Each form repr writes for a finite float still loads, to the bit."""
    forms = ["0.0", "-0.0", "1.5", "-2.25e-05", "1e+16", "5e-324", "1.7976931348623157e+308", "123456789.0"]
    doc = json.loads(files["head.json"].read_text())
    doc["parameters"][1]["bias"][:len(forms)] = forms
    path = tmp_path / "head.json"
    path.write_text(json.dumps(doc))
    bias = load_checkpoint(path).head.parameters()[-1]
    assert bias[:len(forms)].tobytes() == np.array([float(f) for f in forms]).tobytes()


NOT_UTF8 = b"\xff"


@pytest.mark.parametrize("kind", ["trials", "scenarios", "manifest", "catalog", "checkpoint"])
def test_file_that_is_not_utf8_names_file_and_line(kind, files, tmp_path):
    path = tmp_path / kind
    if kind == "checkpoint":
        text = files["head.json"].read_bytes()
        data = text.replace(b'"epochs_run": 3', b'"epochs_run": 3' + NOT_UTF8)
        line = text[:text.index(b'"epochs_run"')].count(b"\n") + 1
    else:
        line_of = {"trials": TRIAL_LINE, "scenarios": SCENARIO_LINE, "manifest": MANIFEST_LINE}
        first = (json.dumps(line_of[kind]) if kind != "catalog" else CATALOG_HEADER).encode()
        data, line = first + b"\n" + NOT_UTF8 + b"\n", 2
    path.write_bytes(data)
    read = {
        "trials": lambda: read_trials(path),
        "scenarios": lambda: read_scenarios(path),
        "manifest": lambda: read_embeddings(files["e.femb"], path),
        "catalog": lambda: load_catalog(path),
        "checkpoint": lambda: load_checkpoint(path),
    }[kind]
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: line {line}: not UTF-8 text: byte 0xff"):
        read()


@pytest.mark.parametrize("kind", ["trials", "checkpoint"])
def test_cli_names_the_file_that_is_not_utf8(kind, files, tmp_path, capsys):
    path = tmp_path / kind
    emb = ["--visual", files["e.femb"], "--visual-manifest", files["m.jsonl"],
           "--scenarios", files["e.femb"], "--scenario-manifest", files["m.jsonl"]]
    if kind == "trials":
        path.write_bytes(json.dumps(TRIAL_LINE).encode() + b"\n" + NOT_UTF8 + b"\n")
        checkpoint, trials, line = files["head.json"], path, 2
    else:
        path.write_bytes(NOT_UTF8 + files["head.json"].read_bytes())
        checkpoint, trials, line = path, files["t.jsonl"], 1  # the checkpoint fails before trials are read
    error = cli_error(capsys, ["match", "--visual-checkpoint", checkpoint, "--language-checkpoint", checkpoint,
                               *emb, "--trials", trials])
    assert error["type"] == "FormatError"
    assert error["message"].startswith(f"{path}: line {line}: not UTF-8 text: byte 0xff")
