"""Command-line interface: exit codes, report schemas, config echoes, and
end-to-end runs over a small noiseless dataset."""

import hashlib
import json

import numpy as np
import pytest

from toolmatch import cli
from toolmatch.cli import main
from toolmatch.domain import ToolCatalog, ToolRecord
from toolmatch.formats import (load_catalog, load_checkpoint, read_embeddings, save_catalog, save_checkpoint,
                               sha256_file)
from toolmatch.nn import init_head
from toolmatch.training import HeadConfig, TrainedHead, predict_attributes


def run(capsys, *argv):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err or out
    return json.loads(out)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    code = main([
        "gen-synth", "--tools", "10", "--preset", "small", "--images", "3,2",
        "--dv", "16", "--dl", "13", "--sigma", "0", "--seed", "5",
        "--out", str(out),
    ])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def visual_checkpoint(tmp_path_factory, dataset):
    path = tmp_path_factory.mktemp("ckpt") / "visual.json"
    code = main([
        "train", "--pathway", "visual",
        "--embeddings", str(dataset / "visual.femb"),
        "--manifest", str(dataset / "visual_manifest.jsonl"),
        "--catalog", str(dataset / "catalog.csv"),
        "--out", str(path),
        "--hidden", "16", "--lr", "3e-3", "--batch", "4", "--epochs", "200",
    ])
    assert code == 0
    return path


@pytest.fixture(scope="module")
def language_checkpoint(tmp_path_factory, dataset):
    path = tmp_path_factory.mktemp("ckpt") / "language.json"
    code = main([
        "train", "--pathway", "language",
        "--embeddings", str(dataset / "scenarios.femb"),
        "--manifest", str(dataset / "scenarios_manifest.jsonl"),
        "--catalog", str(dataset / "catalog.csv"),
        "--out", str(path),
        "--hidden", "16", "--lr", "3e-3", "--epochs", "150",
    ])
    assert code == 0
    return path


def eval_args(dataset, checkpoint, *extra):
    return [
        "--checkpoint", str(checkpoint),
        "--embeddings", str(dataset / "visual.femb"),
        "--manifest", str(dataset / "visual_manifest.jsonl"),
        "--catalog", str(dataset / "catalog.csv"),
        *extra,
    ]


def match_args(dataset, visual_ckpt, language_ckpt, *extra):
    return [
        "--visual-checkpoint", str(visual_ckpt),
        "--language-checkpoint", str(language_ckpt),
        "--visual", str(dataset / "visual.femb"),
        "--visual-manifest", str(dataset / "visual_manifest.jsonl"),
        "--scenarios", str(dataset / "scenarios.femb"),
        "--scenario-manifest", str(dataset / "scenarios_manifest.jsonl"),
        "--trials", str(dataset / "trials.jsonl"),
        *extra,
    ]


class TestGenSynth:
    def test_report_and_files(self, capsys, tmp_path):
        out = tmp_path / "ds"
        report = run_json(
            capsys, "gen-synth", "--tools", "11", "--preset", "small",
            "--images", "2,1", "--dv", "13", "--dl", "13", "--seed", "3",
            "--out", str(out),
        )
        assert report["command"] == "gen-synth"
        assert report["config"]["n_tools"] == 11
        assert report["config"]["preset"] == "small"
        assert report["config"]["scenarios_per_tool"] == [10, 3]
        assert report["counts"] == {
            "tools": 11, "visual_items": 33, "scenario_items": 143, "trials": 11,
        }
        assert "wall_time_s" in report
        for art in report["artifacts"].values():
            assert (out / art["path"].split("/")[-1]).exists()
            assert sha256_file(art["path"]) == art["sha256"]

    def test_deterministic_artifacts(self, capsys, tmp_path):
        reports = []
        for name in ("a", "b"):
            reports.append(run_json(
                capsys, "gen-synth", "--tools", "10", "--preset", "small",
                "--images", "2,1", "--dv", "13", "--dl", "13", "--seed", "9",
                "--out", str(tmp_path / name),
            ))
        a, b = reports
        for key in a["artifacts"]:
            assert a["artifacts"][key]["sha256"] == b["artifacts"][key]["sha256"]

    def test_too_few_tools_is_runtime_error(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "gen-synth", "--tools", "4", "--out", str(tmp_path / "x"),
        )
        assert code == 1
        payload = json.loads(err)
        assert payload["error"]["type"] == "ValueError"
        assert "at least 10" in payload["error"]["message"]

    def test_bad_images_pair_is_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["gen-synth", "--tools", "10", "--images", "3", "--out", str(tmp_path / "x")])
        assert info.value.code == 2


class TestTrain:
    def test_visual_defaults_echoed(self, capsys, dataset, tmp_path):
        # No overrides: the config echo shows the visual pathway defaults.
        report = run_json(
            capsys, "train", "--pathway", "visual",
            "--embeddings", str(dataset / "visual.femb"),
            "--manifest", str(dataset / "visual_manifest.jsonl"),
            "--catalog", str(dataset / "catalog.csv"),
            "--out", str(tmp_path / "head.json"),
        )
        cfg = report["config"]
        assert cfg["pathway"] == "visual"
        assert cfg["layer_dims"] == [16, 256, 64, 13]
        assert cfg["learning_rate"] == 1e-4
        assert cfg["batch_size"] == 256
        assert cfg["max_epochs"] == 1000
        assert cfg["patience"] == 50
        assert cfg["validation_fraction"] == 0.1
        assert report["training"]["epochs_run"] >= 1

    def test_language_defaults_echoed(self, capsys, dataset, tmp_path):
        report = run_json(
            capsys, "train", "--pathway", "language",
            "--embeddings", str(dataset / "scenarios.femb"),
            "--manifest", str(dataset / "scenarios_manifest.jsonl"),
            "--catalog", str(dataset / "catalog.csv"),
            "--out", str(tmp_path / "head.json"),
            "--epochs", "2",
        )
        cfg = report["config"]
        assert cfg["pathway"] == "language"
        assert cfg["layer_dims"] == [13, 256, 128, 64, 13]
        assert cfg["learning_rate"] == 5e-5
        assert cfg["batch_size"] == 4
        assert cfg["max_epochs"] == 2  # explicit override wins

    def test_checkpoint_artifact_fingerprint(self, capsys, dataset, tmp_path):
        path = tmp_path / "head.json"
        report = run_json(
            capsys, "train", "--pathway", "visual",
            "--embeddings", str(dataset / "visual.femb"),
            "--manifest", str(dataset / "visual_manifest.jsonl"),
            "--catalog", str(dataset / "catalog.csv"),
            "--out", str(path), "--hidden", "16", "--epochs", "3",
        )
        assert path.exists()
        assert report["artifacts"]["checkpoint"]["sha256"] == sha256_file(path)
        trained = load_checkpoint(path)
        assert trained.config.max_epochs == 3

    def test_reruns_identical_modulo_wall_time(self, capsys, dataset, tmp_path):
        path = tmp_path / "head.json"
        argv = [
            "train", "--pathway", "visual",
            "--embeddings", str(dataset / "visual.femb"),
            "--manifest", str(dataset / "visual_manifest.jsonl"),
            "--catalog", str(dataset / "catalog.csv"),
            "--out", str(path), "--hidden", "16", "--epochs", "5",
        ]
        a = run_json(capsys, *argv)
        b = run_json(capsys, *argv)
        a.pop("wall_time_s")
        b.pop("wall_time_s")
        assert a == b

    @pytest.mark.parametrize("rate", ["nan", "inf"])
    @pytest.mark.parametrize("epochs", ["0", "2"])
    def test_non_finite_learning_rate_is_runtime_error(self, capsys, dataset, tmp_path, rate, epochs):
        # --epochs 0 never reaches the forward pass, where --epochs 2 would fail
        # with an error about the parameters instead of the flag.
        path = tmp_path / "head.json"
        code, out, err = run(
            capsys, "train", "--pathway", "visual",
            "--embeddings", str(dataset / "visual.femb"),
            "--manifest", str(dataset / "visual_manifest.jsonl"),
            "--catalog", str(dataset / "catalog.csv"),
            "--out", str(path), "--hidden", "16", f"--lr={rate}", "--epochs", epochs,
        )
        assert code == 1 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ValueError"
        assert "learning_rate must be a positive finite number" in error["message"]
        assert not path.exists()

    def test_missing_pathway_is_usage_error(self, capsys, dataset, tmp_path):
        with pytest.raises(SystemExit) as info:
            main([
                "train",
                "--embeddings", str(dataset / "visual.femb"),
                "--manifest", str(dataset / "visual_manifest.jsonl"),
                "--catalog", str(dataset / "catalog.csv"),
                "--out", str(tmp_path / "head.json"),
            ])
        assert info.value.code == 2

    def test_missing_file_is_runtime_error(self, capsys, dataset, tmp_path):
        code, out, err = run(
            capsys, "train", "--pathway", "visual",
            "--embeddings", str(dataset / "nope.femb"),
            "--manifest", str(dataset / "visual_manifest.jsonl"),
            "--catalog", str(dataset / "catalog.csv"),
            "--out", str(tmp_path / "head.json"),
        )
        assert code == 1
        payload = json.loads(err)
        assert payload["error"]["type"] == "FileNotFoundError"
        assert payload["error"]["module"] == "builtins"


class TestEval:
    def test_eval_attr_converged_head(self, capsys, dataset, visual_checkpoint):
        report = run_json(
            capsys, "eval-attr", *eval_args(dataset, visual_checkpoint, "--split", "test"),
        )
        assert report["command"] == "eval-attr"
        inner = report["report"]
        assert inner["metric"] == "attribute_wise_accuracy"
        assert inner["value"] >= 0.95
        assert inner["denominator"] == 10 * 2 * 13
        assert len(inner["per_attribute"]) == 13

    def test_eval_attr_mask(self, capsys, dataset, visual_checkpoint):
        report = run_json(
            capsys, "eval-attr",
            *eval_args(dataset, visual_checkpoint, "--mask", "graspability,valence"),
        )
        inner = report["report"]
        assert inner["denominator"] == 10 * 2 * 11
        names = [row["attribute"] for row in inner["per_attribute"]]
        assert "graspability" not in names and "valence" not in names

    def test_eval_attr_bad_mask_name(self, capsys, dataset, visual_checkpoint):
        code, out, err = run(
            capsys, "eval-attr", *eval_args(dataset, visual_checkpoint, "--mask", "weight"),
        )
        assert code == 1
        payload = json.loads(err)
        assert "bad --mask" in payload["error"]["message"]
        assert "elongation" in payload["error"]["message"]  # lists valid names

    def test_eval_class(self, capsys, dataset, visual_checkpoint):
        report = run_json(
            capsys, "eval-class", *eval_args(dataset, visual_checkpoint, "--split", "test"),
        )
        inner = report["report"]
        assert inner["metric"] == "most_similar_class_accuracy"
        assert inner["denominator"] == 20
        assert inner["value"] >= 0.9

    def test_eval_report_to_file(self, capsys, dataset, visual_checkpoint, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, err = run(
            capsys, "eval-attr",
            *eval_args(dataset, visual_checkpoint, "--out", str(out_path)),
        )
        assert code == 0
        assert out == ""
        saved = json.loads(out_path.read_text())
        assert saved["command"] == "eval-attr"

    def test_dimension_mismatch_is_runtime_error(self, capsys, dataset, visual_checkpoint):
        # The visual head expects 16-dim inputs; scenario embeddings are 13.
        code, out, err = run(
            capsys, "eval-attr",
            "--checkpoint", str(visual_checkpoint),
            "--embeddings", str(dataset / "scenarios.femb"),
            "--manifest", str(dataset / "scenarios_manifest.jsonl"),
            "--catalog", str(dataset / "catalog.csv"),
        )
        assert code == 1
        payload = json.loads(err)
        assert "dimension" in payload["error"]["message"]

    @pytest.mark.parametrize("key, value, message", [
        ("best_validation_mse", "nan", "best_validation_mse must be a non-negative MSE or inf, got 'nan'"),
        ("best_validation_mse", "-1.5", "best_validation_mse must be a non-negative MSE or inf, got '-1.5'"),
        ("epochs_run", -3, "epochs_run -3 not in [0, 200]"),
    ])
    def test_impossible_provenance_is_runtime_error(
        self, capsys, dataset, visual_checkpoint, tmp_path, key, value, message
    ):
        doc = json.loads(visual_checkpoint.read_text())
        doc[key] = value
        path = tmp_path / "visual.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "eval-attr", *eval_args(dataset, path))
        assert code == 1 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "FormatError"
        assert error["message"].startswith(f"{path}: {message}")


class TestMatch:
    def test_end_to_end_cosine(self, capsys, dataset, visual_checkpoint, language_checkpoint):
        report = run_json(
            capsys, "match", *match_args(dataset, visual_checkpoint, language_checkpoint),
        )
        inner = report["report"]
        assert inner["metric"] == "matching_accuracy"
        assert inner["denominator"] == 10
        assert inner["value"] >= 0.9
        assert inner["config"]["metric"] == "cosine"
        per_trial = inner["details"]["per_trial"]
        assert len(per_trial) == 10
        assert all(len(row["ranking"]) == 10 for row in per_trial)

    def test_euclid_flag_maps_to_negative_euclidean(
        self, capsys, dataset, visual_checkpoint, language_checkpoint
    ):
        report = run_json(
            capsys, "match",
            *match_args(dataset, visual_checkpoint, language_checkpoint, "--metric", "euclid"),
        )
        assert report["config"]["metric"] == "euclid"
        assert report["report"]["config"]["metric"] == "negative_euclidean"

    def test_unknown_metric_is_usage_error(
        self, capsys, dataset, visual_checkpoint, language_checkpoint
    ):
        with pytest.raises(SystemExit) as info:
            main(["match", *match_args(dataset, visual_checkpoint, language_checkpoint,
                                       "--metric", "dot")])
        assert info.value.code == 2


class TestOnePredictionPerItem:
    """``eval-attr`` and ``eval-class`` score each item with the bits its
    one-item prediction has, as ``match`` does; a (n, d) batch rounds its
    rows differently at this width."""

    @pytest.mark.parametrize("command,metric", [
        ("eval-attr", "attribute_wise_accuracy"), ("eval-class", "most_similar_class_accuracy"),
    ])
    def test_rows_equal_predict_attributes(self, capsys, tmp_path, monkeypatch, command, metric):
        assert main(["gen-synth", "--tools", "10", "--preset", "small", "--images", "4,1", "--dv", "768",
                     "--sigma", "1", "--seed", "4", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        config = HeadConfig.for_pathway("visual", 768)
        trained = TrainedHead(head=init_head(config.layer_dims, 9), config=config,
                              best_validation_mse=0.5, epochs_run=1)
        save_checkpoint(trained, tmp_path / "visual.json")
        seen = []

        def spy(preds, *args, **kwargs):
            seen.append(preds)
            return original(preds, *args, **kwargs)

        original = getattr(cli, metric)
        monkeypatch.setattr(cli, metric, spy)
        run_json(capsys, command, *eval_args(tmp_path, tmp_path / "visual.json", "--split", "train"))
        (preds,) = seen
        if command == "eval-class":
            preds = [row for _, row in preds]
        emb = read_embeddings(tmp_path / "visual.femb", tmp_path / "visual_manifest.jsonl")
        items = emb.items("train")
        assert len(preds) == len(items) == 40
        for row, item in zip(preds, items):
            assert row.tobytes() == predict_attributes(trained, emb, item).tobytes(), item


class TestTrialItems:
    """A trial that names an item its embedding file lacks is a FormatError
    naming the trials file, the trial, the field and that embedding file."""

    @pytest.mark.parametrize("command", [["match"], ["ablate", "--which", "matching"]])
    @pytest.mark.parametrize("field,source", [
        ("scenario_item_id", "scenarios.femb"), ("candidate_item_ids", "visual.femb"),
    ])
    def test_missing_item_names_trial_field_and_file(
        self, capsys, dataset, visual_checkpoint, language_checkpoint, tmp_path, command, field, source
    ):
        rows = [json.loads(line) for line in (dataset / "trials.jsonl").read_text().splitlines()]
        if field == "scenario_item_id":
            rows[3][field] = 99999
        else:
            rows[3][field][2] = 99999
        trials = tmp_path / "trials.jsonl"
        trials.write_text("".join(json.dumps(row) + "\n" for row in rows))
        code, out, err = run(
            capsys, *command, *match_args(dataset, visual_checkpoint, language_checkpoint),
            "--trials", str(trials),
        )
        assert code == 1 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "FormatError"
        assert error["message"] == (
            f"{trials}: trial {rows[3]['trial_id']}: {field}: item_id 99999 not in {dataset / source}"
        )


class TestAblate:
    def test_attr_sweep(self, capsys, dataset, visual_checkpoint):
        report = run_json(
            capsys, "ablate", "--which", "attr", *eval_args(dataset, visual_checkpoint),
        )
        assert report["command"] == "ablate"
        assert report["baseline"]["metric"] == "attribute_wise_accuracy"
        assert len(report["rows"]) == 13
        assert [r["removed_index"] for r in report["rows"]] == list(range(13))

    def test_matching_sweep(self, capsys, dataset, visual_checkpoint, language_checkpoint):
        report = run_json(
            capsys, "ablate", "--which", "matching",
            *match_args(dataset, visual_checkpoint, language_checkpoint),
        )
        assert report["baseline"]["metric"] == "matching_accuracy"
        assert len(report["rows"]) == 13

    @pytest.mark.parametrize("which,command", [
        ("attr", "eval-attr"), ("class", "eval-class"), ("matching", "match"),
    ])
    def test_baseline_equals_one_shot_report(
        self, capsys, dataset, visual_checkpoint, language_checkpoint, which, command
    ):
        if which == "matching":
            argv = match_args(dataset, visual_checkpoint, language_checkpoint)
        else:
            argv = eval_args(dataset, visual_checkpoint)
        sweep = run_json(capsys, "ablate", "--which", which, *argv)
        one_shot = run_json(capsys, command, *argv)["report"]
        details = one_shot.pop("details", {})
        details.pop("per_trial", None)
        if details:
            one_shot["details"] = details
        assert sweep["baseline"] == one_shot

    def test_matching_sweep_requires_match_inputs(self, capsys, dataset, visual_checkpoint):
        code, out, err = run(
            capsys, "ablate", "--which", "matching",
            "--visual-checkpoint", str(visual_checkpoint),
        )
        assert code == 1
        payload = json.loads(err)
        assert "requires" in payload["error"]["message"]
        assert "--language-checkpoint" in payload["error"]["message"]


@pytest.fixture(scope="module")
def noisy(tmp_path_factory):
    """A sigma 1.5 dataset with both heads trained on it: scores spread out
    and about half the trials miss, so the pins below see every branch."""
    out = tmp_path_factory.mktemp("noisy")
    assert main([
        "gen-synth", "--tools", "30", "--preset", "small", "--images", "4,3",
        "--dv", "16", "--dl", "16", "--sigma", "1.5", "--seed", "8", "--out", str(out),
    ]) == 0
    for pathway, name in (("visual", "visual"), ("language", "scenarios")):
        assert main([
            "train", "--pathway", pathway,
            "--embeddings", str(out / f"{name}.femb"),
            "--manifest", str(out / f"{name}_manifest.jsonl"),
            "--catalog", str(out / "catalog.csv"),
            "--out", str(out / f"{pathway}.json"),
            "--hidden", "16", "--lr", "3e-3", "--batch", "8", "--epochs", "30",
        ]) == 0
    return out


def sha256_json(obj) -> str:
    """Digest of the JSON text, in which every float is its exact repr."""
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


class TestBitPins:
    """Digests of report payloads recorded when every trial and item was
    scored by its own call. Any change to the order in which a score is
    reduced, or to how ties and failures resolve, changes them."""

    MATCH = {
        "cosine": "d8f866ddb45443f177011de7ce7d380d3432e8f283ef77005d1104b0e7df70b3",
        "euclid-clamp-mask": "826b78443bbe9764a3567759f34dfb785a013361990e5f8009a9ecffd842f92d",
    }
    ABLATE = {
        "matching": "292ff48a7d08b80e5148f975b19003bf051fb1100d14b585b991fdfc4e3fb730",
        "class": "5f6aaa8004643cdd024aa41a252da6269fff48cd7868e0a7363f1b085b5cac0e",
        "class-clamp": "57633774e576d238ec10c7bc3a7eade839b15c1dca5729df31b5de74b7bd7271",
    }

    @pytest.mark.parametrize("name,extra", [
        ("cosine", []),
        ("euclid-clamp-mask", ["--metric", "euclid", "--clamp", "--mask", "graspability,elongation"]),
    ])
    def test_match_per_trial(self, capsys, noisy, name, extra):
        argv = match_args(noisy, noisy / "visual.json", noisy / "language.json", *extra)
        report = run_json(capsys, "match", *argv)
        assert sha256_json(report["report"]["details"]["per_trial"]) == self.MATCH[name]

    @pytest.mark.parametrize("name", ["matching", "class", "class-clamp"])
    def test_ablate_rows(self, capsys, noisy, name):
        if name == "matching":
            argv = match_args(noisy, noisy / "visual.json", noisy / "language.json")
        else:
            argv = eval_args(noisy, noisy / "visual.json", *(["--clamp"] if name == "class-clamp" else []))
        report = run_json(capsys, "ablate", "--which", name.split("-")[0], *argv)
        assert sha256_json([report["baseline"], *report["rows"]]) == self.ABLATE[name]


class TestOtherLineBreaks:
    """str.splitlines also ends a line at U+2028, U+0085, 0x0c and 0x1c; a catalog row or JSONL line does not."""

    @pytest.mark.parametrize("char", ["\u2028", "\x85", "\x0c", "\x1c"])
    def test_train_reads_a_tool_name_and_a_manifest_field_holding_one(self, capsys, dataset, tmp_path, char):
        catalog = tmp_path / "catalog.csv"
        save_catalog(ToolCatalog([ToolRecord(t.tool_id, f"saw{char}{t.tool_name}", t.attributes)
                                  for t in load_catalog(dataset / "catalog.csv")]), catalog)
        manifest = tmp_path / "manifest.jsonl"
        lines = (dataset / "visual_manifest.jsonl").read_text().splitlines()
        rows = [{**json.loads(line), "note": f"cam{char}1"} for line in lines]
        manifest.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows), encoding="utf-8")
        report = run_json(
            capsys, "train", "--pathway", "visual",
            "--embeddings", str(dataset / "visual.femb"), "--manifest", str(manifest), "--catalog", str(catalog),
            "--out", str(tmp_path / "head.json"), "--hidden", "4", "--epochs", "1",
        )
        assert report["training"]["epochs_run"] == 1


class TestGradcheck:
    def test_default_passes(self, capsys):
        report = run_json(capsys, "gradcheck", "--dims", "8,256,64,13", "--seed", "3")
        assert report["pass"] is True
        assert report["max_relative_error"] < 1e-4

    @pytest.mark.parametrize("dims, seed, value", [
        ("16,256,64,13", 3, 1.1557975984708563e-05),
        ("32,256,128,64,13", 5, 1.2373429026744054e-05),
    ])
    def test_value_pinned_across_versions(self, capsys, dims, seed, value):
        # Exact float bits: any change to how the forward pass, the backward
        # pass or the probe losses round changes them. Like the digests in
        # TestBitPins, they assume the same numpy and BLAS build.
        report = run_json(capsys, "gradcheck", "--dims", dims, "--seed", str(seed))
        assert report["max_relative_error"] == value

    def test_failing_tolerance_exits_one(self, capsys):
        code, out, err = run(
            capsys, "gradcheck", "--dims", "8,16,13", "--seed", "1", "--tol", "1e-18",
        )
        assert code == 1
        report = json.loads(out)  # report still emitted
        assert report["pass"] is False

    @pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
    def test_tolerance_must_be_positive_and_finite(self, capsys, tol):
        # inf would pass any finite error; nan and -1 would fail gradients that are right.
        code, out, err = run(capsys, "gradcheck", "--dims", "4,13", f"--tol={tol}")
        assert code == 1 and out == ""
        assert "--tol must be a positive finite number" in json.loads(err)["error"]["message"]

    def test_h_out_of_range_is_runtime_error(self, capsys):
        code, out, err = run(capsys, "gradcheck", "--dims", "8,13", "--h", "0.5")
        assert code == 1
        payload = json.loads(err)
        assert "perturbation" in payload["error"]["message"]

    def test_report_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "gc.json"
        code, out, err = run(
            capsys, "gradcheck", "--dims", "6,16,13", "--seed", "2", "--out", str(out_path),
        )
        assert code == 0 and out == ""
        assert json.loads(out_path.read_text())["pass"] is True

    @pytest.mark.parametrize("target, error", [
        ("missing_dir", "FileNotFoundError"), ("directory", "IsADirectoryError"),
    ])
    def test_unwritable_out_is_runtime_error(self, capsys, tmp_path, target, error):
        # Writing the report is part of the command: a bad --out prints the
        # JSON error object and exits 1 instead of ending in a traceback.
        out_path = tmp_path / "no" / "such" / "r.json" if target == "missing_dir" else tmp_path
        code, out, err = run(capsys, "gradcheck", "--dims", "4,13", "--out", str(out_path))
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"]["type"] == error
        assert str(out_path) in payload["error"]["message"]

    def test_deterministic(self, capsys):
        a = run_json(capsys, "gradcheck", "--dims", "6,16,13", "--seed", "4")
        b = run_json(capsys, "gradcheck", "--dims", "6,16,13", "--seed", "4")
        assert a["max_relative_error"] == b["max_relative_error"]


class TestUsage:
    def test_no_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_unknown_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["transmogrify"])
        assert info.value.code == 2
