"""The benchmark tracer's patch sites: every layer function that
``toolbench/tracing.py`` wraps must still exist where its caller looks it up,
so renaming or dropping one fails here rather than only in a traced run."""

from pathlib import Path

import pytest

TOOLBENCH = Path(__file__).resolve().parents[1] / "toolbench"


def test_install_layer_spans_round_trip(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLBENCH))
    import tracing

    tracer = tracing.Tracer()
    tracing.install_layer_spans(tracer)  # reads every site: AttributeError/KeyError if one is gone
    assert tracer._patches
    tracer.install()
    try:
        for owner, attr, _, replacement in tracer._patches:
            assert tracing._get(owner, attr) is replacement, attr
    finally:
        tracer.uninstall()
    for owner, attr, original, _ in tracer._patches:
        assert tracing._get(owner, attr) is original, attr


def test_training_counts_reach_the_tracer(monkeypatch):
    """``train_head`` must call ``_loss_and_grads`` with the batch as positional
    argument 1, and look ``adam_update`` and ``head_forward`` up on
    ``toolmatch.training``, or the benchmark's ``nn.*`` per-layer metrics read 0."""
    monkeypatch.syspath_prepend(str(TOOLBENCH))
    import numpy as np
    import tracing
    from toolmatch.domain import EmbeddingRecord, EmbeddingSet, ToolCatalog, ToolRecord
    from toolmatch.training import HeadConfig, train_head

    catalog = ToolCatalog([ToolRecord(t, f"tool{t}", np.full(13, t + 1.0)) for t in range(2)])
    # 10 train items per tool, 2 of each held out for validation: 16 fit rows.
    emb = EmbeddingSet([EmbeddingRecord(i, i % 2, "train", np.full(4, float(i))) for i in range(20)])
    cfg = HeadConfig(pathway="visual", layer_dims=(4, 8, 13), learning_rate=1e-3, batch_size=3,
                     max_epochs=1, validation_fraction=0.2)
    tracer = tracing.Tracer()
    tracing.install_layer_spans(tracer)
    tracer.install()
    try:
        train_head(emb, catalog, cfg)
    finally:
        tracer.uninstall()
    totals = tracer.totals(rounds=1)
    fit_rows = 16
    assert totals["nn.loss_and_grads.rows"] == fit_rows
    assert totals["nn.adam_update.calls"] == -(-fit_rows // cfg.batch_size)
    assert totals["nn.loss_and_grads.calls"] == totals["nn.adam_update.calls"]
    # One validation forward per epoch, over the 4 held-out rows.
    assert totals["nn.head_forward.calls"] == 1
    assert totals["nn.head_forward.rows"] == 4


def test_matching_ablation_reaches_the_tracer(monkeypatch, tmp_path):
    """``ablate --which matching`` loads both checkpoints through the patched
    ``load_checkpoint`` and predicts each distinct scenario and candidate once
    through the patched ``head_forward``, so the benchmark's per-layer view
    still sees that work."""
    monkeypatch.syspath_prepend(str(TOOLBENCH))
    import tracing
    from toolmatch import cli
    from toolmatch.formats import read_trials, save_checkpoint
    from toolmatch.nn import init_head
    from toolmatch.training import HeadConfig, TrainedHead

    data = tmp_path / "data"
    assert cli.main(["gen-synth", "--tools", "12", "--preset", "small", "--images", "3,2", "--dv", "16",
                     "--dl", "16", "--seed", "3", "--out", str(data)]) == 0
    for pathway in ("visual", "language"):
        config = HeadConfig.for_pathway(pathway, 16, hidden_dims=(16,))
        save_checkpoint(TrainedHead(head=init_head(config.layer_dims, 1), config=config,
                                    best_validation_mse=0.5, epochs_run=1), tmp_path / f"{pathway}.json")
    trials = read_trials(data / "trials.jsonl")
    distinct = len({t.scenario_item_id for t in trials}) + len({c for t in trials for c in t.candidate_item_ids})

    tracer = tracing.Tracer()
    tracing.install_layer_spans(tracer)
    tracer.install()
    try:
        code = cli.main([
            "ablate", "--which", "matching",
            "--visual-checkpoint", str(tmp_path / "visual.json"),
            "--language-checkpoint", str(tmp_path / "language.json"),
            "--visual", str(data / "visual.femb"), "--visual-manifest", str(data / "visual_manifest.jsonl"),
            "--scenarios", str(data / "scenarios.femb"),
            "--scenario-manifest", str(data / "scenarios_manifest.jsonl"),
            "--trials", str(data / "trials.jsonl"), "--out", str(tmp_path / "report.json"),
        ])
    finally:
        tracer.uninstall()
    assert code == 0
    totals = tracer.totals(rounds=1)
    assert totals["formats.load_checkpoint.calls"] == 2 and totals["formats.load_checkpoint.s"] > 0
    assert totals["nn.head_forward.calls"] == 2  # one stacked pass per head
    assert totals["nn.head_forward.rows"] == distinct


@pytest.mark.parametrize("which", ["class", "attr"])
def test_item_ablation_reaches_the_tracer(monkeypatch, tmp_path, which):
    """``ablate --which class`` and ``--which attr`` predict the split's items
    in one stacked pass through the patched ``head_forward``, so the
    benchmark's ``sweep`` per-layer view still sees the prediction work."""
    monkeypatch.syspath_prepend(str(TOOLBENCH))
    import tracing
    from toolmatch import cli
    from toolmatch.formats import read_embeddings, save_checkpoint
    from toolmatch.nn import init_head
    from toolmatch.training import HeadConfig, TrainedHead

    data = tmp_path / "data"
    assert cli.main(["gen-synth", "--tools", "12", "--preset", "small", "--images", "3,2", "--dv", "16",
                     "--dl", "16", "--seed", "3", "--out", str(data)]) == 0
    config = HeadConfig.for_pathway("visual", 16, hidden_dims=(16,))
    save_checkpoint(TrainedHead(head=init_head(config.layer_dims, 1), config=config,
                                best_validation_mse=0.5, epochs_run=1), tmp_path / "visual.json")
    items = read_embeddings(data / "visual.femb", data / "visual_manifest.jsonl").items("test")

    tracer = tracing.Tracer()
    tracing.install_layer_spans(tracer)
    tracer.install()
    try:
        code = cli.main([
            "ablate", "--which", which, "--checkpoint", str(tmp_path / "visual.json"),
            "--embeddings", str(data / "visual.femb"), "--manifest", str(data / "visual_manifest.jsonl"),
            "--catalog", str(data / "catalog.csv"), "--out", str(tmp_path / "report.json"),
        ])
    finally:
        tracer.uninstall()
    assert code == 0
    totals = tracer.totals(rounds=1)
    assert totals["nn.head_forward.calls"] == 1
    assert totals["nn.head_forward.rows"] == len(items) == 24


def test_gen_synth_reaches_the_tracer(monkeypatch, tmp_path):
    """``gen-synth`` generates and writes through the patched ``cli.generate``,
    ``cli.write_dataset`` and ``synthetic.write_embeddings``, and draws every
    mixer and noise variate through ``SplitMix64.normals``, so the benchmark's
    ``ingest`` per-layer view sees that work however it is blocked."""
    monkeypatch.syspath_prepend(str(TOOLBENCH))
    import tracing
    from toolmatch import cli

    tracer = tracing.Tracer()
    tracing.install_layer_spans(tracer)
    tracer.install()
    try:
        code = cli.main(["gen-synth", "--tools", "12", "--preset", "small", "--images", "3,2", "--dv", "16",
                         "--dl", "14", "--sigma", "0.5", "--seed", "3", "--out", str(tmp_path)])
    finally:
        tracer.uninstall()
    assert code == 0
    totals = tracer.totals(rounds=1)
    mixers = (16 + 14) * 13
    noise = 12 * ((3 + 2) * 16 + (10 + 3) * 14)  # one variate per item and dimension
    assert totals["rng.normals.variates"] == mixers + noise
    for name in ("synthetic.generate", "synthetic.write_dataset", "formats.write_embeddings"):
        assert totals[f"{name}.s"] > 0, name
    assert totals["synthetic.generate.calls"] == totals["synthetic.write_dataset.calls"] == 1
    assert totals["formats.write_embeddings.calls"] == 2


def test_select_path_reaches_the_tracer(monkeypatch):
    """The benchmark's ``select`` request predicts through the patched
    ``training.predictor`` (which reaches ``head_forward`` through
    ``predict_attributes``) and ranks through the patched ``rank_candidates``
    that ``select_tool`` looks up, so its per-layer view counts every miss,
    hit and ranking."""
    monkeypatch.syspath_prepend(str(TOOLBENCH))
    import numpy as np
    import tracing
    from toolmatch import similarity, training
    from toolmatch.domain import EmbeddingRecord, EmbeddingSet
    from toolmatch.nn import init_head

    config = training.HeadConfig.for_pathway("language", 6, hidden_dims=(8, 7))
    trained = training.TrainedHead(head=init_head(config.layer_dims, 2), config=config,
                                   best_validation_mse=0.5, epochs_run=1)
    items = EmbeddingSet([EmbeddingRecord(i, i % 3, "test", np.arange(6.0) + i) for i in range(12)])
    requests = [(0, [4, 5, 6]), (1, [4, 7, 8]), (0, [5, 9, 10])]  # scenario id, candidate ids

    tracer = tracing.Tracer()
    tracing.install_layer_spans(tracer)
    tracer.install()
    try:
        predict = training.predictor(trained, items)
        chosen = [similarity.select_tool(predict(sid), [(c, predict(c)) for c in cands])[0]
                  for sid, cands in requests]
    finally:
        tracer.uninstall()
    assert all(c in cands for c, (_, cands) in zip(chosen, requests))
    totals = tracer.totals(rounds=1)
    calls = sum(1 + len(cands) for _, cands in requests)
    distinct = len({i for sid, cands in requests for i in (sid, *cands)})
    assert totals["training.predictor.misses"] == totals["nn.head_forward.calls"] == distinct == 9
    assert totals["nn.head_forward.rows"] == distinct
    assert totals["training.predictor.hits"] == calls - distinct
    assert totals["similarity.rank_candidates.calls"] == len(requests)
