"""The benchmark tracer's patch sites: every layer function that
``toolbench/tracing.py`` wraps must still exist where its caller looks it up,
so renaming or dropping one fails here rather than only in a traced run."""

from pathlib import Path

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
