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
