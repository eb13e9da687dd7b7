"""Spans around the calls into each toolmatch layer, taken from outside.

The tracer patches each layer function where its caller looks it up (for
example ``_loss_and_grads`` inside ``toolmatch.training``), records one span
per call (name, start, end, parent span, request id, phase) in flat arrays,
and counts work (rows, bytes, variates) at the same boundaries. Nothing is
patched unless a traced run installs it.
"""

from __future__ import annotations

import os
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

SETUP, TIMED = 0, 1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("q")
        self.span_phase = array("b")
        self.counts = [defaultdict(float), defaultdict(float)]  # per phase
        self.active = False
        self.phase = SETUP
        self.request_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []

    # -- recording --------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self.request_id)
        self.span_phase.append(self.phase)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (a request or an operation)."""
        if not self.active:
            yield
            return
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def count(self, key: str, n: float) -> None:
        if self.active:
            self.counts[self.phase][key] += n

    def wrap(self, name: str, fn, counter=None):
        nid = self._name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if counter is not None:
                counter(tracer, name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- patching ---------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, _get(owner, attr), replacement))

    def install(self) -> None:
        for owner, attr, _, replacement in self._patches:
            _set(owner, attr, replacement)
        self.active = True

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            _set(owner, attr, original)
        self.active = False

    # -- results ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return {"name": np.frombuffer(self.name, dtype=np.int32), "start": start, "end": end,
                "parent": parent, "request": np.frombuffer(self.request, dtype=np.int64),
                "phase": np.frombuffer(self.span_phase, dtype=np.int8), "dur": dur, "self": dur - child}

    def totals(self, rounds: int) -> dict[str, float]:
        """Per span name: ``.s``, ``.self_s`` and ``.calls``; plus every count.

        Figures are for the set-up plus one average traced round: set-up spans
        count once, timed spans are divided by the number of traced rounds.
        """
        a = self.arrays()
        n = len(self.names)
        setup = a["phase"] == SETUP
        out: dict[str, float] = {}
        for key, values in (("s", a["dur"]), ("self_s", a["self"]), ("calls", np.ones(len(a["dur"])))):
            sums = (np.bincount(a["name"][setup], weights=values[setup], minlength=n)
                    + np.bincount(a["name"][~setup], weights=values[~setup], minlength=n) / max(rounds, 1))
            for nid, name in enumerate(self.names):
                out[f"{name}.{key}"] = float(sums[nid])
        for phase, scale in ((SETUP, 1.0), (TIMED, 1.0 / max(rounds, 1))):
            for key, value in self.counts[phase].items():
                out[key] = out.get(key, 0.0) + value * scale
        return out

    def write(self, path) -> None:
        """Write every span, with the name table, to a ``.npz`` file."""
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        a = self.arrays()
        np.savez(path, names=np.array(self.names), **{k: v for k, v in a.items() if k not in ("dur", "self")})


def _get(owner, attr):
    return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)


def _set(owner, attr, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


# ---------------------------------------------------------------------------
# Layer boundaries


def _rows_of(arg_index):
    def counter(tracer, name, args, result):
        x = args[arg_index]
        tracer.count(f"{name}.rows", 1 if getattr(x, "ndim", 2) == 1 else len(x))
    return counter


def _variates(tracer, name, args, result):
    tracer.count(f"{name}.variates", args[1])


def _bytes_of(arg_index):
    def counter(tracer, name, args, result):
        tracer.count(f"{name}.bytes", os.path.getsize(args[arg_index]))
    return counter


def install_layer_spans(tracer: Tracer) -> None:
    """Register a span at every layer boundary the benchmark measures."""
    from toolmatch import cli, domain, evaluation, formats, rng, similarity, synthetic, training

    def at(name, sites, counter=None):
        """One wrapper for ``name``, patched at every (owner, attribute) site."""
        wrapped = tracer.wrap(name, _get(*sites[0]), counter)
        for owner, attr in sites:
            tracer.patch(owner, attr, wrapped)

    def sites(attr, *owners):
        return [(owner, attr) for owner in owners]

    at("nn.loss_and_grads", sites("_loss_and_grads", training), _rows_of(1))
    at("nn.adam_update", sites("adam_update", training))
    at("nn.head_forward", sites("head_forward", training, cli), _rows_of(1))
    at("rng.shuffle", sites("shuffle", rng.SplitMix64))
    at("rng.normals", sites("normals", rng.SplitMix64), _variates)
    at("training.train_head", sites("train_head", training, cli))
    at("similarity.rank_candidates", sites("rank_candidates", similarity, evaluation))
    at("similarity.cosine_similarity",
       [(similarity.METRICS, "cosine"), (evaluation, "cosine_similarity")])
    at("evaluation.matching_accuracy", sites("matching_accuracy", evaluation, cli))
    at("evaluation.most_similar_class_accuracy", sites("most_similar_class_accuracy", evaluation, cli))
    at("evaluation.attribute_wise_accuracy", sites("attribute_wise_accuracy", evaluation, cli))
    at("formats.read_embeddings", sites("read_embeddings", formats, cli), _bytes_of(0))
    at("formats.load_checkpoint", sites("load_checkpoint", formats, cli))
    at("formats.write_embeddings", sites("write_embeddings", formats, synthetic), _bytes_of(1))
    at("formats.sha256_file", sites("sha256_file", formats, cli), _bytes_of(0))
    at("domain.EmbeddingSet", sites("__init__", domain.EmbeddingSet))
    at("domain.EmbeddingSet.matrix", sites("matrix", domain.EmbeddingSet), _rows_of(1))
    at("synthetic.generate", sites("generate", synthetic, cli))
    at("synthetic.write_dataset", sites("write_dataset", synthetic, cli))
    at("cli.main", sites("main", cli))

    # Prediction caching: a predictor call that reaches predict_attributes is
    # a miss, any other call a hit.
    misses = [0]

    def counting_predict_attributes(*args, **kwargs):
        misses[0] += 1
        return original_predict_attributes(*args, **kwargs)

    def counting_predictor(*args, **kwargs):
        inner = original_predictor(*args, **kwargs)

        def predict(item_id):
            before = misses[0]
            out = inner(item_id)
            tracer.count("training.predictor.misses" if misses[0] != before else "training.predictor.hits", 1)
            return out

        return predict

    original_predict_attributes = training.predict_attributes
    original_predictor = training.predictor
    tracer.patch(training, "predict_attributes", counting_predict_attributes)
    for owner in (training, cli):
        tracer.patch(owner, "predictor", counting_predictor)
