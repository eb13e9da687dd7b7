"""Training loop behavior: determinism, early stopping, convergence on a
linearly solvable dataset, and failure modes."""

import hashlib

import numpy as np
import pytest

from toolmatch.domain import EmbeddingRecord, EmbeddingSet, ToolCatalog, ToolRecord
from toolmatch.nn import head_forward, init_head
from toolmatch.rng import SplitMix64
from toolmatch.training import (
    HeadConfig,
    PATHWAYS,
    TrainedHead,
    TrainingDivergedError,
    predict_attributes,
    predict_each,
    predictor,
    split_validation,
    train_head,
)


def toy_dataset(n_tools=4, per_tool=6, dim=8, seed=11):
    """Embeddings are a fixed linear image of the tool attribute vector, so a
    head can drive the loss to zero."""
    rng = SplitMix64(seed)
    tools = []
    for t in range(n_tools):
        attrs = np.array([float(rng.randint(7) + 1) for _ in range(13)])
        tools.append(ToolRecord(t, f"tool{t}", attrs))
    catalog = ToolCatalog(tools)
    mixer = rng.normals(dim * 13).reshape(dim, 13) * 0.3
    records = []
    item = 0
    for t in range(n_tools):
        base = mixer @ catalog.get(t).attributes
        for j in range(per_tool):
            split = "train" if j < per_tool - 1 else "test"
            records.append(EmbeddingRecord(item, t, split, base))
            item += 1
    return EmbeddingSet(records), catalog


def small_config(**overrides):
    base = dict(
        pathway="visual",
        layer_dims=(8, 16, 13),
        learning_rate=1e-3,
        batch_size=4,
        max_epochs=50,
        patience=50,
        validation_fraction=0.2,
        seed=3,
    )
    base.update(overrides)
    return HeadConfig(**base)


class TestHeadConfig:
    def test_pathway_defaults(self):
        visual = HeadConfig.for_pathway("visual", input_dim=32)
        assert visual.layer_dims == (32, 256, 64, 13)
        assert visual.learning_rate == 1e-4
        assert visual.batch_size == 256
        assert visual.max_epochs == 1000
        language = HeadConfig.for_pathway("language", input_dim=300)
        assert language.layer_dims == (300, 256, 128, 64, 13)
        assert language.learning_rate == 5e-5
        assert language.batch_size == 4
        assert language.max_epochs == 2000
        for cfg in (visual, language):
            assert cfg.patience == 50
            assert cfg.validation_fraction == 0.1

    def test_overrides(self):
        cfg = HeadConfig.for_pathway(
            "visual", input_dim=8, hidden_dims=(16,), learning_rate=0.01, max_epochs=5
        )
        assert cfg.layer_dims == (8, 16, 13)
        assert cfg.learning_rate == 0.01
        assert cfg.max_epochs == 5

    def test_validation(self):
        with pytest.raises(ValueError, match="pathway"):
            small_config(pathway="audio")
        with pytest.raises(ValueError, match="must be 13"):
            small_config(layer_dims=(8, 16, 12))
        for rate in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="learning_rate must be a positive finite number"):
                small_config(learning_rate=rate)
        with pytest.raises(ValueError, match="batch_size"):
            small_config(batch_size=0)
        with pytest.raises(ValueError, match="patience"):
            small_config(patience=0)
        with pytest.raises(ValueError, match="validation_fraction"):
            small_config(validation_fraction=1.0)
        assert tuple(PATHWAYS) == ("visual", "language")

    def test_layer_dims_follow_the_head_rules(self):
        # The config checks its widths with the rule every head is built by.
        with pytest.raises(ValueError, match="at least input and output"):
            small_config(layer_dims=(13,))
        with pytest.raises(ValueError, match="positive"):
            small_config(layer_dims=(8, 0, 13))

    def test_to_dict_round_trip(self):
        cfg = small_config()
        assert HeadConfig(**cfg.to_dict()) == cfg


class TestSplitValidation:
    def test_stratified_floor(self):
        # 10 items per tool at fraction 0.1 -> exactly 1 validation item each.
        ids = list(range(30))
        tool_of = lambda i: i // 10
        train, val = split_validation(ids, tool_of, 0.1, SplitMix64(0))
        assert len(val) == 3
        assert sorted(set(tool_of(i) for i in val)) == [0, 1, 2]
        assert sorted(train + val) == ids

    def test_small_groups_contribute_nothing(self):
        # floor(0.1 * 5) = 0, so stratification yields nothing and the global
        # fallback draws at least one item.
        ids = list(range(5))
        train, val = split_validation(ids, lambda i: i, 0.1, SplitMix64(1))
        assert len(val) == 1
        assert len(train) == 4

    def test_single_item_keeps_training_nonempty(self):
        train, val = split_validation([7], lambda i: 0, 0.5, SplitMix64(2))
        assert train == [7]
        assert val == []

    def test_deterministic(self):
        ids = list(range(50))
        tool_of = lambda i: i % 5
        a = split_validation(ids, tool_of, 0.1, SplitMix64(9))
        b = split_validation(ids, tool_of, 0.1, SplitMix64(9))
        assert a == b

    def test_disjoint_and_complete(self):
        ids = list(range(40))
        tool_of = lambda i: i % 4
        train, val = split_validation(ids, tool_of, 0.25, SplitMix64(3))
        assert set(train) & set(val) == set()
        assert sorted(train + val) == ids


class TestTrainHead:
    def test_zero_epochs_returns_initialization(self):
        emb, catalog = toy_dataset()
        trained = train_head(emb, catalog, small_config(max_epochs=0))
        assert trained.epochs_run == 0
        assert trained.best_epoch == 0
        assert trained.best_validation_mse == float("inf")
        assert trained.training_log == []

    def test_zeroed_final_layer_predicts_zeros(self):
        # With the final linear zeroed, every input maps to the zero vector
        # regardless of the hidden layers.
        emb, catalog = toy_dataset()
        trained = train_head(emb, catalog, small_config(max_epochs=0))
        trained.head.parameters()[-2][:] = 0.0
        trained.head.parameters()[-1][:] = 0.0
        for item in emb.items("train")[:3]:
            assert np.array_equal(predict_attributes(trained, emb, item), np.zeros(13))

    def test_bit_identical_reruns(self):
        emb, catalog = toy_dataset()
        cfg = small_config(max_epochs=12)
        a = train_head(emb, catalog, cfg)
        b = train_head(emb, catalog, cfg)
        for pa, pb in zip(a.head.parameters(), b.head.parameters()):
            assert np.array_equal(pa, pb)
        assert a.training_log == b.training_log
        assert a.best_validation_mse == b.best_validation_mse
        assert a.epochs_run == b.epochs_run

    @pytest.mark.parametrize("pathway, hidden, batch, digest, log", [
        ("language", (256, 128, 64), 4,
         "7047b2665e66c3c6a671b3448bb7abc43bdf5353d55230aede7ca8577c9af39d",
         "[(25.56423934652382, 24.483128421674046), (23.682405596176636, 22.72976240863536), "
         "(22.06383916040011, 21.235304317555034)]"),
        ("visual", (256, 64), 32,
         "fb53cf2849c8d873f8a09c9e9af308dc8dfa27809d8f7c221eeae5452b9c62b8",
         "[(22.127410606734223, 21.636946876929564), (21.526348095659447, 21.043012425735956), "
         "(20.946969028392015, 20.46670710647637)]"),
    ], ids=["language", "visual"])
    def test_bits_pinned_across_versions(self, pathway, hidden, batch, digest, log):
        # Recorded when every parameter array was its own allocation and Adam
        # ran one whole-array expression per array. 55 train items leave 50 to
        # fit (one validation item per tool), so the last batch of 4 is short;
        # the language head has 75 917 parameters, more than one Adam chunk.
        emb, catalog = toy_dataset(n_tools=5, per_tool=12, dim=128, seed=17)
        cfg = HeadConfig.for_pathway(pathway, 128, hidden_dims=hidden, max_epochs=3,
                                     seed=5, batch_size=batch)
        trained = train_head(emb, catalog, cfg)
        got = hashlib.sha256(b"".join(p.tobytes() for p in trained.head.parameters())).hexdigest()
        assert got == digest
        assert repr(trained.training_log) == log

    def test_seed_changes_run(self):
        emb, catalog = toy_dataset()
        a = train_head(emb, catalog, small_config(max_epochs=5, seed=1))
        b = train_head(emb, catalog, small_config(max_epochs=5, seed=2))
        assert not np.array_equal(a.head.parameters()[0], b.head.parameters()[0])

    def test_converges_on_linear_data(self):
        emb, catalog = toy_dataset(n_tools=5, per_tool=8)
        cfg = small_config(max_epochs=300, learning_rate=3e-3)
        trained = train_head(emb, catalog, cfg)
        assert trained.best_validation_mse < 0.01
        preds = predict_each(trained, emb, emb.items("test"))
        truth = np.stack([catalog.attributes_of(emb.tool_of(i)) for i in emb.items("test")])
        assert float(np.abs(preds - truth).max()) < 0.5

    def test_patience_stops_training(self):
        emb, catalog = toy_dataset()
        cfg = small_config(max_epochs=500, patience=5, learning_rate=0.2)
        trained = train_head(emb, catalog, cfg)
        assert trained.epochs_run < 500
        assert trained.epochs_run == trained.best_epoch + 5
        # No strict improvement in the last `patience` epochs of the log.
        vals = [v for _, v in trained.training_log]
        best_before = min(vals[: trained.best_epoch])
        assert all(v >= best_before for v in vals[trained.best_epoch:])

    def test_returns_best_epoch_parameters(self):
        emb, catalog = toy_dataset()
        cfg = small_config(max_epochs=40, patience=5, learning_rate=0.2)
        trained = train_head(emb, catalog, cfg)
        # Recompute the monitored MSE with the returned parameters; it must
        # equal the reported best, not the final epoch's value.
        master = SplitMix64(cfg.seed)
        _, val_seed, _ = master.child_seeds(3)
        fit_ids, val_ids = split_validation(
            emb.items("train"), emb.tool_of, cfg.validation_fraction, SplitMix64(val_seed)
        )
        X = emb.matrix(val_ids)
        T = np.stack([catalog.attributes_of(emb.tool_of(i)) for i in val_ids])
        diff = head_forward(trained.head, X) - T
        mse = float((diff * diff).mean())
        assert mse == pytest.approx(trained.best_validation_mse, rel=1e-12)
        assert trained.best_validation_mse == min(v for _, v in trained.training_log)

    def test_log_length_matches_epochs_run(self):
        emb, catalog = toy_dataset()
        trained = train_head(emb, catalog, small_config(max_epochs=7))
        assert trained.epochs_run == 7
        assert len(trained.training_log) == 7

    def test_monotone_improvement_with_more_epochs(self):
        emb, catalog = toy_dataset()
        prev = float("inf")
        for epochs in (5, 25, 100):
            trained = train_head(emb, catalog, small_config(max_epochs=epochs))
            assert trained.best_validation_mse <= prev + 1e-15
            prev = trained.best_validation_mse

    def test_divergence_carries_epoch(self):
        # Adam steps are learning-rate sized, so the rate must be large
        # enough that squaring the loss residual overflows float64.
        emb, catalog = toy_dataset()
        cfg = small_config(max_epochs=2000, learning_rate=1e170, patience=2000)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(TrainingDivergedError) as info:
            train_head(emb, catalog, cfg)
        assert info.value.epoch >= 1

    def test_dimension_mismatch(self):
        emb, catalog = toy_dataset(dim=8)
        cfg = small_config(layer_dims=(9, 16, 13))
        with pytest.raises(ValueError, match="dimension"):
            train_head(emb, catalog, cfg)

    def test_empty_train_split(self):
        _, catalog = toy_dataset()
        records = [EmbeddingRecord(0, 0, "test", np.ones(8))]
        emb = EmbeddingSet(records)
        with pytest.raises(ValueError, match="empty"):
            train_head(emb, catalog, small_config())


class TestPrediction:
    def test_predictor_caches(self):
        emb, catalog = toy_dataset()
        trained = train_head(emb, catalog, small_config(max_epochs=3))
        predict = predictor(trained, emb)
        first = predict(0)
        assert predict(0) is first
        assert np.allclose(first, predict_attributes(trained, emb, 0), rtol=0, atol=0)


def random_head(dims, n, seed=5):
    """An initialized head and an n-item embedding set of matching width."""
    config = HeadConfig(pathway="visual", layer_dims=dims, learning_rate=1e-3, batch_size=4, max_epochs=1)
    trained = TrainedHead(head=init_head(dims, seed), config=config, best_validation_mse=0.0, epochs_run=1)
    ids = 1000 + 3 * np.arange(n)
    vectors = SplitMix64(seed + 1).normals(n * dims[0]).reshape(n, dims[0])
    return trained, EmbeddingSet.from_arrays(ids, np.zeros(n, dtype=np.int64), ["test"] * n, vectors)


class TestPredictEach:
    @pytest.mark.parametrize("dims", [(768, 256, 64, 13), (32, 256, 128, 64, 13)])
    @pytest.mark.parametrize("n", [1, 37, 690])
    def test_rows_equal_batch_one_predictions_to_the_bit(self, dims, n):
        trained, emb = random_head(dims, n)
        ids = emb.items()[::-1]  # any order: row i is item ids[i]
        rows = predict_each(trained, emb, ids)
        single = np.stack([predict_attributes(trained, emb, i) for i in ids])
        assert rows.shape == (n, 13)
        assert rows.tobytes() == single.tobytes()

    def test_empty(self):
        trained, emb = random_head((8, 16, 13), 3)
        assert predict_each(trained, emb, []).shape == (0, 13)

    def test_non_finite_output_raises(self):
        trained, emb = random_head((8, 16, 13), 5)
        trained.head.parameters()[-2][:] = 1e308  # output weights: finite, but the products overflow
        with pytest.raises(FloatingPointError, match="non-finite value in forward pass"), np.errstate(over="ignore"):
            predict_each(trained, emb, emb.items())

    def test_unknown_item_is_key_error(self):
        trained, emb = random_head((8, 16, 13), 5)
        with pytest.raises(KeyError, match="item_id 7 not in embedding set"):
            predict_each(trained, emb, [1000, 7])
