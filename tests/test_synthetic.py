"""Synthetic dataset generator: exact noiseless geometry, deterministic
streams, preset sizes, and trial structure."""

import numpy as np
import pytest

from toolmatch.domain import CANDIDATES_PER_TRIAL, check_trial
from toolmatch import synthetic
from toolmatch.formats import load_catalog, read_embeddings, read_scenarios, read_trials, sha256_file
from toolmatch.rng import SplitMix64
from toolmatch.synthetic import (
    DATASET_FILENAMES,
    SCENARIO_PRESETS,
    SyntheticSpec,
    generate,
    write_dataset,
)


def tiny_spec(**overrides):
    base = dict(
        n_tools=10,
        images_per_tool=(3, 2),
        scenarios_per_tool=(4, 2),
        d_v=16,
        d_l=13,
        noise_sigma=0.0,
        seed=5,
    )
    base.update(overrides)
    return SyntheticSpec(**base)


# sha256 of every file of tiny_spec(noise_sigma=0.3), recorded when noise was
# still drawn one item at a time: a seed must give the same files in every
# version, not just within one run.
PINNED_FILES = {
    "catalog": "d70a1e47b28a9d98e75b507d9d78a1d7fe46513c06f3bfcd021d5174bd8e8009",
    "visual": "5a0b58300277e3e9b3afedcfa1f2a7476297737c740e26225fa9f88b1597eb19",
    "visual_manifest": "f3dc201fa5f0e52ed9894b797446cc28267ddeb84b3e2b679f238ce6030a9f06",
    "scenario_embeddings": "29b026df2f04d618268ca193b33ba55a14747a17f73562c5dc248aa78b14b7f5",
    "scenario_manifest": "47aceaedcbffb5d8f2004fbc9f603f8c17ccf51588c79708f841dd6ac6bd3596",
    "scenarios": "f340d17831a64d1a03c43a50ecb6e65498c63c42a753b9f48ff9c28a28a4992b",
    "trials": "50e9e8b6241e79e749a568df2f74314bb1e5ae194ce56213435e3cc2ffab7ab8",
}


def noisy_digests(out_dir):
    paths = write_dataset(generate(tiny_spec(noise_sigma=0.3)), out_dir)
    return {key: sha256_file(paths[key]) for key in DATASET_FILENAMES}


class TestSpecValidation:
    def test_minimum_tools(self):
        with pytest.raises(ValueError, match="at least 10"):
            tiny_spec(n_tools=9)
        tiny_spec(n_tools=10)

    def test_minimum_dimensions(self):
        with pytest.raises(ValueError, match="d_v must be at least 13"):
            tiny_spec(d_v=12)
        with pytest.raises(ValueError, match="d_l must be at least 13"):
            tiny_spec(d_l=12)
        tiny_spec(d_v=13, d_l=13)

    def test_negative_sigma(self):
        with pytest.raises(ValueError, match="noise_sigma"):
            tiny_spec(noise_sigma=-0.1)

    def test_count_pairs(self):
        with pytest.raises(ValueError, match="images_per_tool"):
            tiny_spec(images_per_tool=(0, 2))
        with pytest.raises(ValueError, match="scenarios_per_tool"):
            tiny_spec(scenarios_per_tool=(4,))

    def test_presets(self):
        assert SCENARIO_PRESETS == {"small": (10, 3), "medium": (90, 10), "large": (475, 25)}
        spec = SyntheticSpec.preset("small", n_tools=11)
        assert spec.scenarios_per_tool == (10, 3)
        with pytest.raises(ValueError, match="unknown preset"):
            SyntheticSpec.preset("huge", n_tools=11)

    def test_default_images_per_tool(self):
        assert SyntheticSpec(n_tools=10).images_per_tool == (90, 10)


class TestNoiselessGeometry:
    def test_embeddings_are_exact_linear_images(self):
        ds = generate(tiny_spec())
        for item_id in ds.visual.items():
            tool = ds.visual.tool_of(item_id)
            want = ds.mix_visual @ ds.catalog.attributes_of(tool)
            assert np.array_equal(ds.visual.vector(item_id), want)
        for item_id in ds.scenario_embeddings.items():
            tool = ds.scenario_embeddings.tool_of(item_id)
            want = ds.mix_language @ ds.catalog.attributes_of(tool)
            assert np.array_equal(ds.scenario_embeddings.vector(item_id), want)

    def test_same_tool_items_identical(self):
        ds = generate(tiny_spec())
        for tool in range(ds.spec.n_tools):
            rows = [ds.visual.vector(i) for i in ds.visual.items() if ds.visual.tool_of(i) == tool]
            for row in rows[1:]:
                assert np.array_equal(row, rows[0])

    def test_attributes_can_be_recovered_by_projection(self):
        # Orthonormal columns make mix.T a left inverse of mix.
        ds = generate(tiny_spec())
        for tool in ds.catalog.tool_ids():
            e = ds.mix_visual @ ds.catalog.attributes_of(tool)
            back = ds.mix_visual.T @ e
            assert np.allclose(back, ds.catalog.attributes_of(tool), rtol=0, atol=1e-12)


class TestMixers:
    def test_orthonormal_columns(self):
        ds = generate(tiny_spec(d_v=48, d_l=21))
        for mix, d in ((ds.mix_visual, 48), (ds.mix_language, 21)):
            assert mix.shape == (d, 13)
            gram = mix.T @ mix
            assert float(np.abs(gram - np.eye(13)).max()) < 1e-12

    def test_visual_and_language_mixers_differ(self):
        ds = generate(tiny_spec(d_v=16, d_l=16))
        assert not np.allclose(ds.mix_visual, ds.mix_language)


class TestAttributes:
    def test_integer_grid_and_distinct(self):
        ds = generate(tiny_spec(n_tools=40))
        seen = set()
        for tool in ds.catalog:
            values = tuple(tool.attributes)
            assert values not in seen
            seen.add(values)
            assert all(v == int(v) and 1 <= v <= 7 for v in tool.attributes)

    def test_names_are_stable(self):
        ds = generate(tiny_spec())
        assert ds.catalog.get(0).tool_name == "tool_000"
        assert ds.catalog.get(9).tool_name == "tool_009"


class TestItemIds:
    def test_tool_major_train_first(self):
        ds = generate(tiny_spec(images_per_tool=(3, 2)))
        stride = 5
        for tool in range(ds.spec.n_tools):
            base = tool * stride
            train, test = ds.visual.items("train"), ds.visual.items("test")
            for j in range(5):
                assert ds.visual.tool_of(base + j) == tool
                assert base + j in (train if j < 3 else test)

    def test_split_counts(self):
        ds = generate(tiny_spec(n_tools=12, scenarios_per_tool=(4, 2)))
        assert len(ds.scenario_embeddings.items("train")) == 12 * 4
        assert len(ds.scenario_embeddings.items("test")) == 12 * 2
        assert len(ds.scenarios) == 12 * 6

    def test_large_preset_split_counts(self):
        spec = SyntheticSpec.preset(
            "large", n_tools=115, images_per_tool=(2, 1), d_v=13, d_l=13, seed=1
        )
        ds = generate(spec)
        assert len(ds.scenario_embeddings.items("train")) == 475 * 115
        assert len(ds.scenario_embeddings.items("test")) == 25 * 115
        assert len(ds.trials) == 100  # capped at 100 tools


class TestNoise:
    def test_sigma_scales_perturbation(self):
        spec = tiny_spec(noise_sigma=0.5, images_per_tool=(60, 10), d_v=24)
        ds = generate(spec)
        base = {t: ds.mix_visual @ ds.catalog.attributes_of(t) for t in ds.catalog.tool_ids()}
        sq = []
        for item_id in ds.visual.items():
            diff = ds.visual.vector(item_id) - base[ds.visual.tool_of(item_id)]
            sq.append(float(diff @ diff))
        # E[|e - base|^2] = sigma^2 * d = 0.25 * 24 = 6
        mean_sq = float(np.mean(sq))
        assert abs(mean_sq - 6.0) / 6.0 < 0.15

    def test_noise_stream_independent_of_structure(self):
        # Same seed, different sigma: tools, mixers, and trial layout are
        # unchanged; only the embedding values move.
        clean = generate(tiny_spec(noise_sigma=0.0))
        noisy = generate(tiny_spec(noise_sigma=0.3))
        for a, b in zip(clean.catalog, noisy.catalog):
            assert np.array_equal(a.attributes, b.attributes)
        assert np.array_equal(clean.mix_visual, noisy.mix_visual)
        assert clean.trials == noisy.trials
        assert not np.array_equal(clean.visual.vector(0), noisy.visual.vector(0))

    def test_distinct_noise_per_item(self):
        ds = generate(tiny_spec(noise_sigma=0.3))
        assert not np.array_equal(ds.visual.vector(0), ds.visual.vector(1))


class TestNoiseBlocks:
    # A tiny_spec tool draws 5 * 16 = 80 visual and 6 * 13 = 78 language
    # variates, so every tiny_spec dataset fits in one default block.
    @pytest.mark.parametrize("block", [1, 79, 77, 200, 1 << 40])
    def test_block_size_leaves_files_unchanged(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(synthetic, "NOISE_BLOCK", block)
        assert noisy_digests(tmp_path) == PINNED_FILES

    def test_blocks_draw_what_one_draw_per_tool_draws(self, monkeypatch):
        # 33 tools of 50 * 32 visual variates: blocks of 10 tools, then 3;
        # 33 tools of 100 * 24 language variates: blocks of 6 tools, then 3.
        spec = tiny_spec(n_tools=33, images_per_tool=(40, 10), scenarios_per_tool=(90, 10),
                         d_v=32, d_l=24, noise_sigma=0.7, seed=11)
        drawn = []
        normals = SplitMix64.normals
        monkeypatch.setattr(SplitMix64, "normals", lambda rng, n: drawn.append(n) or normals(rng, n))
        ds = generate(spec)
        monkeypatch.undo()
        assert drawn == [32 * 13, 24 * 13] + [16000] * 3 + [4800] + [14400] * 5 + [7200]

        seeds = SplitMix64(spec.seed).child_seeds(6)
        for items, mixer, stream, per_tool in (
            (ds.visual, ds.mix_visual, seeds[3], spec.images_per_tool),
            (ds.scenario_embeddings, ds.mix_language, seeds[4], spec.scenarios_per_tool),
        ):
            rng, stride, dim = SplitMix64(stream), sum(per_tool), mixer.shape[0]
            want = [mixer @ tool.attributes + spec.noise_sigma * rng.normals(stride * dim).reshape(stride, dim)
                    for tool in ds.catalog]
            assert np.array_equal(items.vectors, np.concatenate(want))


class TestTrials:
    def test_one_trial_per_tool_capped(self):
        ds = generate(tiny_spec(n_tools=14))
        assert len(ds.trials) == 14
        assert [t.trial_id for t in ds.trials] == list(range(14))

    def test_structure(self):
        ds = generate(tiny_spec(n_tools=14))
        test_visual = set(ds.visual.items("test"))
        test_scenarios = set(ds.scenario_embeddings.items("test"))
        for trial in ds.trials:
            assert trial.scenario_item_id in test_scenarios
            assert set(trial.candidate_item_ids) <= test_visual
            tools = [ds.visual.tool_of(i) for i in trial.candidate_item_ids]
            assert len(set(tools)) == CANDIDATES_PER_TRIAL
            check_trial(trial, ds.scenario_embeddings, ds.visual)

    def test_target_tool_matches_scenario_tool(self):
        ds = generate(tiny_spec())
        for trial in ds.trials:
            want = ds.scenario_embeddings.tool_of(trial.scenario_item_id)
            assert ds.visual.tool_of(trial.target_item_id) == want


class TestDeterminism:
    def test_identical_reruns(self):
        a = generate(tiny_spec(noise_sigma=0.4))
        b = generate(tiny_spec(noise_sigma=0.4))
        for ta, tb in zip(a.catalog, b.catalog):
            assert np.array_equal(ta.attributes, tb.attributes)
        for item in a.visual.items():
            assert np.array_equal(a.visual.vector(item), b.visual.vector(item))
        assert a.trials == b.trials
        assert a.scenarios == b.scenarios

    def test_seed_changes_output(self):
        a = generate(tiny_spec(seed=5))
        b = generate(tiny_spec(seed=6))
        assert not np.array_equal(a.catalog.get(0).attributes, b.catalog.get(0).attributes) or \
            not np.array_equal(a.mix_visual, b.mix_visual)


class TestWriteDataset:
    def test_writes_expected_files(self, tmp_path):
        ds = generate(tiny_spec())
        paths = write_dataset(ds, tmp_path)
        assert set(paths) == set(DATASET_FILENAMES)
        for key, name in DATASET_FILENAMES.items():
            assert paths[key].name == name
            assert paths[key].exists()

    def test_round_trip_through_files(self, tmp_path):
        ds = generate(tiny_spec(noise_sigma=0.2))
        paths = write_dataset(ds, tmp_path)
        catalog = load_catalog(paths["catalog"])
        assert catalog.tool_ids() == ds.catalog.tool_ids()
        for tool in ds.catalog:
            assert np.array_equal(catalog.attributes_of(tool.tool_id), tool.attributes)
        visual = read_embeddings(paths["visual"], paths["visual_manifest"])
        assert visual.items() == ds.visual.items()
        for item in ds.visual.items():
            want = ds.visual.vector(item).astype(np.float32).astype(np.float64)
            assert np.array_equal(visual.vector(item), want)
            assert visual.tool_of(item) == ds.visual.tool_of(item)
        assert read_trials(paths["trials"]) == ds.trials
        assert read_scenarios(paths["scenarios"], catalog) == ds.scenarios

    def test_files_pinned_across_versions(self, tmp_path):
        assert noisy_digests(tmp_path) == PINNED_FILES

    def test_writes_are_byte_identical_across_runs(self, tmp_path):
        da, db = tmp_path / "a", tmp_path / "b"
        da.mkdir()
        db.mkdir()
        pa = write_dataset(generate(tiny_spec(noise_sigma=0.3)), da)
        pb = write_dataset(generate(tiny_spec(noise_sigma=0.3)), db)
        for key in DATASET_FILENAMES:
            assert sha256_file(pa[key]) == sha256_file(pb[key]), key
