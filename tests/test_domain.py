"""Attribute registry, catalog, embedding set, and trial invariants."""

import re
from types import SimpleNamespace

import numpy as np
import pytest

from toolmatch.domain import (
    ATTRIBUTE_NAMES,
    CANDIDATES_PER_TRIAL,
    NUM_ATTRIBUTES,
    EmbeddingRecord,
    EmbeddingSet,
    MatchingTrial,
    ScenarioRecord,
    ToolCatalog,
    ToolRecord,
    attribute_index,
    canonical_attribute_order,
    check_trial,
    validate_attribute_vector,
)


def vec(*values):
    return np.array(values, dtype=np.float64)


FOURS = vec(*([4.0] * 13))


class TestRegistry:
    def test_thirteen_attributes(self):
        assert NUM_ATTRIBUTES == 13
        assert len(ATTRIBUTE_NAMES) == 13

    def test_canonical_order(self):
        # Physical, then functional, then psychological blocks.
        assert canonical_attribute_order() == [
            "elongation", "spiky", "size", "smoothness", "texturedness", "hardness",
            "graspability", "hand_relatedness", "force_requirement", "body_extension",
            "threatness", "valence", "arousal",
        ]

    def test_order_is_stable(self):
        assert canonical_attribute_order() == canonical_attribute_order()

    def test_attribute_index(self):
        assert attribute_index("elongation") == 0
        assert attribute_index("graspability") == 6
        assert attribute_index("arousal") == 12

    def test_unknown_attribute(self):
        with pytest.raises(KeyError, match="sharpness"):
            attribute_index("sharpness")


class TestValidateAttributeVector:
    def test_valid_ground_truth(self):
        out = validate_attribute_vector([1.0] * 13, ground_truth=True)
        assert out.dtype == np.float64
        assert out.shape == (13,)

    def test_wrong_length(self):
        with pytest.raises(ValueError, match="length 13"):
            validate_attribute_vector([4.0] * 12)

    def test_non_finite_names_index(self):
        bad = [4.0] * 13
        bad[5] = float("nan")
        with pytest.raises(ValueError, match="index 5"):
            validate_attribute_vector(bad)

    def test_ground_truth_range_names_index_and_bound(self):
        bad = [4.0] * 13
        bad[2] = 7.3
        with pytest.raises(ValueError, match=r"index 2 \(size\).*7\.3"):
            validate_attribute_vector(bad, ground_truth=True)

    def test_prediction_may_exceed_scale(self):
        loose = [9.0] + [0.0] * 12
        out = validate_attribute_vector(loose, ground_truth=False)
        assert out[0] == 9.0

    def test_bounds_inclusive(self):
        validate_attribute_vector([1.0] * 13, ground_truth=True)
        validate_attribute_vector([7.0] * 13, ground_truth=True)


class TestCatalog:
    def test_lookup_and_order(self):
        cat = ToolCatalog([
            ToolRecord(0, "hammer", FOURS),
            ToolRecord(3, "knife", vec(*([2.0] * 13))),
        ])
        assert len(cat) == 2
        assert cat.tool_ids() == [0, 3]
        assert cat.get(3).tool_name == "knife"
        assert 3 in cat and 1 not in cat
        assert np.array_equal(cat.attributes_of(0), FOURS)
        assert cat.attribute_matrix().shape == (2, 13)

    def test_ids_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            ToolCatalog([ToolRecord(2, "a", FOURS), ToolRecord(2, "b", FOURS)])
        with pytest.raises(ValueError, match="strictly increasing"):
            ToolCatalog([ToolRecord(2, "a", FOURS), ToolRecord(1, "b", FOURS)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            ToolCatalog([])

    def test_unknown_tool(self):
        cat = ToolCatalog([ToolRecord(0, "a", FOURS)])
        with pytest.raises(KeyError, match="7"):
            cat.get(7)

    def test_negative_id_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            ToolRecord(-1, "a", FOURS)


def make_set():
    return EmbeddingSet([
        EmbeddingRecord(0, 0, "train", vec(1.0, 2.0)),
        EmbeddingRecord(1, 0, "test", vec(3.0, 4.0)),
        EmbeddingRecord(5, 1, "train", vec(5.0, 6.0)),
    ])


class TestEmbeddingSet:
    def test_lookup(self):
        es = make_set()
        assert es.dim == 2
        assert len(es) == 3
        assert np.array_equal(es.vector(5), vec(5.0, 6.0))
        assert es.tool_of(1) == 0
        assert 5 in es and 2 not in es

    def test_split_enumeration_sorted(self):
        es = make_set()
        assert es.items() == [0, 1, 5]
        assert es.items("train") == [0, 5]
        assert es.items("test") == [1]

    def test_frozen_semantics(self):
        es = make_set()
        assert np.array_equal(es.vector(0), es.vector(0))

    def test_matrix(self):
        es = make_set()
        m = es.matrix([5, 0])
        assert m.shape == (2, 2)
        assert np.array_equal(m[0], vec(5.0, 6.0))

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            EmbeddingSet([
                EmbeddingRecord(0, 0, "train", vec(1.0, 2.0)),
                EmbeddingRecord(1, 0, "train", vec(1.0, 2.0, 3.0)),
            ])

    def test_duplicate_id(self):
        with pytest.raises(ValueError, match="duplicate item_id 0"):
            EmbeddingSet([
                EmbeddingRecord(0, 0, "train", vec(1.0)),
                EmbeddingRecord(0, 0, "test", vec(2.0)),
            ])

    def test_bad_split(self):
        with pytest.raises(ValueError, match="split"):
            EmbeddingRecord(0, 0, "validation", vec(1.0))
        es = make_set()
        with pytest.raises(ValueError, match="split"):
            es.items("validation")

    def test_unknown_item(self):
        with pytest.raises(KeyError, match="9"):
            make_set().vector(9)

    def test_check_tool_ids(self):
        es = make_set()
        ok = ToolCatalog([ToolRecord(0, "a", FOURS), ToolRecord(1, "b", FOURS)])
        es.check_tool_ids(ok)
        missing = ToolCatalog([ToolRecord(0, "a", FOURS)])
        with pytest.raises(ValueError, match="tool_id 1"):
            es.check_tool_ids(missing)


def columns(records):
    """The four from_arrays columns of a record list, in its order."""
    return (
        [r.item_id for r in records], [r.tool_id for r in records],
        [r.split for r in records], np.stack([np.asarray(r.embedding, dtype=np.float64) for r in records]),
    )


def record(item_id, tool_id, split, *values):
    """A duck-typed record: skips EmbeddingRecord's own checks, so the set's run."""
    return SimpleNamespace(item_id=item_id, tool_id=tool_id, split=split, embedding=vec(*values))


# Ids out of order, so both constructors keep rows as given and sort only on request.
UNORDERED = [
    EmbeddingRecord(5, 1, "train", vec(5.0, 6.0)),
    EmbeddingRecord(0, 0, "train", vec(1.0, 2.0)),
    EmbeddingRecord(3, 2, "test", vec(7.0, 8.0)),
    EmbeddingRecord(1, 0, "test", vec(3.0, 4.0)),
]

DUPLICATE = [record(0, 0, "train", 1.0), record(0, 1, "test", 2.0)]
NEGATIVE = [record(0, 0, "train", 1.0), record(-2, 1, "test", 2.0)]
BAD_SPLIT = [record(0, 0, "train", 1.0), record(1, 1, "dev", 2.0)]
RAGGED = [record(0, 0, "train", 1.0), record(1, 1, "test", 2.0, 3.0)]


class TestColumnarEmbeddingSet:
    def test_records_and_arrays_agree(self):
        a = EmbeddingSet(UNORDERED)
        b = EmbeddingSet.from_arrays(*columns(UNORDERED))
        for es in (a, b):
            assert es.item_ids.tolist() == [5, 0, 3, 1]  # rows in the order given
            assert es.items() == [0, 1, 3, 5]
            assert es.items("train") == [0, 5] and es.items("test") == [1, 3]
            assert len(es) == 4 and es.dim == 2 and 3 in es and 2 not in es
        for rec in UNORDERED:
            for es in (a, b):
                assert np.array_equal(es.vector(rec.item_id), rec.embedding)
                assert es.tool_of(rec.item_id) == rec.tool_id
                assert type(es.tool_of(rec.item_id)) is int
                got = es.record(rec.item_id)
                assert (got.item_id, got.tool_id, got.split) == (rec.item_id, rec.tool_id, rec.split)
                assert np.array_equal(got.embedding, rec.embedding)
        ids = [3, 5, 0]
        assert np.array_equal(a.matrix(ids), b.matrix(ids))
        assert np.array_equal(a.matrix(ids), np.stack([r.embedding for r in (UNORDERED[2], UNORDERED[0], UNORDERED[1])]))
        assert a.matrix([]).shape == b.matrix([]).shape == (0, 2)
        catalog = ToolCatalog([ToolRecord(0, "a", FOURS), ToolRecord(2, "c", FOURS)])
        messages = []
        for es in (a, b):
            with pytest.raises(ValueError, match="item 5 references tool_id 1") as exc:
                es.check_tool_ids(catalog)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("records, arrays, match", [
        (DUPLICATE, columns(DUPLICATE), "duplicate item_id 0"),
        (NEGATIVE, columns(NEGATIVE), "non-negative, got -2"),
        (BAD_SPLIT, columns(BAD_SPLIT), "split must be one of.*'dev'"),
        (RAGGED, ([0, 1], [0, 1], ["train", "test"], [[1.0], [2.0, 3.0]]), "dimension"),
        ([], ([], [], [], np.zeros((0, 3))), "at least one record"),
    ])
    def test_both_constructors_reject(self, records, arrays, match):
        with pytest.raises(ValueError, match=match):
            EmbeddingSet(records)
        with pytest.raises(ValueError, match=match):
            EmbeddingSet.from_arrays(*arrays)

    @pytest.mark.parametrize("arrays, match", [
        (([0, 1], [0], ["train", "test"], np.ones((2, 3))), "column lengths differ: 2 item_ids, 1 tool_ids"),
        (([0, 1], [0, 0], ["train"], np.ones((2, 3))), "1 splits"),
        (([0, 1], [0, 0], ["train", "test"], np.ones((3, 3))), "3 vectors"),
        (([0, 1], [0, 0], ["train", "test"], np.ones(2)), r"\(n, dim\) matrix"),
        (([0, 1], [0, 0], ["train", "test"], np.ones((2, 0))), "dimension 0"),
        (([0, 1], [0, 0], "train", np.ones((2, 3))), "splits must be one-dimensional"),
        (([0.0, 1.0], [0, 0], ["train", "test"], np.ones((2, 3))), "item_ids must be 64-bit signed integers"),
        (([0, 1], [True, False], ["train", "test"], np.ones((2, 3))), "tool_ids must be 64-bit signed integers"),
    ])
    def test_from_arrays_rejects_bad_columns(self, arrays, match):
        with pytest.raises(ValueError, match=match):
            EmbeddingSet.from_arrays(*arrays)

    @pytest.mark.parametrize("splits", [["train\x00"], ("test\x00\x00",), ["train", "test\x00"]])
    def test_split_names_keep_trailing_nuls(self, splits):
        # numpy's fixed-width strings drop trailing NULs, where "train\x00" would equal "train".
        n = len(splits)
        with pytest.raises(ValueError, match=re.escape(repr(splits[-1]))):
            EmbeddingSet.from_arrays(list(range(n)), [0] * n, splits, np.ones((n, 2)))
        with pytest.raises(ValueError, match=re.escape(repr(splits[-1]))):
            EmbeddingRecord(0, 0, splits[-1], np.ones(2))

    def test_vector_rows_are_read_only(self):
        for es in (EmbeddingSet(UNORDERED), EmbeddingSet.from_arrays(*columns(UNORDERED))):
            row = es.vector(3)
            with pytest.raises(ValueError, match="read-only"):
                row[0] = 99.0
            with pytest.raises(ValueError, match="read-only"):
                es.record(3).embedding[0] = 99.0
            assert np.array_equal(es.vector(3), vec(7.0, 8.0))

    def test_matrix_is_a_copy(self):
        es = EmbeddingSet(UNORDERED)
        m = es.matrix([3, 5])
        m[:] = -1.0
        assert np.array_equal(es.vector(3), vec(7.0, 8.0))
        assert np.array_equal(es.matrix([3, 5]), vec(7.0, 8.0, 5.0, 6.0).reshape(2, 2))

    def test_matrix_unknown_item(self):
        with pytest.raises(KeyError, match="item_id 9 not in embedding set"):
            EmbeddingSet(UNORDERED).matrix([0, 9])

    def test_from_arrays_copies_id_and_tool_columns(self):
        ids, tools, splits, vectors = columns(UNORDERED)
        ids, tools = np.array(ids, dtype=np.int64), np.array(tools, dtype=np.int64)
        es = EmbeddingSet.from_arrays(ids, tools, splits, vectors)
        ids[:], tools[:] = 9, 9
        assert es.item_ids.tolist() == [5, 0, 3, 1] and es.tool_ids.tolist() == [1, 0, 2, 0]
        assert es.tool_of(3) == 2 and 9 not in es


class TestTrial:
    def test_valid_trial(self):
        t = MatchingTrial(0, 100, tuple(range(10)), 3)
        assert t.target_item_id == 3
        assert CANDIDATES_PER_TRIAL == 10

    def test_wrong_candidate_count(self):
        with pytest.raises(ValueError, match="expected 10"):
            MatchingTrial(0, 100, tuple(range(9)), 0)

    def test_duplicate_candidates(self):
        with pytest.raises(ValueError, match="duplicate"):
            MatchingTrial(0, 100, (1,) * 10, 0)

    def test_target_position_bounds(self):
        with pytest.raises(ValueError, match="target_position"):
            MatchingTrial(0, 100, tuple(range(10)), 10)
        with pytest.raises(ValueError, match="target_position"):
            MatchingTrial(0, 100, tuple(range(10)), -1)

    def test_check_trial_accepts_consistent(self):
        trial = MatchingTrial(7, 100, tuple(range(10)), 2)
        scenario_tool = {100: 42}
        candidate_tool = {i: i + 50 for i in range(10)}
        candidate_tool[2] = 42
        check_trial(trial, scenario_tool, candidate_tool)

    def test_check_trial_rejects_wrong_target(self):
        trial = MatchingTrial(7, 100, tuple(range(10)), 2)
        candidate_tool = {i: i + 50 for i in range(10)}
        with pytest.raises(ValueError, match="target item 2"):
            check_trial(trial, {100: 42}, candidate_tool)

    def test_check_trial_rejects_duplicate_tool_distractor(self):
        trial = MatchingTrial(7, 100, tuple(range(10)), 2)
        candidate_tool = {i: i + 50 for i in range(10)}
        candidate_tool[2] = 42
        candidate_tool[9] = 42  # distractor sharing the target tool
        with pytest.raises(ValueError, match="distractor item 9"):
            check_trial(trial, {100: 42}, candidate_tool)


class TestScenarioRecord:
    def test_fields(self):
        s = ScenarioRecord(1, 2, "hammer a nail", 9)
        assert (s.scenario_id, s.tool_id, s.text, s.item_id) == (1, 2, "hammer a nail", 9)

    def test_negative_ids_rejected(self):
        with pytest.raises(ValueError):
            ScenarioRecord(-1, 2, "x", 9)
