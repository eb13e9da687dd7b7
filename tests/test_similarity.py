"""Similarity metrics, ablation masks, and candidate ranking against
hand-computed values and a brute-force reference ranking."""

import math

import numpy as np
import pytest

from toolmatch.domain import NUM_ATTRIBUTES
from toolmatch.rng import SplitMix64
from toolmatch.similarity import (
    EMPTY_MASK,
    METRIC_NAMES,
    AblationMask,
    SimilarityError,
    apply_mask,
    cosine_similarity,
    negative_euclidean,
    rank_candidates,
    resolve_metric,
    select_tool,
)


def vec13(*head):
    v = np.ones(NUM_ATTRIBUTES)
    v[: len(head)] = head
    return v


class TestCosine:
    def test_hand_value(self):
        # dot = 12+12+11 = 35, both norms sqrt(36) = 6 exactly.
        a = vec13(3.0, 4.0)
        b = vec13(4.0, 3.0)
        assert cosine_similarity(a, b) == 35.0 / 36.0

    def test_orthogonal(self):
        a = np.zeros(4)
        b = np.zeros(4)
        a[0] = 1.0
        b[1] = 1.0
        assert cosine_similarity(a, b) == 0.0

    def test_self_similarity_near_one(self):
        rng = SplitMix64(10)
        for _ in range(50):
            v = rng.normals(13)
            assert abs(cosine_similarity(v, v) - 1.0) <= 1e-12
            assert abs(cosine_similarity(v, -v) + 1.0) <= 1e-12

    def test_scale_invariance(self):
        rng = SplitMix64(11)
        for _ in range(50):
            a = rng.normals(13)
            b = rng.normals(13)
            c = rng.uniform(1e-3, 1e3)
            assert abs(cosine_similarity(a, c * b) - cosine_similarity(a, b)) <= 1e-12

    def test_symmetry_exact(self):
        rng = SplitMix64(12)
        a = rng.normals(13)
        b = rng.normals(13)
        assert cosine_similarity(a, b) == cosine_similarity(b, a)

    def test_zero_norm_rejected(self):
        with pytest.raises(SimilarityError, match="zero-norm"):
            cosine_similarity(np.zeros(13), np.ones(13))
        with pytest.raises(SimilarityError, match="zero-norm"):
            cosine_similarity(np.ones(13), np.zeros(13))

    def test_length_mismatch(self):
        with pytest.raises(SimilarityError, match="mismatch"):
            cosine_similarity(np.ones(13), np.ones(12))

    def test_bounded(self):
        rng = SplitMix64(13)
        for _ in range(200):
            s = cosine_similarity(rng.normals(13), rng.normals(13))
            assert -1.0 - 1e-12 <= s <= 1.0 + 1e-12


class TestNegativeEuclidean:
    def test_hand_value(self):
        ones = np.ones(13)
        sevens = np.full(13, 7.0)
        assert negative_euclidean(ones, sevens) == -math.sqrt(468.0)
        assert negative_euclidean(ones, sevens) == pytest.approx(-6.0 * math.sqrt(13.0), abs=1e-12)

    def test_identity_is_zero(self):
        v = np.linspace(1, 7, 13)
        assert negative_euclidean(v, v) == 0.0

    def test_always_nonpositive_and_symmetric(self):
        rng = SplitMix64(14)
        for _ in range(100):
            a = rng.normals(13)
            b = rng.normals(13)
            s = negative_euclidean(a, b)
            assert s <= 0.0
            assert s == negative_euclidean(b, a)

    def test_closer_scores_higher(self):
        target = np.full(13, 4.0)
        near = np.full(13, 4.1)
        far = np.full(13, 6.0)
        assert negative_euclidean(target, near) > negative_euclidean(target, far)

    def test_length_mismatch(self):
        with pytest.raises(SimilarityError, match="mismatch"):
            negative_euclidean(np.ones(3), np.ones(4))


class TestResolveMetric:
    def test_known_names(self):
        assert resolve_metric("cosine") is cosine_similarity
        assert resolve_metric("negative_euclidean") is negative_euclidean
        assert set(METRIC_NAMES) == {"cosine", "negative_euclidean"}

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown metric"):
            resolve_metric("manhattan")


class TestAblationMask:
    def test_empty_mask_is_falsy(self):
        assert not EMPTY_MASK
        assert not AblationMask()
        assert AblationMask([3])

    def test_kept_order(self):
        mask = AblationMask([6, 0, 12])
        assert list(mask.kept) == [1, 2, 3, 4, 5, 7, 8, 9, 10, 11]

    def test_duplicates_collapse(self):
        assert AblationMask([2, 2, 2]).removed == frozenset({2})

    def test_from_names(self):
        mask = AblationMask.from_names(["graspability", "valence"])
        assert mask.removed == frozenset({6, 11})

    def test_from_names_unknown(self):
        with pytest.raises(KeyError):
            AblationMask.from_names(["weight"])

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="not in"):
            AblationMask([13])
        with pytest.raises(ValueError, match="not in"):
            AblationMask([-1])

    def test_must_keep_one_dimension(self):
        with pytest.raises(ValueError, match="at least one"):
            AblationMask(range(13))
        AblationMask(range(12))

    def test_apply_mask(self):
        v = np.arange(13.0)
        out = apply_mask(v, AblationMask([0, 5]))
        assert list(out) == [1, 2, 3, 4, 6, 7, 8, 9, 10, 11, 12]

    def test_apply_no_mask_passthrough(self):
        v = np.arange(13.0)
        assert np.array_equal(apply_mask(v, None), v)
        assert np.array_equal(apply_mask(v, EMPTY_MASK), v)

    def test_apply_mask_shape_check(self):
        with pytest.raises(ValueError, match="13-vectors"):
            apply_mask(np.arange(12.0), AblationMask([0]))


def brute_force_rank(query, candidates, metric):
    """Reference ranking: python-loop scores, stable sort on (-score, id)."""
    def dot(u, v):
        return math.fsum(ui * vi for ui, vi in zip(u, v))

    rows = []
    for cid, vec in candidates:
        if metric == "cosine":
            s = dot(query, vec) / (math.sqrt(dot(query, query)) * math.sqrt(dot(vec, vec)))
        else:
            s = -math.sqrt(math.fsum((q - v) ** 2 for q, v in zip(query, vec)))
        rows.append((cid, s))
    rows.sort(key=lambda pair: (-pair[1], pair[0]))
    return rows


class TestRanking:
    def test_matches_brute_force(self):
        rng = SplitMix64(20)
        for metric in METRIC_NAMES:
            for _ in range(20):
                query = rng.uniforms(13, 1, 7)
                cands = [(i, rng.uniforms(13, 1, 7)) for i in range(8)]
                got = rank_candidates(query, cands, metric=metric)
                want = brute_force_rank(query, cands, metric)
                assert [cid for cid, _ in got] == [cid for cid, _ in want]
                for (_, gs), (_, ws) in zip(got, want):
                    assert gs == pytest.approx(ws, rel=1e-10)

    def test_tie_breaks_ascending_id(self):
        v = np.full(13, 2.0)
        cands = [(7, v.copy()), (2, v.copy()), (9, v.copy())]
        got = rank_candidates(np.ones(13), cands, metric="cosine")
        assert [cid for cid, _ in got] == [2, 7, 9]

    def test_mask_induced_tie(self):
        # Candidates differ only on attribute 0; removing it forces the tie,
        # which must resolve to the lower id.
        a = vec13(6.0)
        b = vec13(1.0)
        query = np.ones(13)
        mask = AblationMask([0])
        unmasked, _ = select_tool(query, [(5, a), (3, b)], metric="negative_euclidean")
        masked, _ = select_tool(query, [(5, a), (3, b)], metric="negative_euclidean", mask=mask)
        assert unmasked == 3
        assert masked == 3
        masked2, _ = select_tool(query, [(1, a), (3, b)], metric="negative_euclidean", mask=mask)
        assert masked2 == 1

    def test_best_first(self):
        query = np.full(13, 7.0)
        cands = [(0, np.full(13, 1.0)), (1, np.full(13, 6.9)), (2, np.full(13, 4.0))]
        got = rank_candidates(query, cands, metric="negative_euclidean")
        assert [cid for cid, _ in got] == [1, 2, 0]
        assert got[0][1] >= got[1][1] >= got[2][1]

    def test_select_tool_is_head_of_ranking(self):
        rng = SplitMix64(21)
        query = rng.uniforms(13, 1, 7)
        cands = [(i, rng.uniforms(13, 1, 7)) for i in range(10)]
        ranking = rank_candidates(query, cands, metric="cosine")
        assert select_tool(query, cands, metric="cosine") == ranking[0]

    def test_empty_candidates(self):
        with pytest.raises(ValueError, match="at least one"):
            rank_candidates(np.ones(13), [])

    def test_zero_norm_candidate_carries_id(self):
        cands = [(4, np.ones(13)), (11, np.zeros(13))]
        with pytest.raises(SimilarityError, match="candidate 11") as info:
            rank_candidates(np.ones(13), cands, metric="cosine")
        assert info.value.item_id == 11

    def test_zero_norm_query_blames_first_candidate(self):
        cands = [(6, np.ones(13)), (2, np.full(13, 3.0))]
        with pytest.raises(SimilarityError, match="candidate 6") as info:
            rank_candidates(np.zeros(13), cands, metric="cosine")
        assert info.value.item_id == 6

    def test_euclid_tolerates_zero_vectors(self):
        cands = [(0, np.zeros(13)), (1, np.ones(13))]
        got = rank_candidates(np.zeros(13), cands, metric="negative_euclidean")
        assert got[0] == (0, 0.0)

    def test_unknown_metric(self):
        with pytest.raises(ValueError, match="unknown metric"):
            rank_candidates(np.ones(13), [(0, np.ones(13))], metric="dot")

    def test_masked_scores_match_manual_slicing(self):
        rng = SplitMix64(22)
        mask = AblationMask([1, 4, 8])
        keep = mask.kept
        query = rng.uniforms(13, 1, 7)
        cands = [(i, rng.uniforms(13, 1, 7)) for i in range(6)]
        got = rank_candidates(query, cands, metric="cosine", mask=mask)
        sliced = [(i, v[keep]) for i, v in cands]
        want = rank_candidates(query[keep], sliced, metric="cosine")
        assert got == want
