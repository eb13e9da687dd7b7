"""Portable PRNG: reference vectors, an in-test reimplementation, and the
inverse-CDF normal path checked against scipy's quantile function."""

import math
import warnings

import numpy as np
import pytest
import scipy.special

from toolmatch.rng import SplitMix64, inverse_normal_cdf

# Published SplitMix64 reference stream for seed 0 (the same mixer used by
# Java's SplittableRandom; first three outputs are widely reproduced).
SEED0_STREAM = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)


def reference_splitmix64(seed: int, n: int) -> list[int]:
    """Independent straight-line reimplementation of the reference algorithm."""
    mask = (1 << 64) - 1
    state = seed & mask
    out = []
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


class TestStream:
    def test_seed0_reference_vectors(self):
        rng = SplitMix64(0)
        assert tuple(rng.next_u64() for _ in range(3)) == SEED0_STREAM

    def test_matches_reimplementation_across_seeds(self):
        for seed in (0, 1, 42, 2**63, (1 << 64) - 1, 1234567890123456789):
            rng = SplitMix64(seed)
            assert [rng.next_u64() for _ in range(20)] == reference_splitmix64(seed, 20)

    def test_seed_wraps_to_64_bits(self):
        assert SplitMix64(1 << 64).next_u64() == SplitMix64(0).next_u64()

    def test_determinism(self):
        a = SplitMix64(99)
        b = SplitMix64(99)
        assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]

    def test_child_seeds_are_stream_words(self):
        rng = SplitMix64(7)
        expected = reference_splitmix64(7, 4)
        assert SplitMix64(7).child_seeds(4) == expected
        assert rng.child_seeds(2) == expected[:2]


class TestUniform:
    def test_unit_interval_and_value(self):
        # random() must equal (next_u64 >> 11) * 2^-53 exactly.
        words = reference_splitmix64(3, 50)
        rng = SplitMix64(3)
        for w in words:
            assert rng.random() == (w >> 11) * 2.0**-53

    def test_range(self):
        rng = SplitMix64(5)
        xs = [rng.random() for _ in range(1000)]
        assert all(0.0 <= x < 1.0 for x in xs)

    def test_uniform_affine(self):
        a = SplitMix64(8)
        b = SplitMix64(8)
        for _ in range(100):
            u = a.random()
            assert b.uniform(-2.0, 3.0) == -2.0 + 5.0 * u

    def test_uniforms_array(self):
        arr = SplitMix64(9).uniforms(10, 1.0, 7.0)
        assert arr.shape == (10,)
        assert arr.dtype == np.float64
        assert ((arr >= 1.0) & (arr < 7.0)).all()


class TestNormal:
    def test_one_word_per_variate(self):
        rng = SplitMix64(17)
        rng.normal()
        # After one variate the stream is exactly one word ahead.
        assert rng.next_u64() == reference_splitmix64(17, 2)[1]

    def test_value_formula(self):
        w = reference_splitmix64(21, 1)[0]
        u = ((w >> 11) + 0.5) * 2.0**-53
        assert SplitMix64(21).normal() == inverse_normal_cdf(u)

    def test_moments(self):
        xs = SplitMix64(4).normals(20000)
        assert abs(float(xs.mean())) < 0.03
        assert abs(float(xs.std()) - 1.0) < 0.03

    def test_symmetric_stream_has_no_endpoint_issues(self):
        xs = SplitMix64(11).normals(1000)
        assert np.isfinite(xs).all()


BLOCK_SEEDS = (0, 7, 2**63, (1 << 64) - 1, 1234567890123456789)
BLOCK_SIZES = (0, 1, 13, 30000)


class TestBlockDraws:
    """uniforms/normals draw a numpy block; it must equal the scalar loop bit
    for bit and leave the stream where the loop would."""

    @pytest.mark.parametrize("seed", BLOCK_SEEDS)
    @pytest.mark.parametrize("n", BLOCK_SIZES)
    def test_uniforms_equal_scalar_loop(self, seed, n):
        block, loop = SplitMix64(seed), SplitMix64(seed)
        got = block.uniforms(n, -0.3, 0.7)
        want = np.array([loop.uniform(-0.3, 0.7) for _ in range(n)], dtype=np.float64)
        assert got.dtype == np.float64 and got.shape == (n,)
        assert got.tobytes() == want.tobytes()
        assert block.next_u64() == reference_splitmix64(seed, n + 1)[n]

    @pytest.mark.parametrize("seed", BLOCK_SEEDS)
    @pytest.mark.parametrize("n", BLOCK_SIZES)
    def test_normals_equal_scalar_loop(self, seed, n):
        # Seed 7 at n=30000 has tail draws where np.log and math.log differ
        # in the last place, so a block that took np.log fails here.
        block, loop = SplitMix64(seed), SplitMix64(seed)
        got = block.normals(n)
        want = np.array([loop.normal() for _ in range(n)], dtype=np.float64)
        assert got.dtype == np.float64 and got.shape == (n,)
        assert got.tobytes() == want.tobytes()
        assert block.next_u64() == reference_splitmix64(seed, n + 1)[n]

    @pytest.mark.parametrize("n", (0, -1, -5))
    def test_non_positive_n_draws_nothing(self, n):
        rng = SplitMix64(123)
        for draw in (rng.uniforms(n, 2.0, 3.0), rng.normals(n)):
            assert draw.dtype == np.float64 and draw.shape == (0,)
        assert rng.next_u64() == reference_splitmix64(123, 1)[0]

    def test_wraparound_raises_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            SplitMix64((1 << 64) - 1).uniforms(1)
            SplitMix64((1 << 64) - 1).normals(1)


class TestInverseNormalCdf:
    def test_against_scipy_quantile(self):
        # Acklam's approximation is documented to ~1.15e-9 relative error.
        ps = np.concatenate([
            np.linspace(1e-9, 0.02424, 300),
            np.linspace(0.0243, 0.9757, 500),
            np.linspace(0.97576, 1 - 1e-9, 300),
        ])
        worst = 0.0
        for p in ps:
            exact = scipy.special.ndtri(p)
            got = inverse_normal_cdf(float(p))
            denom = max(abs(exact), 1e-12)
            worst = max(worst, abs(got - exact) / denom)
        assert worst < 2e-9

    def test_median(self):
        assert inverse_normal_cdf(0.5) == 0.0

    def test_symmetry(self):
        for p in (0.01, 0.1, 0.3):
            assert inverse_normal_cdf(p) == pytest.approx(-inverse_normal_cdf(1 - p), rel=1e-9)

    def test_domain(self):
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError, match="in \\(0, 1\\)"):
                inverse_normal_cdf(bad)


class TestRandint:
    def test_bounds(self):
        rng = SplitMix64(2)
        xs = [rng.randint(7) for _ in range(2000)]
        assert min(xs) == 0 and max(xs) == 6

    def test_all_values_hit(self):
        rng = SplitMix64(2)
        assert set(rng.randint(5) for _ in range(500)) == {0, 1, 2, 3, 4}

    def test_n_one(self):
        assert SplitMix64(0).randint(1) == 0

    def test_invalid_n(self):
        with pytest.raises(ValueError, match="positive"):
            SplitMix64(0).randint(0)

    def test_rejection_is_unbiased_construction(self):
        # The acceptance threshold must be a multiple of n.
        rng = SplitMix64(13)
        n = 6
        limit = (1 << 64) - ((1 << 64) % n)
        assert limit % n == 0
        # Values below the limit map by plain modulo.
        w = reference_splitmix64(13, 1)[0]
        if w < limit:
            assert rng.randint(n) == w % n


class TestShuffleAndSample:
    def test_shuffle_is_permutation(self):
        rng = SplitMix64(6)
        xs = list(range(30))
        rng.shuffle(xs)
        assert sorted(xs) == list(range(30))
        assert xs != list(range(30))  # astronomically unlikely to be identity

    def test_shuffle_deterministic(self):
        a, b = list(range(20)), list(range(20))
        SplitMix64(31).shuffle(a)
        SplitMix64(31).shuffle(b)
        assert a == b

    def test_shuffle_matches_fisher_yates_reference(self):
        # Back-to-front Fisher-Yates driven by the same randint stream.
        seed, n = 77, 12
        xs = list(range(n))
        SplitMix64(seed).shuffle(xs)
        ref = list(range(n))
        rng = SplitMix64(seed)
        for i in range(n - 1, 0, -1):
            j = rng.randint(i + 1)
            ref[i], ref[j] = ref[j], ref[i]
        assert xs == ref

    def test_sample_distinct_and_from_pool(self):
        rng = SplitMix64(14)
        pool = list(range(100, 150))
        got = rng.sample(pool, 9)
        assert len(got) == len(set(got)) == 9
        assert set(got) <= set(pool)
        assert pool == list(range(100, 150))  # input untouched

    def test_sample_whole_pool(self):
        got = SplitMix64(15).sample([1, 2, 3], 3)
        assert sorted(got) == [1, 2, 3]

    def test_sample_too_many(self):
        with pytest.raises(ValueError, match="cannot sample"):
            SplitMix64(0).sample([1, 2], 3)

    def test_sample_deterministic(self):
        assert SplitMix64(44).sample(range(40), 10) == SplitMix64(44).sample(range(40), 10)
