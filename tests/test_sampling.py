import numpy as np
import pytest
from scipy import stats

from adaptive_mc.sampling import (RngState, _check_index_set, _philox_keys,
                                  as_generator, sample_uniform_subset)


def test_forced_full_subset():
    got = sample_uniform_subset(5, 5, RngState(0))
    np.testing.assert_array_equal(got, np.arange(5))


def test_output_shape_and_range():
    got = sample_uniform_subset(100, 10, RngState(42))
    assert got.shape == (10,)
    assert len(set(got.tolist())) == 10
    assert got.min() >= 0 and got.max() < 100
    assert np.all(np.diff(got) > 0)


def test_determinism_across_invocations():
    a = sample_uniform_subset(100, 10, RngState(7))
    b = sample_uniform_subset(100, 10, RngState(7))
    np.testing.assert_array_equal(a, b)


def test_substreams_differ():
    a = sample_uniform_subset(1000, 50, RngState(7, 1))
    b = sample_uniform_subset(1000, 50, RngState(7, 2))
    assert not np.array_equal(a, b)


def test_invalid_sizes_rejected():
    with pytest.raises(ValueError):
        sample_uniform_subset(10, 0, RngState(0))
    with pytest.raises(ValueError):
        sample_uniform_subset(10, 11, RngState(0))
    with pytest.raises(ValueError):
        sample_uniform_subset(0, 1, RngState(0))
    # A float or bool size is refused, never truncated to 2, 1 or 10 rows.
    for m, d in [(10, 2.7), (10, True), (10.9, 3), (np.float64(10), 3),
                 (10, np.bool_(True))]:
        with pytest.raises(ValueError, match="must be an integer"):
            sample_uniform_subset(m, d, RngState(0))
    got = sample_uniform_subset(np.int32(10), np.int64(3), RngState(0))
    np.testing.assert_array_equal(got,
                                  sample_uniform_subset(10, 3, RngState(0)))


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("m, d", [(1, 1), (50, 7), (300, 300)])
def test_subset_is_the_sorted_head_of_a_permutation(seed, m, d):
    # The lemma suite draws its row masks from this rule.
    got = sample_uniform_subset(m, d, RngState(seed))
    want = np.sort(RngState(seed).generator().permutation(m)[:d])
    np.testing.assert_array_equal(got, want)


def test_subset_is_a_read_only_pattern():
    got = sample_uniform_subset(100, 10, RngState(3))
    assert got.dtype == np.intp and not got.flags.writeable
    with pytest.raises(ValueError):
        got.flags.writeable = True
    assert _check_index_set(got, 100) is got


def test_views_and_copies_of_a_pattern_are_validated_again():
    pattern = _check_index_set([1, 4, 6, 9], 10)
    for view in (pattern[1:], pattern.astype(np.intp), pattern[:]):
        checked = _check_index_set(view, 10)
        assert checked is not view and checked is not pattern
        np.testing.assert_array_equal(checked, view)
    with pytest.raises(ValueError, match="strictly increasing"):
        _check_index_set(pattern[::-1], 10)


def test_as_generator_accepts_state_and_generator():
    g1 = as_generator(RngState(5))
    assert g1.integers(1 << 30) == RngState(5).generator().integers(1 << 30)
    g2 = np.random.default_rng(0)
    assert as_generator(g2) is g2
    with pytest.raises(TypeError):
        as_generator("seed")
    with pytest.raises(TypeError):
        as_generator(5)


def test_inclusion_frequencies():
    # Every index should be included with frequency d/m = 0.1 (+- 0.01).
    m, d, draws = 1000, 100, 100_000
    gen = RngState(123).generator()
    counts = np.zeros(m, dtype=np.int64)
    for _ in range(draws):
        counts[sample_uniform_subset(m, d, gen)] += 1
    freq = counts / draws
    assert np.max(np.abs(freq - d / m)) <= 0.01


def test_uniformity_chi_square():
    # Adjusted Pearson statistic for inclusion counts under sampling
    # without replacement: T = (m-1)/m * sum (c_i - Np)^2 / (N p (1-p))
    # is asymptotically chi-square with m-1 degrees of freedom.
    m, d, draws = 50, 7, 10_000
    gen = RngState(2024).generator()
    counts = np.zeros(m, dtype=np.int64)
    for _ in range(draws):
        counts[sample_uniform_subset(m, d, gen)] += 1
    p = d / m
    statistic = (m - 1) / m * np.sum((counts - draws * p) ** 2) / (
        draws * p * (1 - p)
    )
    critical = stats.chi2.ppf(1 - 0.001, df=m - 1)
    assert statistic < critical


@pytest.mark.parametrize("seed, key", [
    (0, ()), (4, (101, 0, 0)), (7, (101, 3, 1)), (2**40 + 3, (101, 12, 9)),
    (123456789, (100,)),
])
def test_derived_seed_is_the_seed_sequence_word(seed, key):
    seq = np.random.SeedSequence(entropy=seed, spawn_key=key)
    expected = int(seq.generate_state(1, dtype=np.uint64)[0])
    assert RngState(seed, *key).derived_seed() == expected


KEY_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 5, 3**50]
KEY_STREAMS = [(), (0,), (15,), (2**32 - 1,), (2**32,), (15, 7)]


@pytest.mark.parametrize("stream", KEY_STREAMS)
@pytest.mark.parametrize("seed", KEY_SEEDS)
def test_philox_keys_are_the_seed_sequence_keys(seed, stream):
    # 127/128 and 2**32 - 1/2**32 straddle a byte and a word boundary; the
    # one-word and two-word indices are keyed in one call.
    indices = np.array([0, 1, 127, 128, 2**32 - 1, 2**32, 2**32 + 9,
                        2**64 - 1], dtype=np.uint64)
    got = _philox_keys(RngState(seed, *stream), indices)
    assert got.dtype == np.uint64 and got.shape == (len(indices), 2)
    for t, key in zip(indices.tolist(), got):
        seq = np.random.SeedSequence(entropy=seed, spawn_key=(*stream, t))
        np.testing.assert_array_equal(key, seq.generate_state(2, np.uint64))


def test_philox_keys_of_a_range_and_of_no_index():
    state = RngState(9, 14)
    got = _philox_keys(state, np.arange(300, dtype=np.uint64))
    for t in range(300):
        np.testing.assert_array_equal(
            got[t], state.substream(t).generator().bit_generator.state[
                "state"]["key"])
    assert _philox_keys(state, np.arange(0, dtype=np.uint64)).shape == (0, 2)
