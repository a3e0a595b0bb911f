import itertools
import math
import tracemalloc

import numpy as np
import pytest

import momentgibbs as mg
import momentgibbs.microstates as microstates


def uniform(n_states):
    A = mg.new_state_set(1, [[i] for i in range(n_states)])
    return mg.Distribution([1.0 / n_states] * n_states, A)


def test_degenerate_distribution(two_state):
    p = mg.Distribution([1.0, 0.0], two_state)
    for seed in (0, 1, 999):
        c = mg.sample_counts(p, 10, seed)
        assert c.counts.tolist() == [10, 0]


def test_frozen_regression_vectors(two_state):
    # generated once with the documented Philox stream, then frozen
    p = mg.Distribution([0.75, 0.25], two_state)
    assert mg.sample_counts(p, 4, 42).counts.tolist() == [2, 2]
    assert mg.sample_counts(p, 4, 7).counts.tolist() == [3, 1]
    u3 = uniform(3)
    assert mg.sample_counts(u3, 12, 0).counts.tolist() == [7, 2, 3]
    assert mg.sample_counts(u3, 12, 1).counts.tolist() == [7, 1, 4]


def test_sampling_is_deterministic(two_state):
    p = mg.Distribution([0.6, 0.4], two_state)
    a = mg.sample_counts(p, 1000, 123)
    b = mg.sample_counts(p, 1000, 123)
    assert np.array_equal(a.counts, b.counts)
    assert a.total == 1000 and a.seed == 123
    c = mg.sample_counts(p, 1000, 124)
    assert not np.array_equal(a.counts, c.counts)


def test_block_size_does_not_move_the_counts(monkeypatch, three_state):
    # a one-shot draw of the whole stream is the reference
    p = mg.Distribution([0.2, 0.5, 0.3], three_state)
    monkeypatch.setattr(microstates, "_BLOCK", 1000)
    for seed in (0, 7, 2**64 - 1):
        for total in (1, 999, 1000, 1001, 3500, 10007):
            rng = np.random.Generator(np.random.Philox(key=seed))
            edges = np.cumsum(p.probs)
            edges[-1] = 1.0
            states = np.searchsorted(edges, rng.random(total), side="right")
            expected = np.bincount(states, minlength=3)
            assert mg.sample_counts(p, total, seed).counts.tolist() == expected.tolist()


def _bisected_counts(p, total, seed):
    """Counts by right-bisecting every draw of the whole stream at once."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    edges = np.cumsum(p.probs)
    edges[-1] = 1.0
    return np.bincount(np.searchsorted(edges, rng.random(total), side="right"), minlength=len(p))


def test_counts_equal_bisection_at_4000_states(monkeypatch):
    A = mg.new_state_set(1, [[i] for i in range(4000)])
    # 3627 weights underflow to exactly zero, and the sum reaches 1.0 at state 370
    steep = mg.gibbs_distribution(A, [2.0])
    edges = np.cumsum(steep.probs)
    assert np.count_nonzero(steep.probs == 0) == 3627 and edges[370] == 1.0
    # the sum passes 1.0 at state 999, then a tail of tiny probabilities
    head = np.full(4000, 1e-30)
    head[:1000] = 1e-3
    over = mg.Distribution(head, A)
    assert np.cumsum(over.probs)[999] > 1.0
    monkeypatch.setattr(microstates, "_BLOCK", 2**16)
    for p in (steep, over, uniform(4000)):
        for seed in (0, 5):
            for total in (1, 2**16, 200_003):
                got = mg.sample_counts(p, total, seed).counts
                assert got.tolist() == _bisected_counts(p, total, seed).tolist()
    # the first draw of seed 9 is the first edge: right bisection puts it in state 1
    first = np.random.Generator(np.random.Philox(key=9)).random()
    tie = np.zeros(4000)
    tie[:2] = first, 1.0 - first
    tie = mg.Distribution(tie, A)
    assert mg.sample_counts(tie, 1, 9).counts[1] == 1
    assert mg.sample_counts(tie, 5, 9).counts.tolist() == _bisected_counts(tie, 5, 9).tolist()


def test_sampling_memory_is_bounded(two_state):
    # a single draw of all 4e6 doubles and their indices peaked near 61 MiB, and
    # blocks of 2**20 draws at 16.7 MiB; blocks of 2**16 peak at 1.0 MiB
    p = mg.Distribution([0.5, 0.5], two_state)
    mg.sample_counts(p, 1, 3)  # numpy.random loads outside the window
    tracemalloc.start()
    try:
        mg.sample_counts(p, 4_000_000, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_blocks_take_16_draws_per_state_within_their_bounds(monkeypatch):
    # each block also bisects all N edges: at 10**6 states and blocks of 2**16,
    # 10**8 draws took 46 s against 6 s at 2**20; the cap keeps memory at 2**20
    sizes = []

    class Recording(np.random.Generator):
        def random(self, size):
            sizes.append(size)
            return super().random(size)

    monkeypatch.setattr(np.random, "Generator", Recording)
    for n_states, block in ((2, 2**16), (4000, 2**16), (2**13, 2**17), (2**17, 2**20)):
        sizes.clear()
        mg.sample_counts(uniform(n_states), 2 * block + 5, 1)
        assert sizes == [block, block, 5]


def test_counts_near_expectation(two_state):
    p = mg.Distribution([0.5, 0.5], two_state)
    c = mg.sample_counts(p, 10**5, 2026)
    bound = 3 * math.sqrt(10**5 * 0.25)
    assert abs(c.counts[0] - 50000) <= bound


def test_invalid_total_and_seed(two_state):
    p = mg.Distribution([0.5, 0.5], two_state)
    for bad in (0, -3, 1.5, True):
        with pytest.raises(mg.InvalidTotal):
            mg.sample_counts(p, bad, 1)
    with pytest.raises(ValueError):
        mg.sample_counts(p, 10, -1)
    with pytest.raises(ValueError):
        mg.sample_counts(p, 10, 2**64)


def test_total_beyond_int64_is_invalid(two_state):
    # counts are int64; 10**400 used to reach gammaln and raise a TypeError
    p = mg.Distribution([0.5, 0.5], two_state)
    for bad in (2**63, 10**400, np.uint64(2**63)):
        with pytest.raises(mg.InvalidTotal, match="below 2"):
            mg.log_equilibrium_count(p, bad)
        with pytest.raises(mg.InvalidTotal, match="below 2"):
            mg.sample_counts(p, bad, 1)
    assert math.isfinite(mg.log_equilibrium_count(p, 2**63 - 1))


def test_counts_beyond_int64_are_value_errors(two_state, three_state):
    # used to raise OverflowError from the int64 conversion
    with pytest.raises(ValueError, match="int64 range"):
        mg.MicrostateCounts([2**63, 0], 2**63 - 1, 1, two_state)
    with pytest.raises(mg.InvalidTotal):
        mg.MicrostateCounts([2**63, 0], 2**63, 1, two_state)
    # the int64 sum of these wraps to 1; the exact sum is 2**64 + 1
    with pytest.raises(ValueError, match="counts sum to 18446744073709551617"):
        mg.MicrostateCounts([2**63 - 1, 2**63 - 1, 3], 1, 0, three_state)
    for bad in (0, 4.0, True):
        with pytest.raises(mg.InvalidTotal):
            mg.MicrostateCounts([0, 0], bad, 0, two_state)
    c = mg.MicrostateCounts([2**62, 2**62 - 1], np.int64(2**63 - 1), 0, two_state)
    assert type(c.total) is int and c.total == 2**63 - 1


def test_empirical_distribution(two_state, three_state):
    c = mg.MicrostateCounts([10, 0], 10, 0, two_state)
    assert mg.empirical_distribution(c).probs.tolist() == [1.0, 0.0]
    c = mg.MicrostateCounts([3, 1], 4, 0, two_state)
    assert mg.empirical_distribution(c).probs.tolist() == [0.75, 0.25]
    c = mg.MicrostateCounts([1, 1, 2], 4, 0, three_state)
    assert mg.empirical_distribution(c).probs.tolist() == [0.25, 0.25, 0.5]


def test_counts_validation(two_state):
    with pytest.raises(ValueError):
        mg.MicrostateCounts([2, 1], 4, 0, two_state)
    with pytest.raises(ValueError):
        mg.MicrostateCounts([-1, 5], 4, 0, two_state)
    with pytest.raises(mg.LengthMismatch):
        mg.MicrostateCounts([4], 4, 0, two_state)


def test_log_multinomial_measure_values(two_state):
    half = mg.Distribution([0.5, 0.5], two_state)
    got = mg.log_multinomial_measure(half, mg.MicrostateCounts([2, 2], 4, 0, two_state))
    assert got == pytest.approx(math.log(6 / 16), rel=1e-14)  # C(4,2) / 2^4
    got = mg.log_multinomial_measure(half, mg.MicrostateCounts([4, 0], 4, 0, two_state))
    assert got == pytest.approx(math.log(1 / 16), rel=1e-14)
    single = mg.new_state_set(1, [[3.0]])
    sure = mg.Distribution([1.0], single)
    assert mg.log_multinomial_measure(sure, mg.MicrostateCounts([7], 7, 0, single)) == 0.0


def test_log_multinomial_zero_probability_sentinel(two_state):
    point = mg.Distribution([1.0, 0.0], two_state)
    impossible = mg.MicrostateCounts([3, 1], 4, 0, two_state)
    assert mg.log_multinomial_measure(point, impossible) == -math.inf
    possible = mg.MicrostateCounts([4, 0], 4, 0, two_state)
    assert mg.log_multinomial_measure(point, possible) == 0.0


def test_log_multinomial_length_mismatch(two_state, three_state):
    p = mg.Distribution([0.5, 0.5], two_state)
    c = mg.MicrostateCounts([1, 1, 2], 4, 0, three_state)
    with pytest.raises(mg.LengthMismatch):
        mg.log_multinomial_measure(p, c)


def test_log_equilibrium_count_values(two_state):
    half = mg.Distribution([0.5, 0.5], two_state)
    # Gamma(5) / Gamma(3)^2 = 24 / 4 = 6
    assert mg.log_equilibrium_count(half, 4) == pytest.approx(math.log(6), rel=1e-14)
    point = mg.Distribution([1.0, 0.0], two_state)
    for total in (1, 17, 100):
        assert mg.log_equilibrium_count(point, total) == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(mg.InvalidTotal):
        mg.log_equilibrium_count(half, 0)


def test_equilibrium_count_approaches_entropy(two_state):
    half = mg.Distribution([0.5, 0.5], two_state)
    s = math.log(2)
    gaps = []
    for total in (10**3, 10**4, 10**5, 10**6):
        gaps.append(abs(mg.log_equilibrium_count(half, total) / total - s))
    assert gaps == sorted(gaps, reverse=True)
    assert gaps[-1] <= 1e-4
    # the residual at 10^6 is the half-log Stirling correction, about 1.03e-5
    # relative; subtracting it leaves the exact Stirling remainder O(1/total)
    total = 10**6
    correction = 0.5 * math.log(math.pi * total / 2.0)
    raw = mg.log_equilibrium_count(half, total)
    assert abs(raw / (total * s) - 1.0) <= 1.05e-5
    assert abs((raw + correction) / (total * s) - 1.0) <= 1e-6


def test_relative_entropy_lemma():
    rng = np.random.Generator(np.random.Philox(key=61))
    for _ in range(200):
        k = int(rng.integers(2, 6))
        p = rng.uniform(0.05, 1.0, size=k)
        p /= p.sum()
        q = rng.uniform(0.05, 1.0, size=k)
        q /= q.sum()
        value = float((q * (np.log(p) - np.log(q))).sum())
        assert value <= 0.0
        if value > -1e-12:
            assert np.abs(q - p).max() <= 1e-5
    # equality exactly at q = p
    p = np.array([0.2, 0.3, 0.5])
    assert abs(float((p * (np.log(p) - np.log(p))).sum())) <= 1e-12


def test_law_of_large_numbers_fixed_seeds():
    probs = np.array([0.2, 0.3, 0.5])
    A = mg.new_state_set(1, [[0], [1], [2]])
    p = mg.Distribution(probs, A)
    total = 10**5
    sigma = np.sqrt(probs * (1 - probs) / total)
    passed = 0
    for seed in range(100):
        q = mg.empirical_distribution(mg.sample_counts(p, total, seed)).probs
        if np.all(np.abs(q - probs) <= 3 * sigma):
            passed += 1
    assert passed >= 99


def test_measure_maximized_near_expected_counts():
    rng = np.random.Generator(np.random.Philox(key=62))
    for _ in range(6):
        k = int(rng.integers(2, 4))
        probs = rng.uniform(0.15, 1.0, size=k)
        probs /= probs.sum()
        A = mg.new_state_set(1, [[i] for i in range(k)])
        p = mg.Distribution(probs, A)
        total = int(rng.integers(5, 21))
        best_counts, best_val = None, -math.inf
        for combo in itertools.product(range(total + 1), repeat=k - 1):
            rest = total - sum(combo)
            if rest < 0:
                continue
            counts = list(combo) + [rest]
            val = mg.log_multinomial_measure(p, mg.MicrostateCounts(counts, total, 0, A))
            if val > best_val:
                best_val, best_counts = val, counts
        # the mode tracks total * p; per coordinate it can land just past
        # the neighboring integer (observed up to ~1.01), never further
        assert np.abs(np.array(best_counts) - total * probs).max() <= 1.5


def test_microstate_counts_compare_by_value(two_state, three_state):
    c = mg.MicrostateCounts([3, 1], 4, 7, two_state)
    assert c == mg.MicrostateCounts([3, 1], 4, 7, mg.new_state_set(1, [[0], [1]]))
    assert c != mg.MicrostateCounts([2, 2], 4, 7, two_state)
    assert c != mg.MicrostateCounts([3, 1], 4, 8, two_state)
    assert c != mg.MicrostateCounts([3, 1, 0], 4, 7, three_state)
    assert c != [3, 1]
