import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from mcrnet.montecarlo import substream
from mcrnet.popularity import (FIFO, LRU, POPULARITY_PRIORITY, CacheState,
                               cache_step, hit_probability, run_requests,
                               zipf)

# brute-force partial sums, frozen (beta=0.8, |K|=500)
Q1_BRUTE = 0.07755215938123915
HIT_144_BRUTE = 0.7042848906179577


def test_single_content_library():
    model = zipf(2.3, 1)
    assert model.q.tolist() == [1.0]


def test_zero_skew_is_uniform():
    model = zipf(0.0, 4)
    assert model.q.tolist() == [0.25, 0.25, 0.25, 0.25]


def test_top_popularity_matches_brute_force():
    model = zipf(0.8, 500)
    brute = 1.0 / sum(j ** -0.8 for j in range(1, 501))
    assert brute == pytest.approx(Q1_BRUTE, rel=1e-14)
    assert model.q[0] == pytest.approx(brute, rel=1e-12)


@pytest.mark.parametrize("beta", [0.0, 0.4, 0.8, 1.2, 2.5])
@pytest.mark.parametrize("k_total", [1, 7, 500, 1000])
def test_normalisation(beta, k_total):
    model = zipf(beta, k_total)
    assert abs(model.q.sum() - 1.0) <= 1e-12
    assert (model.q > 0).all()
    assert (np.diff(model.q) <= 0).all()


def test_zipf_rejects_bad_args():
    with pytest.raises(ValueError):
        zipf(0.8, 0)
    with pytest.raises(ValueError):
        zipf(-0.1, 10)


def test_hit_probability_bounds():
    model = zipf(0.8, 500)
    assert hit_probability(model, 0) == 0.0
    assert hit_probability(model, 500) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        hit_probability(model, 501)
    with pytest.raises(ValueError):
        hit_probability(model, -1)


def test_hit_probability_against_brute_force():
    model = zipf(0.8, 500)
    norm = sum(j ** -0.8 for j in range(1, 501))
    brute = sum(k ** -0.8 for k in range(1, 145)) / norm
    assert brute == pytest.approx(HIT_144_BRUTE, rel=1e-14)
    assert hit_probability(model, 144) == pytest.approx(brute, rel=1e-12)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(beta=st.floats(0.0, 3.0), k_total=st.integers(1, 2000))
def test_hit_probability_is_the_running_sum_property(beta, k_total):
    # the optimiser's fiber-miss terms take this running sum for every
    # cache size at once; a sweep must read the same bits
    model = zipf(beta, k_total)
    running = model.q.cumsum()
    assert hit_probability(model, 0) == 0.0
    assert [hit_probability(model, psi) for psi in range(1, k_total + 1)] \
        == running.tolist()


def test_hit_probability_monotone_in_skew():
    for psi in (10, 144, 400):
        hits = [hit_probability(zipf(beta, 500), psi)
                for beta in (0.0, 0.3, 0.6, 0.9, 1.2, 1.5)]
        assert all(b >= a for a, b in zip(hits, hits[1:]))


def test_fifo_eviction_order():
    state = CacheState(psi=2, policy=FIFO)
    state, hits = run_requests(state, [1, 2, 3])
    assert set(state.stored) == {2, 3}
    assert hits.tolist() == [False, False, False]


def test_lru_recency():
    state = CacheState(psi=2, policy=LRU)
    state, hits = run_requests(state, [1, 2, 1, 3])
    assert set(state.stored) == {1, 3}
    assert hits.tolist() == [False, False, True, False]


def test_popularity_priority_replaces_least_popular():
    state = CacheState(psi=2, policy=POPULARITY_PRIORITY)
    state, hits = run_requests(state, [5, 4, 1])
    assert set(state.stored) == {1, 4}
    assert hits.tolist() == [False, False, False]


def test_popularity_priority_ignores_less_popular_miss():
    state = CacheState(psi=2, policy=POPULARITY_PRIORITY, stored=(1, 2))
    new, hit = cache_step(state, 9)
    assert not hit and new.stored == (1, 2)


def test_cache_step_rejects_bad_id():
    state = CacheState(psi=2, policy=FIFO)
    with pytest.raises(ValueError):
        cache_step(state, 0)
    with pytest.raises(ValueError):
        cache_step(state, "a")


def test_cache_state_validation():
    with pytest.raises(ValueError):
        CacheState(psi=1, policy="mru")
    with pytest.raises(ValueError):
        CacheState(psi=1, policy=FIFO, stored=(1, 2))
    with pytest.raises(ValueError):
        CacheState(psi=3, policy=FIFO, stored=(1, 1))


def _zipf_stream(model, n, seed):
    rng = substream(seed, 90)
    return rng.choice(model.k_total, size=n, p=model.q) + 1


def test_popularity_priority_converges_to_analytic_hit_rate():
    model = zipf(0.8, 200)
    psi = 20
    stream = _zipf_stream(model, 150_000, seed=51)
    _, hits = run_requests(CacheState(psi=psi, policy=POPULARITY_PRIORITY),
                           stream)
    p = hit_probability(model, psi)
    se = np.sqrt(p * (1 - p) / len(stream))
    # warmup misses bias the empirical rate down by at most psi/n
    assert abs(hits.mean() - p) <= 3 * se + psi / len(stream)


def test_lru_fifo_bounded_by_popularity_priority():
    model = zipf(0.8, 200)
    psi = 20
    stream = _zipf_stream(model, 60_000, seed=52)
    rates = {}
    for policy in (FIFO, LRU, POPULARITY_PRIORITY):
        _, hits = run_requests(CacheState(psi=psi, policy=policy), stream)
        rates[policy] = hits.mean()
    p = hit_probability(model, psi)
    se = np.sqrt(p * (1 - p) / len(stream))
    assert rates[FIFO] <= rates[POPULARITY_PRIORITY] + 3 * se
    assert rates[LRU] <= rates[POPULARITY_PRIORITY] + 3 * se


# an example takes about 0.3 s, so a failure is reported unshrunk rather
# than after minutes of shrinking
@settings(max_examples=10, deadline=None, derandomize=True, database=None,
          phases=(Phase.explicit, Phase.generate))
@given(seed=st.integers(0, 2 ** 32 - 1), beta=st.floats(0.2, 1.6))
def test_popularity_priority_beats_lru_and_fifo_property(seed, beta):
    # keeping the most popular contents seen so far converges to the
    # ideal static cache, which no recency policy beats in expectation.
    # The order is not guaranteed on a short stream, where warmup and
    # sampling noise dominate, so the stream is long and each rate gets
    # a tolerance of 3 binomial standard errors of the analytic rate.
    model = zipf(beta, 200)
    psi = 20
    stream = _zipf_stream(model, 20_000, seed)
    rates = {policy: run_requests(CacheState(psi=psi, policy=policy),
                                  stream)[1].mean()
             for policy in (FIFO, LRU, POPULARITY_PRIORITY)}
    p = hit_probability(model, psi)
    tolerance = 3 * np.sqrt(p * (1 - p) / len(stream))
    assert rates[POPULARITY_PRIORITY] >= rates[LRU] - tolerance
    assert rates[POPULARITY_PRIORITY] >= rates[FIFO] - tolerance
