"""The library's memos, for the tests that clear them or count their
misses."""

from mcrnet import latency, multipath, popularity

# the fixed-stage success probabilities
STAGE_CACHES = (latency._nearest_tx_success, latency._deli_success)
# every memo: the stages, the popularity model and the path sum S_b
MEMOS = STAGE_CACHES + (popularity._zipf_model, multipath._path_sum)


def clear_memos():
    for memo in MEMOS:
        memo.cache_clear()


def misses(*memos):
    return sum(memo.cache_info().misses for memo in memos)
