"""Tests for the bounded LRU cache that vspace and valuation share."""

import random
import sys
import threading
from collections import OrderedDict

from latval.cache import lru


def test_lru_keeps_the_most_recently_used():
    cache = OrderedDict()
    built = []

    def get(key):
        return lru(cache, key, 2, lambda: built.append(key) or [key])

    first = get("a")
    get("b")
    assert get("a") is first          # a hit, and now the most recent
    get("c")                          # evicts b, the least recent
    assert list(cache) == ["a", "c"]
    get("b")
    assert built == ["a", "b", "c", "b"]


def test_lru_shared_by_threads():
    # more threads than cores, switching often, evicting on most calls: a
    # hit racing an eviction must neither raise nor return another value
    cache = OrderedDict()
    errors = []

    def work(seed):
        rng = random.Random(seed)
        try:
            for _ in range(3000):
                key = rng.randrange(8)
                assert lru(cache, key, 3, lambda: (key,)) == (key,)
        except Exception as exc:   # reported by the main thread
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(cache) <= 3
