"""The library's one bounded cache: an OrderedDict in least recently used
order, changed under one lock so that threads may share it."""

from __future__ import annotations

import threading
from collections import OrderedDict

_LOCK = threading.Lock()


def lru(cache: OrderedDict, key, bound: int, build):
    """cache[key], built on a miss outside the lock (when two threads build
    a key at once, the first value stored is kept); keeps the bound most
    recently used."""
    with _LOCK:
        value = cache.get(key)
        if value is not None:
            cache.move_to_end(key)
            return value
    value = build()
    with _LOCK:
        value = cache.setdefault(key, value)
        cache.move_to_end(key)
        if len(cache) > bound:
            cache.popitem(last=False)
    return value
