"""The bounded memo behind the static phase's two content-keyed caches
(marker tables in :mod:`repro.analysis.instrument`, decoded programs in
:mod:`repro.vm.decode`); each instance keeps its own bound."""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Generic, Hashable, TypeVar

V = TypeVar("V")


class LRU(Generic[V]):
    """At most ``maxsize`` shared (read-only) values, least recently
    used evicted first, with hit and miss counters."""

    def __init__(self, maxsize: int = 256) -> None:
        self.maxsize = maxsize
        self._entries: "OrderedDict[Hashable, V]" = OrderedDict()
        self.hits = self.misses = 0

    def get(self, key: Hashable, compute: Callable[[], V]) -> V:
        """The value under ``key``, computed by ``compute()`` on a miss."""
        value = self._entries.get(key)
        if value is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            return value
        self.misses += 1
        value = self._entries[key] = compute()
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
        return value

    def info(self) -> Dict[str, int]:
        """Statistics: entries, hits, misses."""
        return {"entries": len(self._entries), "hits": self.hits, "misses": self.misses}

    def clear(self) -> None:
        """Drop every value and zero the counters (tests; never required)."""
        self._entries.clear()
        self.hits = self.misses = 0
