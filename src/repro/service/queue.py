"""Thread-safe priority queue with delayed (backoff) entries.

Two heaps: a *delayed* heap ordered by ready time (retry backoff) and a
*ready* heap ordered by ``(priority, sequence)`` -- lowest priority
number first, FIFO within a level.  Popping first matures any delayed
entries whose time has come, so a high-priority retry still jumps ahead
of older low-priority work.  Entries are never removed from the middle:
the scheduler skips one whose flight is gone when it surfaces.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from typing import List, Optional


class PriorityJobQueue:
    """Priority queue of keys with per-entry visibility delays."""

    def __init__(self) -> None:
        self._delayed: List[tuple] = []  # (not_before, seq, priority, key)
        self._ready: List[tuple] = []    # (priority, seq, key)
        self._seq = itertools.count()
        self._lock = threading.Lock()

    def push(self, key: str, priority: int = 0, delay_s: float = 0.0) -> None:
        """Enqueue; the entry becomes poppable after ``delay_s`` seconds."""
        with self._lock:
            seq = next(self._seq)
            if delay_s > 0:
                heapq.heappush(
                    self._delayed,
                    (time.monotonic() + delay_s, seq, priority, key),
                )
            else:
                heapq.heappush(self._ready, (priority, seq, key))

    def pop_ready(self) -> Optional[str]:
        """Dequeue the most urgent entry whose ready time has passed, or
        ``None`` if there is none."""
        with self._lock:
            now = time.monotonic()
            while self._delayed and self._delayed[0][0] <= now:
                _, seq, priority, key = heapq.heappop(self._delayed)
                heapq.heappush(self._ready, (priority, seq, key))
            return heapq.heappop(self._ready)[2] if self._ready else None

    def __len__(self) -> int:
        with self._lock:
            return len(self._ready) + len(self._delayed)
