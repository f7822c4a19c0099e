"""The priority stores behind Algorithm 1's max heaps (Section V-B).

The paper's allocator keeps two max heaps — one over per-stage *adjust
values*, one over per-stage *execution times* — and needs three operations
beyond a plain heap: read the top, update the key of an arbitrary stage
(``findNode`` + reheapify), and stay consistent when keys move both up and
down.  An indexed max-heap supports all of that in O(log n) via a position
map from stage id to heap slot; it is kept as an oracle
(``IndexedMaxHeap`` in ``tests/oracles/allocation.py``).  The stores here
answer the same queries under the same total order: :class:`FlatMaxKeys`
for the one-purchase-per-iteration loop, :class:`LazyMaxKeys` for the
run-skipping engine.
"""

from __future__ import annotations

import heapq as _heapq
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as _np

from repro.errors import AllocationError


class FlatMaxKeys:
    """Array-backed replacement for the heap operations Algorithm 1 uses.

    The indexed heap orders entries by the strict total order
    ``(key, -insertion_order)``, so ``top()`` and ``max_excluding()`` are
    *functions of the key assignment alone* — any store that answers the
    same queries under the same order is decision-identical.  For the
    allocator's small stage counts (tens of stages), a flat numpy key
    array with ``argmax`` (which returns the first — i.e. earliest
    inserted — maximum, matching the heap's tie-break) beats the pure
    Python sift loops by a wide margin: O(1) updates and one vectorized
    scan per query instead of O(log n) Python calls per mutation.

    Supports the subset of the heap API the greedy needs: ``push``,
    ``top``, ``update``, ``max_excluding``, ``key_of``, ``__len__``.
    Items must be hashable and unique, exactly as for the heap.
    """

    def __init__(self, entries: Optional[Iterable[Tuple[float, object]]] = None) -> None:
        self._keys = _np.empty(8, dtype=_np.float64)
        self._items: List[object] = []
        self._pos: Dict[object, int] = {}
        if entries is not None:
            for key, item in entries:
                self.push(key, item)

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, item: object) -> bool:
        return item in self._pos

    def push(self, key: float, item: object) -> None:
        """Insert a new item with the given key."""
        if item in self._pos:
            raise AllocationError(f"item {item!r} already in heap")
        size = len(self._items)
        if size == self._keys.size:
            grown = _np.empty(2 * size, dtype=_np.float64)
            grown[:size] = self._keys
            self._keys = grown
        self._keys[size] = key
        self._items.append(item)
        self._pos[item] = size

    def top(self) -> Tuple[float, object]:
        """The (key, item) pair maximal under ``(key, -insertion order)``."""
        size = len(self._items)
        if not size:
            raise AllocationError("heap is empty")
        keys = self._keys
        slot = keys[:size].argmax()
        return keys[slot], self._items[slot]

    def key_of(self, item: object) -> float:
        """Current key of ``item``."""
        slot = self._pos.get(item)
        if slot is None:
            raise AllocationError(f"item {item!r} not in heap")
        return float(self._keys[slot])

    def update(self, item: object, new_key: float) -> None:
        """Change ``item``'s key (O(1))."""
        slot = self._pos.get(item)
        if slot is None:
            raise AllocationError(f"item {item!r} not in heap")
        self._keys[slot] = new_key

    def max_excluding(self, item: object, default: float = 0.0) -> float:
        """Largest key among entries other than ``item``, floored at
        ``default`` — same contract as the heap's method."""
        slot = self._pos.get(item)
        if slot is None:
            raise AllocationError(f"item {item!r} not in heap")
        size = len(self._items)
        if size == 1:
            return default
        keys = self._keys[:size]
        best_slot = keys.argmax()
        if best_slot != slot:
            return max(default, keys[best_slot])
        saved = keys[slot]
        keys[slot] = -_np.inf
        second = keys.max()
        keys[slot] = saved
        return max(default, second)


class LazyMaxKeys:
    """Lazy (tombstone-based) max-heap over integer stage ids.

    The run-skipping engine (:mod:`repro.allocation.engine`) queries the
    longest-stage heap once per *lead change* rather than once per
    purchase, and its keys only ever decrease.  A plain ``heapq`` with
    stale entries left in place — an entry is live iff its key matches
    the stage's current key — makes every update an O(log n) push and
    every query an amortised O(log n) pop-until-live, with no O(n)
    ``argmax`` scans.  The total order matches the other stores:
    ``(key, -insertion_order)`` with stage id as insertion order, i.e.
    ties break toward the *smallest* stage id.

    Only the engine's query shapes are supported: ``top()`` and
    ``top_and_second()``; updates go through :meth:`update`.
    """

    def __init__(self, keys: Iterable[float]) -> None:
        self._keys: List[float] = [float(k) for k in keys]
        self._heap: List[Tuple[float, int]] = [
            (-key, stage) for stage, key in enumerate(self._keys)
        ]
        _heapq.heapify(self._heap)

    def key_of(self, stage: int) -> float:
        """Current key of ``stage``."""
        return self._keys[stage]

    def update(self, stage: int, new_key: float) -> None:
        """Change ``stage``'s key (keys must only decrease over time)."""
        self._keys[stage] = new_key
        _heapq.heappush(self._heap, (-new_key, stage))

    def top(self) -> int:
        """Stage with the maximum key (ties: smallest stage id)."""
        heap, keys = self._heap, self._keys
        while True:
            neg_key, stage = heap[0]
            if -neg_key == keys[stage]:
                return stage
            _heapq.heappop(heap)

    def top_and_second(self, default: float = 0.0):
        """``(top_stage, second_key, second_stage)`` in one query.

        ``second_key`` is the largest key among stages *other than* the
        top one, floored at ``default`` (the same contract as
        ``max_excluding``); ``second_stage`` is its holder, or ``-1``
        when the floor wins or no other stage exists.
        """
        heap, keys = self._heap, self._keys
        top_stage = self.top()
        popped: List[Tuple[float, int]] = []
        second_key = default
        second_stage = -1
        while heap:
            neg_key, stage = heap[0]
            if -neg_key != keys[stage]:
                _heapq.heappop(heap)
                continue
            if stage == top_stage:
                popped.append(_heapq.heappop(heap))
                continue
            if -neg_key > default:
                second_key = -neg_key
                second_stage = stage
            break
        for entry in popped:
            _heapq.heappush(heap, entry)
        return top_stage, second_key, second_stage
