"""The frontend decision cache: epoch-pinned replay of structured verdicts.

Industrial admission traffic repeats: a handful of stream profiles
(shapes) arrive over and over under fresh names.  Between two store
publishes the admission service is a *pure function* of
``(snapshot, shape)`` for every deterministic verdict, so the frontend
can answer a repeated shape from a cache without touching the solver —
*if and only if* the cache key pins the exact snapshot the verdict was
proven on.

:class:`DecisionCache` therefore keys every entry on
``(epoch, canonical shape)`` where the epoch is the store version.  A
publish bumps
the epoch, so stale entries can never hit; :meth:`invalidate` clears
them eagerly on every observed publish so memory is reclaimed and the
``frontend.cache.invalidations`` counter tracks churn.

Not every decision is replayable.  :func:`cacheable` admits only
**deterministic rejections**:

* an *accept* publishes a new snapshot, which invalidates the very
  epoch it was proven on — by construction an accept entry could never
  be served, so none is stored;
* a *name-dependent* rejection ("already in use", "already touched")
  depends on the one field the shape deliberately ignores — replaying
  it for a same-shaped request under a fresh name would be wrong;
* a *transient* rejection (CAS exhaustion) depends on contention from
  other writers — a fresh attempt on the same snapshot could
  legitimately decide differently;
* a rejection that *climbed a re-solve rung* (an attempt keyed
  ``full`` or ``heuristic``) is name-dependent too: the heuristic
  places streams tightest first and breaks ties on ``(period, e2e)``
  by name, so the same shape under another name can be placed in
  another order and fit.  This rule also covers every rejection whose
  re-solve spent its work budget (restarts or SMT conflicts).

What remains — screening rejects and the constructive rung's conclusive
analytic rejects — is exactly the class for which "cached decision
never disagrees with a fresh :meth:`AdmissionService.submit` on the
same snapshot" holds (the hypothesis property in ``tests/frontend``).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Hashable, Optional, Tuple

from repro.service.admission import RUNG_FULL, RUNG_HEURISTIC
from repro.service.metrics import MetricsRegistry
from repro.service.requests import Decision

__all__ = ["DecisionCache", "cacheable"]

#: Reason substrings that mark a rejection as name-dependent or
#: transient — never replayable for a different request.  Matched
#: against ``Decision.reason`` plus every per-rung attempt detail.
_UNCACHEABLE_MARKERS = (
    "already in use",        # screening: name collision
    "already touched",       # batch-mate name interaction
    "cas_exhausted",         # lost CAS races: contention, not shape
    "rebase",                # ditto
    "server_busy",           # frontend backpressure, never a verdict
)

#: Rungs whose verdict depends on the stream's name (placement order).
_RESOLVE_RUNGS = (RUNG_FULL, RUNG_HEURISTIC)


def cacheable(decision: Decision) -> bool:
    """True when ``decision`` is a deterministic, name-independent
    rejection — the only class the cache may replay."""
    if decision.accepted:
        return False
    if any(rung in _RESOLVE_RUNGS for rung in decision.attempts):
        return False
    texts = [decision.reason or ""]
    texts.extend(decision.attempts.values())
    blob = " ".join(texts)
    return not any(marker in blob for marker in _UNCACHEABLE_MARKERS)


class DecisionCache:
    """Bounded LRU of ``(epoch, shape) -> Decision`` replay entries.

    Single-threaded by design: the frontend consults and fills it from
    the asyncio event loop only, so there is no lock (and nothing to
    rank in :data:`repro.check.locks.LOCK_ORDER`).  ``metrics``
    receives the ``frontend.cache.{hits,misses,invalidations}`` counters
    and the ``frontend.cache.size`` gauge.
    """

    def __init__(
        self,
        capacity: int = 4096,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._capacity = capacity
        self._entries: "OrderedDict[Tuple[Hashable, Hashable], Decision]" = (
            OrderedDict()
        )
        self._metrics = metrics if metrics is not None else MetricsRegistry()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def metrics(self) -> MetricsRegistry:
        return self._metrics

    def lookup(
        self, epoch: Hashable, shape: Hashable
    ) -> Optional[Decision]:
        """The cached decision for ``shape`` at ``epoch``, or ``None``.

        A hit refreshes the entry's LRU position.  The epoch is part of
        the key, so an entry cached on an older snapshot simply misses
        — soundness does not depend on eager invalidation.
        """
        key = (epoch, shape)
        decision = self._entries.get(key)
        if decision is None:
            self._metrics.counter("frontend.cache.misses").inc()
            return None
        self._entries.move_to_end(key)
        self._metrics.counter("frontend.cache.hits").inc()
        return decision

    def store(
        self, epoch: Hashable, shape: Hashable, decision: Decision
    ) -> bool:
        """Remember ``decision`` for ``shape`` at ``epoch``.

        Returns ``False`` (and stores nothing) when the decision is not
        :func:`cacheable`; evicts the least-recently-used entry when
        full.
        """
        if not cacheable(decision):
            return False
        key = (epoch, shape)
        self._entries[key] = decision
        self._entries.move_to_end(key)
        while len(self._entries) > self._capacity:
            self._entries.popitem(last=False)
            self._metrics.counter("frontend.cache.evictions").inc()
        self._metrics.gauge("frontend.cache.size").set(len(self._entries))
        return True

    def invalidate(self) -> int:
        """Drop every entry (a publish moved the epoch); returns the
        number of entries dropped."""
        dropped = len(self._entries)
        self._entries.clear()
        if dropped:
            self._metrics.counter(
                "frontend.cache.invalidations"
            ).inc()
            self._metrics.counter(
                "frontend.cache.entries_dropped"
            ).inc(dropped)
        self._metrics.gauge("frontend.cache.size").set(0)
        return dropped
