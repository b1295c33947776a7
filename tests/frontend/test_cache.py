"""DecisionCache: epoch-pinned replay, LRU bounds, cacheability rules."""

import pytest

from repro.frontend import protocol
from repro.frontend.cache import DecisionCache, cacheable
from repro.model.stream import TctRequirement
from repro.service import AdmitTct, MetricsRegistry, canonical_shape
from repro.service.requests import Decision


def _reject(reason, attempts=None, request_id=1):
    return Decision(
        request_id=request_id, op="admit-tct", stream="s",
        accepted=False, reason=reason, attempts=attempts or {},
    )


def _accept(request_id=1):
    return Decision(
        request_id=request_id, op="admit-tct", stream="s",
        accepted=True, rung="fastpath", store_version=2,
    )


DETERMINISTIC = _reject(
    "e2e-floor: s needs at least 246960 ns of wire time over 2 hops "
    "but the budget is 1 ns"
)

SPENT = ("SMT scheduler: no verdict for 16 streams (1416 clauses); "
         "the budget of 1000 conflicts ran out")


class TestCacheable:
    def test_deterministic_rejection_is_cacheable(self):
        assert cacheable(DETERMINISTIC)

    def test_accept_is_never_cacheable(self):
        # an accept publishes, which invalidates its own epoch: a
        # cached accept could never legally be served
        assert not cacheable(_accept())

    def test_name_dependent_rejections_are_not_cacheable(self):
        assert not cacheable(_reject("stream name 's' already in use"))
        assert not cacheable(_reject(
            "stream 's' already touched by this batch"
        ))

    def test_transient_rejections_are_not_cacheable(self):
        # a spent work budget is deterministic, but only a re-solve rung
        # has one, and a reject that climbed there is name-dependent
        assert not cacheable(_reject(
            f"all ladder rungs failed (full: {SPENT})", {"full": SPENT}
        ))
        assert not cacheable(_reject("cas_exhausted"))

    def test_rejects_that_climbed_a_resolve_rung_are_not_cacheable(self):
        # the re-solve places streams in (period, e2e, name) order: the
        # same shape under another name can fit (test_ladder_equivalence
        # replays one such reject from the saturating ladder script)
        infeasible = ("heuristic scheduler: could not place all 9 streams; "
                      "the budget of 22 restarts ran out (last failure: …)")
        for attempts in (
            {"fastpath": "constructive placement failed: …",
             "full": infeasible},
            {"full": infeasible, "heuristic": infeasible},
            {"heuristic": infeasible},
            {"full": infeasible},
        ):
            assert not cacheable(_reject(
                f"all ladder rungs failed ({infeasible})", attempts
            ))

    def test_screening_and_conclusive_analytic_rejects_stay_cacheable(self):
        assert cacheable(_reject(
            DETERMINISTIC.reason, {"fastpath": DETERMINISTIC.reason}
        ))
        assert cacheable(_reject(
            "link-capacity: deterministic streams alone need 1.2x of "
            "link <SW1,D3>",
            {"fastpath": "constructive placement failed: …"},
        ))
        assert cacheable(_reject(
            "unroutable request: no path", {"screen": "s: no path"}
        ))

    def test_attempt_details_are_checked_too(self):
        # the headline reason looks deterministic but a rung attempt
        # shows the climb reached a name-dependent re-solve
        poisoned = _reject("all ladder rungs failed", attempts={"full": SPENT})
        assert not cacheable(poisoned)


class TestDecisionCache:
    def test_store_then_lookup_roundtrip(self):
        cache = DecisionCache(capacity=8)
        assert cache.store(3, ("shape",), DETERMINISTIC)
        assert cache.lookup(3, ("shape",)) is DETERMINISTIC

    def test_lookup_misses_across_epochs(self):
        # soundness by construction: the epoch is part of the key, so
        # an entry proven on version 3 cannot hit at version 4
        cache = DecisionCache(capacity=8)
        cache.store(3, ("shape",), DETERMINISTIC)
        assert cache.lookup(4, ("shape",)) is None

    def test_uncacheable_decisions_are_refused(self):
        cache = DecisionCache(capacity=8)
        assert not cache.store(3, ("shape",), _accept())
        assert cache.lookup(3, ("shape",)) is None
        assert len(cache) == 0

    def test_invalidate_drops_everything_and_counts(self):
        metrics = MetricsRegistry()
        cache = DecisionCache(capacity=8, metrics=metrics)
        cache.store(3, ("a",), DETERMINISTIC)
        cache.store(3, ("b",), DETERMINISTIC)
        assert cache.invalidate() == 2
        assert len(cache) == 0
        assert cache.lookup(3, ("a",)) is None
        counters = metrics.counters_with_prefix("frontend.cache")
        assert counters["invalidations"] == 1
        assert counters["entries_dropped"] == 2

    def test_lru_eviction_is_bounded_and_keeps_the_hot_entry(self):
        metrics = MetricsRegistry()
        cache = DecisionCache(capacity=2, metrics=metrics)
        cache.store(1, ("a",), DETERMINISTIC)
        cache.store(1, ("b",), DETERMINISTIC)
        assert cache.lookup(1, ("a",)) is not None  # refresh "a"
        cache.store(1, ("c",), DETERMINISTIC)       # evicts "b"
        assert cache.lookup(1, ("b",)) is None
        assert cache.lookup(1, ("a",)) is not None
        assert len(cache) == 2
        assert metrics.counters_with_prefix("frontend.cache")["evictions"] == 1

    def test_hit_and_miss_counters(self):
        metrics = MetricsRegistry()
        cache = DecisionCache(capacity=8, metrics=metrics)
        cache.store(1, ("a",), DETERMINISTIC)
        cache.lookup(1, ("a",))
        cache.lookup(1, ("ghost",))
        counters = metrics.counters_with_prefix("frontend.cache")
        assert counters["hits"] == 1
        assert counters["misses"] == 1


@pytest.mark.xfail(strict=True, reason=(
    "a cache hit replays the first requester's decision as it is: its "
    "stream, request_id, batch_id and reason text; fixed once reasons "
    "are structured witnesses that render per name"
))
def test_a_cache_hit_answers_with_the_requesters_identity():
    def admit(name):
        return AdmitTct(TctRequirement(
            name=name, source="D1", destination="D4",
            period_ns=1_000_000, length_bytes=1500, e2e_ns=1,
        ))

    first, second = admit("first"), admit("second")
    assert canonical_shape(first) == canonical_shape(second)
    cache = DecisionCache(capacity=8)
    assert cache.store(1, canonical_shape(first), Decision(
        request_id=7, op="admit-tct", stream="first", accepted=False,
        reason=(
            "e2e-floor: first needs at least 246960 ns of wire time over "
            "2 hops but the budget is 1 ns"
        ),
        batch_id=3,
    ))
    hit = cache.lookup(1, canonical_shape(second))
    assert hit is not None
    replay = protocol.decode_response(
        protocol.encode_decision(hit, request_id="second-wire-id", cached=True)
    )["decision"]
    assert replay["stream"] == "second"
    assert replay["request_id"] != 7
    assert replay["batch_id"] != 3
    assert replay["reason"].startswith("e2e-floor: second needs")
