"""Frame model tests: (φ, T, L) instances and periodic interval math."""

import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.model.frame import FrameSlot, FrameVar, build_frame_vars
from repro.model.stream import Priorities, Stream
from repro.model.units import milliseconds


class TestFrameVar:
    def test_var_name_unique_per_identity(self):
        a = FrameVar("s1", ("A", "B"), 0, 1000, 10)
        b = FrameVar("s1", ("A", "B"), 1, 1000, 10)
        c = FrameVar("s1", ("B", "C"), 0, 1000, 10)
        assert len({a.var_name, b.var_name, c.var_name}) == 3

    def test_rejects_frame_larger_than_period(self):
        with pytest.raises(ValueError):
            FrameVar("s", ("A", "B"), 0, period_ns=5, duration_ns=10)

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            FrameVar("s", ("A", "B"), -1, 100, 10)

    def test_scheduled_binds_offset(self):
        fv = FrameVar("s", ("A", "B"), 2, 1000, 10, extra=True)
        slot = fv.scheduled(40)
        assert slot.offset_ns == 40
        assert slot.end_ns == 50
        assert slot.extra


class TestFrameSlot:
    def test_occurrences(self):
        slot = FrameSlot("s", ("A", "B"), 0, offset_ns=10, period_ns=100, duration_ns=5)
        assert slot.occurrence(0) == (10, 15)
        assert slot.occurrence(3) == (310, 315)
        assert slot.occurrences_until(250) == [(10, 15), (110, 115), (210, 215)]

    def test_overlaps_same_phase(self):
        a = FrameSlot("a", ("A", "B"), 0, 10, 100, 5)
        b = FrameSlot("b", ("A", "B"), 0, 12, 100, 5)
        assert a.overlaps(b, 100)

    def test_no_overlap_disjoint(self):
        a = FrameSlot("a", ("A", "B"), 0, 10, 100, 5)
        b = FrameSlot("b", ("A", "B"), 0, 20, 100, 5)
        assert not a.overlaps(b, 100)

    def test_overlap_across_periods(self):
        # b at 110 collides with a's second occurrence at 110.
        a = FrameSlot("a", ("A", "B"), 0, 10, 100, 5)
        b = FrameSlot("b", ("A", "B"), 0, 112, 200, 5)
        assert a.overlaps(b, 200)

    def test_rejects_negative_offset(self):
        with pytest.raises(ValueError):
            FrameSlot("s", ("A", "B"), 0, -1, 100, 5)


AB = ("A", "B")


class TestRecordsStayStrict:
    """The records are cheap tuples, but every way in checks them."""

    @pytest.mark.parametrize("build, witness", [
        (lambda: FrameVar("s", AB, -1, 100, 10), "negative frame index"),
        (lambda: FrameVar("s", AB, 0, 100, 0), "duration must be positive"),
        (lambda: FrameVar("s", AB, 0, 100, -5), "duration must be positive"),
        (lambda: FrameVar("s", AB, 0, 5, 10), "cannot fit in period"),
        (lambda: FrameSlot("s", AB, 0, -1, 100, 5), "negative offset"),
        (lambda: FrameSlot("s", AB, 0, 0, 100, 0),
         "duration must be positive"),
        (lambda: FrameVar("s", AB, 0, 100, 10).scheduled(-1),
         "negative offset"),
        (lambda: FrameSlot("s", AB, 0, 0, 100, 5)._replace(offset_ns=-1),
         "negative offset"),
        (lambda: FrameVar("s", AB, 0, 100, 10)._replace(duration_ns=200),
         "cannot fit in period"),
    ])
    def test_every_check_raises(self, build, witness):
        with pytest.raises(ValueError, match=witness):
            build()

    def test_immutable(self):
        slot = FrameSlot("s", AB, 0, 0, 100, 5)
        with pytest.raises(AttributeError):
            slot.offset_ns = 7
        with pytest.raises(AttributeError):
            FrameVar("s", AB, 0, 100, 5).extra = True

    def test_equality_hashing_and_copies(self):
        slot = FrameSlot("s", AB, 1, 20, 100, 5, extra=True)
        twin = FrameSlot(stream="s", link=AB, index=1, offset_ns=20,
                         period_ns=100, duration_ns=5, extra=True)
        assert slot == twin and hash(slot) == hash(twin)
        assert slot != slot._replace(offset_ns=21)
        assert len({slot, twin, slot._replace(offset_ns=21)}) == 2
        for clone in (copy.deepcopy(slot), pickle.loads(pickle.dumps(slot))):
            assert clone == slot and type(clone) is FrameSlot
        assert repr(slot) == (
            "FrameSlot(stream='s', link=('A', 'B'), index=1, offset_ns=20, "
            "period_ns=100, duration_ns=5, extra=True)"
        )


class TestBuildFrameVars:
    def _stream(self, topo, length_bytes):
        return Stream(
            name="s", path=tuple(topo.shortest_path("D1", "D3")),
            e2e_ns=milliseconds(4), priority=Priorities.NSH_PL,
            length_bytes=length_bytes, period_ns=milliseconds(4),
        )

    def test_base_frames(self, star_topology):
        s = self._stream(star_topology, 2 * 1500)
        link = s.path[0]
        frames = build_frame_vars(s, link, 2)
        assert len(frames) == 2
        assert not any(f.extra for f in frames)
        assert all(f.duration_ns == 123_040 for f in frames)

    def test_extra_frames_marked(self, star_topology):
        s = self._stream(star_topology, 1500)
        link = s.path[0]
        frames = build_frame_vars(s, link, 3)
        assert [f.extra for f in frames] == [False, True, True]

    def test_extra_frames_sized_like_largest(self, star_topology):
        s = self._stream(star_topology, 1700)  # 1500 + 200
        link = s.path[0]
        frames = build_frame_vars(s, link, 3)
        assert frames[0].duration_ns == 123_040
        assert frames[1].duration_ns < frames[0].duration_ns  # 200 B + padding
        assert frames[2].duration_ns == 123_040  # extra = max frame

    def test_duration_rounded_to_time_unit(self):
        from repro.model.topology import Topology

        topo = Topology()
        topo.add_switch("SW1")
        topo.add_device("D1")
        topo.add_device("D3")
        topo.add_link("D1", "SW1", time_unit_ns=1000)
        topo.add_link("D3", "SW1", time_unit_ns=1000)
        s = self._stream(topo, 1500)
        frames = build_frame_vars(s, s.path[0], 1)
        assert frames[0].duration_ns == 124_000  # 123_040 ceil to 1 us

    def test_count_below_message_rejected(self, star_topology):
        s = self._stream(star_topology, 2 * 1500)
        with pytest.raises(ValueError):
            build_frame_vars(s, s.path[0], 1)


class TestPeriodicOverlapProperty:
    @given(
        st.integers(min_value=0, max_value=50),
        st.integers(min_value=0, max_value=50),
        st.sampled_from([10, 20, 30, 60]),
        st.sampled_from([10, 20, 30, 60]),
        st.integers(min_value=1, max_value=9),
        st.integers(min_value=1, max_value=9),
    )
    def test_overlaps_matches_brute_force(self, oa, ob, ta, tb, la, lb):
        from math import gcd

        from repro.core.schedule import periodic_overlap

        la = min(la, ta)
        lb = min(lb, tb)
        a = FrameSlot("a", ("A", "B"), 0, oa % ta, ta, la)
        b = FrameSlot("b", ("A", "B"), 0, ob % tb, tb, lb)
        hyper = ta * tb // gcd(ta, tb)
        brute = a.overlaps(b, 2 * hyper)
        fast = periodic_overlap(a.offset_ns, la, ta, b.offset_ns, lb, tb)
        assert brute == fast
