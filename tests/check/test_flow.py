"""Lock-order analysis: fixture expectations, witness chains, the
sorted-loop checked invariant, suppressions, and the acceptance gate
that the shipped tree itself is clean."""

import json
from pathlib import Path

from repro.check.flow import FLOW_RULES, analyze_flow

FIXTURES = Path(__file__).parent / "fixtures" / "flow"


def _rules(report):
    return [f.rule for f in report.findings]


class TestThreeLockCycle:
    def test_cycle_reported_across_module_pair(self):
        report = analyze_flow([
            str(FIXTURES / "cycle_a.py"), str(FIXTURES / "cycle_b.py"),
        ])
        cycles = [f for f in report.findings if f.rule == "lock-order"]
        assert len(cycles) == 1
        finding = cycles[0]
        assert set(finding.locks) == {
            "cycle_a.Alpha._lock", "cycle_a.Beta._lock",
            "cycle_b.Gamma._lock",
        }
        # one witness edge per lock of the cycle, each with a chain
        assert len(finding.witnesses) == 3
        covered = {(w.held, w.acquired) for w in finding.witnesses}
        assert ("cycle_a.Alpha._lock", "cycle_a.Beta._lock") in covered
        assert ("cycle_b.Gamma._lock", "cycle_a.Alpha._lock") in covered

    def test_witness_chain_names_real_call_path(self):
        report = analyze_flow([
            str(FIXTURES / "cycle_a.py"), str(FIXTURES / "cycle_b.py"),
        ])
        finding = [f for f in report.findings if f.rule == "lock-order"][0]
        edge = {
            (w.held, w.acquired): w for w in finding.witnesses
        }[("cycle_a.Alpha._lock", "cycle_a.Beta._lock")]
        assert [frame.function for frame in edge.chain] == [
            "cycle_a.Alpha.forward", "cycle_a.Beta.middle",
        ]

    def test_half_of_the_cycle_alone_is_clean(self):
        # without cycle_b's backward() closing the loop there is no
        # cycle to report (cycle_a still calls into the unresolved
        # import, which contributes nothing — conservative silence)
        report = analyze_flow([str(FIXTURES / "cycle_a.py")])
        assert [f for f in report.findings if f.rule == "lock-order"] == []


class TestReentrant:
    def test_a_b_a_chain_flagged(self):
        report = analyze_flow([str(FIXTURES / "reentrant.py")])
        assert _rules(report) == ["lock-reentrant"]
        finding = report.findings[0]
        assert finding.locks == ("reentrant.Outer._lock",)
        chain = [f.function for f in finding.witnesses[0].chain]
        assert chain == [
            "reentrant.Outer.enter", "reentrant.Inner.work",
            "reentrant.Outer.reenter",
        ]

    def test_finding_anchors_on_the_holding_site(self):
        report = analyze_flow([str(FIXTURES / "reentrant.py")])
        finding = report.findings[0]
        source = (FIXTURES / "reentrant.py").read_text().splitlines()
        assert "self.inner.work()" in source[finding.line - 1]


class TestSortedLoopInvariant:
    def test_sorted_commit_is_a_checked_ordered_site(self):
        report = analyze_flow([str(FIXTURES / "commit_loop.py")])
        assert len(report.ordered_sites) == 1
        assert report.ordered_sites[0].function == (
            "commit_loop.SortedCommit.commit"
        )

    def test_unsorted_commit_is_flagged(self):
        report = analyze_flow([str(FIXTURES / "commit_loop.py")])
        assert _rules(report) == ["lock-reentrant"]
        assert report.findings[0].witnesses[0].chain[0].function == (
            "commit_loop.UnsortedCommit.commit"
        )
        assert "unspecified order" in report.findings[0].message


class TestCleanFixture:
    def test_clean_module_has_zero_findings(self):
        report = analyze_flow([str(FIXTURES / "clean.py")])
        assert report.findings == []
        # the consistent root -> leaf order is still *seen* as an edge
        assert [(e.held, e.acquired) for e in report.edges] == [
            ("clean.Root._lock", "clean.Leaf._lock"),
        ]


class TestSuppressions:
    def _write(self, tmp_path, mark):
        source = (
            "import threading\n"
            "from typing import Optional\n"
            "class A:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self.b: Optional['B'] = None\n"
            "    def step(self):\n"
            "        with self._lock:\n"
            f"            self.b.poke(){mark}\n"
            "class B:\n"
            "    def __init__(self, a: 'A'):\n"
            "        self._lock = threading.Lock()\n"
            "        self.a = a\n"
            "    def poke(self):\n"
            "        with self._lock:\n"
            "            pass\n"
            "    def reverse(self):\n"
            "        with self._lock:\n"
            "            self.a.step()\n"
        )
        path = tmp_path / "inversion.py"
        path.write_text(source)
        return str(path)

    def test_unsuppressed_inversion_found(self, tmp_path):
        report = analyze_flow([self._write(tmp_path, "")])
        assert "lock-order" in _rules(report)

    def test_flow_ok_on_origin_line_suppresses(self, tmp_path):
        path = self._write(tmp_path, "  # repro: flow-ok[lock-order]")
        report = analyze_flow([path])
        assert "lock-order" not in _rules(report)

    def test_blanket_flow_ok_suppresses(self, tmp_path):
        path = self._write(tmp_path, "  # repro: flow-ok")
        report = analyze_flow([path])
        assert "lock-order" not in _rules(report)

    def test_flow_ok_for_other_rule_does_not_apply(self, tmp_path):
        path = self._write(tmp_path, "  # repro: flow-ok[lock-reentrant]")
        report = analyze_flow([path])
        assert "lock-order" in _rules(report)


class TestReport:
    def test_json_round_trip(self):
        report = analyze_flow([
            str(FIXTURES / "cycle_a.py"), str(FIXTURES / "cycle_b.py"),
        ])
        data = json.loads(report.to_json())
        assert data["findings"][0]["rule"] in FLOW_RULES
        assert data["findings"][0]["witnesses"][0]["chain"][0]["function"]
        assert data["functions_analyzed"] == report.functions_analyzed

    def test_edges_are_deduplicated_to_shortest_witness(self):
        report = analyze_flow(["src/repro"])
        seen = set()
        for edge in report.edges:
            assert (edge.held, edge.acquired) not in seen
            seen.add((edge.held, edge.acquired))


def test_shipped_tree_is_clean():
    report = analyze_flow(["src/repro"])
    assert report.findings == []
    assert report.truncated_chains == 0


def test_shipped_tree_lock_hierarchy_is_what_we_designed():
    """The may-hold-before graph on src is the documented hierarchy:
    the service's write lock above the store lock above leaf instrument
    locks.  The cluster coordinator holds no lock of its own, so no
    lock is ever taken above the write lock and no ordered site is
    left to check."""
    report = analyze_flow(["src/repro"])
    edges = {(e.held.rsplit(".", 2)[-2] + "." + e.held.rsplit(".", 1)[-1],
              e.acquired.rsplit(".", 2)[-2] + "." +
              e.acquired.rsplit(".", 1)[-1])
             for e in report.edges}
    assert ("AdmissionService._write_lock", "ScheduleStore._lock") in edges
    assert ("ScheduleStore._lock", "Gauge._lock") in edges
    assert ("ScheduleStore._lock", "Counter._lock") in edges
    holders = {held for held, _ in edges}
    assert holders == {"AdmissionService._write_lock", "ScheduleStore._lock"}
    assert not any(acquired == "AdmissionService._write_lock"
                   for _, acquired in edges)
    assert report.ordered_sites == []
