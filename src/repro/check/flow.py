"""Interprocedural lock-order analysis: deadlocks as graph cycles.

Built on the :mod:`repro.check.callgraph` program scan, this pass
computes the **may-hold-before** relation: an edge ``A -> B`` means some
call chain acquires lock ``B`` while lock ``A`` is held — directly
(``with self._lock:`` wrapping another acquisition) or through any
number of resolved calls (``coordinator holds shard.lock -> service.
submit_many -> store.publish -> ScheduleStore._lock``).  Locks are
identified per class attribute (``ScheduleStore._lock``), the same
granularity the runtime sanitizer (:mod:`repro.check.sanitizer`)
groups by, so the static graph and the dynamic checker cross-validate.

Findings:

``lock-order``
    A cycle in the may-hold-before graph — two call chains that acquire
    the same locks in opposite orders can deadlock.  The finding quotes
    one witness call chain per edge of the cycle.

``lock-reentrant``
    The same lock identity acquired while already held: a second
    ``with self._lock:`` reached through a call chain (an A→B→A
    re-acquisition self-deadlocks a non-reentrant ``threading.Lock``),
    or a bare ``.acquire()`` in a loop that piles up instances of one
    lock class.  The loop form is *allowed* when the iteration is
    provably ordered — ``for name in sorted(...):``, or a walk over an
    attribute assigned from ``sorted(...)`` — which turns the cluster
    coordinator's sorted-shard-locks discipline from a comment into a
    checked invariant; such sites are reported in
    :attr:`FlowReport.ordered_sites`, not as findings.

Suppress a finding by appending ``# repro: flow-ok[rule]`` (or a bare
``# repro: flow-ok``) to the line the finding anchors on — the
acquisition or call site that creates the offending edge.

Known limitations (by design, conservative in the silent direction):
unresolved calls contribute no edges; two static identities that alias
the same runtime lock object (e.g. a lock passed across an API
boundary under a new field name) are not unified — the runtime
sanitizer tracks actual objects and covers exactly that gap.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.check.callgraph import (
    Acquisition,
    FunctionSummary,
    Program,
    build_program,
)

RULE_LOCK_ORDER = "lock-order"
RULE_LOCK_REENTRANT = "lock-reentrant"

FLOW_RULES: Tuple[str, ...] = (RULE_LOCK_ORDER, RULE_LOCK_REENTRANT)

_SUPPRESS = re.compile(r"repro:\s*flow-ok(?:\[([a-z\-, ]+)\])?")

#: Call-chain depth bound; deeper lock trails are ignored (and counted
#: in the report) rather than risking exponential walks.
MAX_DEPTH = 24


@dataclass(frozen=True)
class Frame:
    """One step of a witness chain."""

    function: str
    path: str
    line: int

    def render(self) -> str:
        return f"{self.function} ({self.path}:{self.line})"


@dataclass(frozen=True)
class LockEdge:
    """``held`` may be held when ``acquired`` is acquired.

    ``chain`` walks from the function that already holds ``held`` down
    to the statement that takes ``acquired``; ``origin`` is the first
    frame — the acquisition or call site a suppression comment must
    annotate.
    """

    held: str
    acquired: str
    chain: Tuple[Frame, ...]

    @property
    def origin(self) -> Frame:
        return self.chain[0]

    def render(self) -> str:
        steps = " -> ".join(frame.render() for frame in self.chain)
        return f"{short(self.held)} -> {short(self.acquired)} via {steps}"

    def to_dict(self) -> Dict:
        return {
            "held": self.held,
            "acquired": self.acquired,
            "chain": [
                {"function": f.function, "path": f.path, "line": f.line}
                for f in self.chain
            ],
        }


@dataclass(frozen=True)
class FlowFinding:
    """One lock-order or reentrancy defect, with witnesses."""

    rule: str
    path: str
    line: int
    message: str
    locks: Tuple[str, ...]
    witnesses: Tuple[LockEdge, ...]

    def render(self) -> str:
        lines = [f"{self.path}:{self.line}: [{self.rule}] {self.message}"]
        for edge in self.witnesses:
            lines.append(f"    {edge.render()}")
        return "\n".join(lines)

    def to_dict(self) -> Dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "locks": list(self.locks),
            "witnesses": [edge.to_dict() for edge in self.witnesses],
        }


@dataclass
class FlowReport:
    """Everything the analysis learned, findings and clean facts alike."""

    findings: List[FlowFinding] = field(default_factory=list)
    edges: List[LockEdge] = field(default_factory=list)
    #: same-identity loop acquisitions proven deterministically ordered
    #: (checked invariants, not findings).
    ordered_sites: List[Frame] = field(default_factory=list)
    functions_analyzed: int = 0
    locks_seen: List[str] = field(default_factory=list)
    truncated_chains: int = 0

    def to_dict(self) -> Dict:
        return {
            "findings": [f.to_dict() for f in self.findings],
            "edges": [e.to_dict() for e in self.edges],
            "ordered_sites": [
                {"function": f.function, "path": f.path, "line": f.line}
                for f in self.ordered_sites
            ],
            "functions_analyzed": self.functions_analyzed,
            "locks_seen": self.locks_seen,
            "truncated_chains": self.truncated_chains,
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def short(lock_id: str) -> str:
    """``repro.service.store.ScheduleStore._lock`` -> ``ScheduleStore._lock``."""
    parts = lock_id.rsplit(".", 2)
    return ".".join(parts[-2:]) if len(parts) >= 2 else lock_id


def analyze_flow(paths: Iterable[str]) -> FlowReport:
    """Run the whole-program lock-order analysis over ``paths``."""
    program = build_program(paths)
    return analyze_program(program)


def analyze_program(program: Program) -> FlowReport:
    report = FlowReport(functions_analyzed=len(program.summaries))
    closure = _TransitiveAcquires(program, report)
    edges: Dict[Tuple[str, str], LockEdge] = {}
    reentrant: Dict[Tuple[str, int], FlowFinding] = {}
    locks_seen: Set[str] = set()

    for summary in program.summaries.values():
        for acq in summary.acquisitions:
            locks_seen.add(acq.lock)
            frame = Frame(summary.qualname, summary.path, acq.line)
            for held in acq.held:
                _note_edge(edges, held, acq.lock, (frame,))
                if held == acq.lock:
                    _note_reentrant(
                        reentrant, program, acq.lock, (frame,),
                        through="a nested acquisition",
                    )
            if acq.accumulates:
                # one instance per loop iteration: a same-identity
                # self-edge unless the iteration order is deterministic
                if acq.ordered:
                    report.ordered_sites.append(frame)
                else:
                    _note_reentrant(
                        reentrant, program, acq.lock, (frame,),
                        through=(
                            "a loop acquiring one instance per iteration "
                            "in unspecified order"
                        ),
                    )
        for call in summary.calls:
            if not call.held:
                continue
            trails = closure.acquires(call.callee)
            if not trails:
                continue
            frame = Frame(summary.qualname, summary.path, call.line)
            for lock, trail in trails.items():
                chain = (frame,) + trail
                for held in call.held:
                    _note_edge(edges, held, lock, chain)
                    if held == lock:
                        _note_reentrant(
                            reentrant, program, lock, chain,
                            through="a call chain re-acquiring it",
                        )

    report.edges = sorted(
        edges.values(), key=lambda e: (e.held, e.acquired)
    )
    report.locks_seen = sorted(locks_seen)
    findings = list(reentrant.values())
    findings.extend(_cycle_findings(edges))
    findings = [f for f in findings if not _suppressed(f, program)]
    findings.sort(key=lambda f: (f.rule, f.path, f.line))
    report.findings = findings
    report.ordered_sites.sort(key=lambda f: (f.path, f.line))
    return report


def _note_edge(
    edges: Dict[Tuple[str, str], LockEdge],
    held: str,
    acquired: str,
    chain: Tuple[Frame, ...],
) -> None:
    if held == acquired:
        return  # self-edges are the reentrancy rule's business
    key = (held, acquired)
    existing = edges.get(key)
    if existing is None or len(chain) < len(existing.chain):
        edges[key] = LockEdge(held=held, acquired=acquired, chain=chain)


def _note_reentrant(
    findings: Dict[Tuple[str, int], FlowFinding],
    program: Program,
    lock: str,
    chain: Tuple[Frame, ...],
    through: str,
) -> None:
    origin = chain[0]
    key = (origin.path, origin.line)
    if key in findings:
        return
    edge = LockEdge(held=lock, acquired=lock, chain=chain)
    findings[key] = FlowFinding(
        rule=RULE_LOCK_REENTRANT,
        path=origin.path,
        line=origin.line,
        message=(
            f"{short(lock)} acquired while already held, through "
            f"{through}; a non-reentrant Lock self-deadlocks (order "
            f"instances deterministically, or restructure)"
        ),
        locks=(lock,),
        witnesses=(edge,),
    )


def _cycle_findings(
    edges: Dict[Tuple[str, str], LockEdge]
) -> List[FlowFinding]:
    """One finding per strongly-connected component of 2+ locks."""
    graph: Dict[str, Set[str]] = {}
    for held, acquired in edges:
        graph.setdefault(held, set()).add(acquired)
        graph.setdefault(acquired, set())
    findings = []
    for component in _tarjan(graph):
        if len(component) < 2:
            continue
        members = set(component)
        cycle_edges = _witness_cycle(component, edges, members)
        origin = cycle_edges[0].origin
        ordering = " -> ".join(short(lock) for lock in component)
        findings.append(FlowFinding(
            rule=RULE_LOCK_ORDER,
            path=origin.path,
            line=origin.line,
            message=(
                f"potential deadlock: locks {{{ordering}}} form a cycle "
                f"in the may-hold-before relation; impose one global "
                f"acquisition order"
            ),
            locks=tuple(component),
            witnesses=tuple(cycle_edges),
        ))
    return findings


def _witness_cycle(
    component: Sequence[str],
    edges: Dict[Tuple[str, str], LockEdge],
    members: Set[str],
) -> List[LockEdge]:
    """Edges forming one concrete cycle through the component."""
    start = component[0]
    # walk greedily inside the SCC until we loop back to the start
    path: List[LockEdge] = []
    seen: Set[str] = set()
    node = start
    while node not in seen:
        seen.add(node)
        candidates = sorted(
            acquired for (held, acquired) in edges
            if held == node and acquired in members
        )
        # prefer closing the cycle, then unvisited nodes
        nxt = None
        if start in candidates and path:
            nxt = start
        else:
            nxt = next(
                (c for c in candidates if c not in seen), None
            ) or (candidates[0] if candidates else None)
        if nxt is None:
            break
        path.append(edges[(node, nxt)])
        if nxt == start:
            return path
        node = nxt
    # fell off (shouldn't happen in an SCC); return whatever we walked
    return path or [
        edge for key, edge in sorted(edges.items())
        if key[0] in members and key[1] in members
    ][:1]


def _tarjan(graph: Dict[str, Set[str]]) -> List[List[str]]:
    """Strongly connected components, each sorted, deterministic order."""
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    components: List[List[str]] = []
    counter = [0]

    def strongconnect(node: str) -> None:
        work = [(node, iter(sorted(graph.get(node, ()))))]
        index[node] = low[node] = counter[0]
        counter[0] += 1
        stack.append(node)
        on_stack.add(node)
        while work:
            current, successors = work[-1]
            advanced = False
            for succ in successors:
                if succ not in index:
                    index[succ] = low[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(graph.get(succ, ())))))
                    advanced = True
                    break
                if succ in on_stack:
                    low[current] = min(low[current], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[current])
            if low[current] == index[current]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == current:
                        break
                components.append(sorted(component))

    for node in sorted(graph):
        if node not in index:
            strongconnect(node)
    return components


class _TransitiveAcquires:
    """Memoized ``function -> {lock: shortest witness trail}`` closure."""

    def __init__(self, program: Program, report: FlowReport) -> None:
        self._program = program
        self._report = report
        self._cache: Dict[str, Dict[str, Tuple[Frame, ...]]] = {}
        self._in_progress: Set[str] = set()

    def acquires(
        self, qualname: str, depth: int = 0
    ) -> Dict[str, Tuple[Frame, ...]]:
        if qualname in self._cache:
            return self._cache[qualname]
        if qualname in self._in_progress:
            return {}  # recursion: the outer frame owns the result
        summary = self._program.summaries.get(qualname)
        if summary is None:
            # calling a class = running its __init__
            init = f"{qualname}.__init__"
            if qualname in self._program.classes and (
                init in self._program.summaries
            ):
                return self.acquires(init, depth)
            return {}
        if depth > MAX_DEPTH:
            self._report.truncated_chains += 1
            return {}
        self._in_progress.add(qualname)
        try:
            trails: Dict[str, Tuple[Frame, ...]] = {}
            for acq in summary.acquisitions:
                frame = Frame(summary.qualname, summary.path, acq.line)
                trail = (frame,)
                best = trails.get(acq.lock)
                if best is None or len(trail) < len(best):
                    trails[acq.lock] = trail
            for call in summary.calls:
                nested = self.acquires(call.callee, depth + 1)
                if not nested:
                    continue
                frame = Frame(summary.qualname, summary.path, call.line)
                for lock, trail in nested.items():
                    candidate = (frame,) + trail
                    best = trails.get(lock)
                    if best is None or len(candidate) < len(best):
                        trails[lock] = candidate
            self._cache[qualname] = trails
            return trails
        finally:
            self._in_progress.discard(qualname)


def _suppressed(finding: FlowFinding, program: Program) -> bool:
    line = program.source_line(finding.path, finding.line)
    match = _SUPPRESS.search(line)
    if match is None:
        return False
    listed = match.group(1)
    if listed is None:
        return True
    return finding.rule in {name.strip() for name in listed.split(",")}
