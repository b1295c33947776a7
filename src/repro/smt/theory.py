"""Incremental difference-logic theory solver.

A conjunction of difference constraints ``x - y <= c`` is satisfiable iff
the constraint graph — an edge ``y -> x`` of weight ``c`` per constraint —
has no negative cycle.  This solver maintains a *feasible potential*
``pi`` (``pi[x] - pi[y] <= c`` for every asserted edge) and repairs it
incrementally on each assertion, in the style of Cotton & Maler (2006):

* If the new edge is already satisfied by ``pi``, accept in O(1).
* Otherwise run a label-correcting relaxation rooted at the edge's head.
  If the relaxation wraps around to the edge's tail, the new edge closes
  a negative cycle; the asserted constraints along that cycle form the
  theory conflict.  Otherwise the improved labels become the new ``pi``.

Assertions are tagged with an opaque token (the SAT literal) so conflicts
can be reported in terms the CDCL core understands, and are popped in LIFO
order on backtracking.  Removing constraints never invalidates ``pi``, so
backtracking is O(edges popped).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional

from repro.smt.terms import ZERO, Atom


class _Edge:
    """One asserted constraint: ``pi[head] - pi[tail] <= weight``."""

    __slots__ = ("tail", "head", "weight", "token")

    def __init__(self, tail: str, head: str, weight: int, token: Hashable) -> None:
        self.tail = tail
        self.head = head
        self.weight = weight
        self.token = token


class DifferenceLogic:
    """Incremental negative-cycle detector over difference constraints."""

    def __init__(self) -> None:
        self._pi: Dict[str, int] = {ZERO: 0}
        self._edges: List[_Edge] = []
        self._out: Dict[str, List[_Edge]] = {ZERO: []}
        #: Witness of the most recent conflict: the atoms ``x - y <= c``
        #: whose edges form the negative cycle, in cycle order (each
        #: edge's head is the next edge's tail).  Read by proof logging.
        self.last_conflict_cycle: Optional[List[Atom]] = None

    # ------------------------------------------------------------------
    def _ensure(self, name: str) -> None:
        if name not in self._pi:
            self._pi[name] = 0
            self._out[name] = []

    @property
    def num_asserted(self) -> int:
        """Current assertion-stack depth (for backtracking bookkeeping)."""
        return len(self._edges)

    def assert_atom(self, atom: Atom, token: Hashable) -> Optional[List[Hashable]]:
        """Assert ``atom``; return a conflict token list or ``None``.

        The conflict is the set of tokens (including ``token``) whose
        constraints form a negative cycle; the caller must not leave the
        solver in the conflicting state — the offending edge is *not*
        recorded when a conflict is returned.
        """
        pi = self._pi
        if atom.x not in pi or atom.y not in pi:  # first sight of a name
            self._ensure(atom.x)
            self._ensure(atom.y)
        # x - y <= c  ==>  edge  y -> x  weight c
        edge = _Edge(atom.y, atom.x, atom.c, token)
        if pi[edge.head] - pi[edge.tail] <= edge.weight:
            self._record(edge)
            return None

        # Repair potentials: propose pi'[head] = pi[tail] + weight and relax.
        improved: Dict[str, int] = {edge.head: pi[edge.tail] + edge.weight}
        parent: Dict[str, _Edge] = {edge.head: edge}
        queue: List[str] = [edge.head]
        while queue:
            u = queue.pop()
            du = improved[u]
            if du >= pi[u]:
                continue  # a later relaxation already made this label stale
            for out_edge in self._out[u]:
                v = out_edge.head
                candidate = du + out_edge.weight
                if candidate < improved.get(v, pi[v]):
                    if v == edge.tail:
                        # Relaxing the new edge's tail closes a negative
                        # cycle: tail -> ... -> u -> v(=tail).
                        return self._extract_conflict(parent, out_edge, edge)
                    improved[v] = candidate
                    parent[v] = out_edge
                    queue.append(v)
        for name, value in improved.items():
            if value < pi[name]:
                pi[name] = value
        self._record(edge)
        return None

    def _record(self, edge: _Edge) -> None:
        self._edges.append(edge)
        self._out[edge.tail].append(edge)

    def _extract_conflict(
        self, parent: Dict[str, _Edge], closing: _Edge, new_edge: _Edge
    ) -> List[Hashable]:
        """Walk parent pointers from the closing edge back to the new edge."""
        edges = [closing]
        node = closing.tail
        while True:
            step = parent[node]
            edges.append(step)
            if step is new_edge:
                break
            node = step.tail
        # Parent-walk order is backwards; reversed, the edges chain
        # new_edge -> ... -> closing with the closing edge returning to
        # the new edge's tail — the witness a proof checker can sum.
        edges.reverse()
        self.last_conflict_cycle = [
            Atom(e.head, e.tail, e.weight) for e in edges
        ]
        return [e.token for e in edges]

    def backtrack_to(self, depth: int) -> None:
        """Pop assertions until the stack is ``depth`` entries deep."""
        if depth < 0 or depth > len(self._edges):
            raise ValueError(f"bad backtrack depth {depth}")
        while len(self._edges) > depth:
            edge = self._edges.pop()
            popped = self._out[edge.tail].pop()
            assert popped is edge, "assertion stack out of sync"

    # ------------------------------------------------------------------
    def model(self) -> Dict[str, int]:
        """A satisfying integer assignment (``ZERO`` maps to 0).

        Valid only while the asserted set is consistent.  Values are
        ``pi[x] - pi[ZERO]``; every asserted ``x - y <= c`` holds because
        the potential is feasible.
        """
        base = self._pi[ZERO]
        return {name: value - base for name, value in self._pi.items() if name != ZERO}

    def check_full(self) -> bool:
        """Ground-truth consistency check by Bellman-Ford (for tests)."""
        names = list(self._pi)
        dist = {name: 0 for name in names}
        for _ in range(len(names)):
            changed = False
            for edge in self._edges:
                candidate = dist[edge.tail] + edge.weight
                if candidate < dist[edge.head]:
                    dist[edge.head] = candidate
                    changed = True
            if not changed:
                return True
        return False
