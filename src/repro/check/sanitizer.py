"""Runtime lock-order sanitizer: the dynamic half of ``repro check flow``.

The static analysis in :mod:`repro.check.flow` proves properties of
lock *identities* (class attributes); it cannot see two identities that
alias one runtime object, or an ordering that only materializes under a
particular interleaving.  This module covers that gap at runtime:

* :func:`make_lock` is the factory the runtime's lock owners call.
  With ``REPRO_SANITIZE_LOCKS`` unset (the default, and production) it
  returns a plain ``threading.Lock`` — zero wrapper, zero overhead.
  With the variable set to a non-empty value other than ``0`` it
  returns an :class:`OrderedLock` carrying the same identity name the
  static pass uses (``"ScheduleStore._lock"``), so a runtime violation
  and a static finding talk about the same graph.
* :class:`OrderedLock` keeps a per-thread stack of held sanitized
  locks and a process-wide registry of observed hold-before edges.  It
  raises :class:`LockOrderViolation` — instead of deadlocking — on:

  - re-entrant acquisition of the same (non-reentrant) lock object;
  - an edge inversion: acquiring ``A`` while holding ``B`` after some
    thread was observed acquiring ``B`` while holding ``A``.

Violations are deterministic given the interleaving CI produces, and
the error message quotes both witness sites.  Tests reset the global
edge registry with :func:`reset_observed_edges`.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, List, Optional, Tuple, Union

__all__ = [
    "ENV_VAR",
    "LockOrderViolation",
    "OrderedLock",
    "make_lock",
    "reset_observed_edges",
    "sanitizing",
]

ENV_VAR = "REPRO_SANITIZE_LOCKS"


def sanitizing() -> bool:
    """True when the sanitizer is switched on via the environment."""
    value = os.environ.get(ENV_VAR, "")
    return value not in ("", "0")


class LockOrderViolation(RuntimeError):
    """An acquisition that could deadlock under another interleaving."""


class _Registry:
    """Process-wide observed hold-before edges between lock names."""

    def __init__(self) -> None:
        self._guard = threading.Lock()
        # (held_name, acquired_name) -> human-readable witness
        self.edges: Dict[Tuple[str, str], str] = {}

    def observe(self, held: str, acquired: str, witness: str) -> Optional[str]:
        """Record ``held -> acquired``; return the reverse witness if any."""
        with self._guard:
            self.edges.setdefault((held, acquired), witness)
            return self.edges.get((acquired, held))

    def reset(self) -> None:
        with self._guard:
            self.edges.clear()


_registry = _Registry()
_held = threading.local()


def reset_observed_edges() -> None:
    """Forget all observed edges (between tests)."""
    _registry.reset()


def _stack() -> List["OrderedLock"]:
    stack = getattr(_held, "stack", None)
    if stack is None:
        stack = _held.stack = []
    return stack


class OrderedLock:
    """A ``threading.Lock`` that refuses to be part of a deadlock.

    ``name`` is the static lock identity (``"ScheduleStore._lock"``);
    several instances may share one name — edges are tracked per name,
    matching the static analysis' per-class-attribute granularity.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._inner = threading.Lock()

    def __repr__(self) -> str:
        return f"<OrderedLock {self.name} at {id(self):#x}>"

    # -- checking -------------------------------------------------------
    def _check(self) -> None:
        stack = _stack()
        thread = threading.current_thread().name
        if any(held is self for held in stack):
            raise LockOrderViolation(
                f"re-entrant acquisition of {self.name} in thread "
                f"{thread}: this lock object is already held and is "
                f"not reentrant — the thread would deadlock on itself"
            )
        for held in stack:
            if held.name == self.name:
                continue
            witness = (
                f"thread {thread} acquired {self.name} while holding "
                f"{held.name}"
            )
            reverse = _registry.observe(held.name, self.name, witness)
            if reverse is not None:
                raise LockOrderViolation(
                    f"lock-order inversion between {held.name} and "
                    f"{self.name}: {witness}, but earlier {reverse}; "
                    f"these two orders can deadlock"
                )

    # -- lock protocol --------------------------------------------------
    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        self._check()
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            _stack().append(self)
        return acquired

    def release(self) -> None:
        stack = _stack()
        # remove the most recent entry for this object; out-of-LIFO
        # release is legal for threading.Lock, so only membership is
        # enforced
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] is self:
                del stack[index]
                break
        self._inner.release()

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc) -> None:
        self.release()


def make_lock(name: str) -> Union[threading.Lock, OrderedLock]:
    """A lock named for the sanitizer, or a plain one when it is off.

    The environment is consulted at *creation* time: set
    ``REPRO_SANITIZE_LOCKS=1`` before constructing the objects under
    test.  When unset this returns a bare ``threading.Lock`` — no
    wrapper object, no per-acquisition bookkeeping, nothing to measure.
    """
    if sanitizing():
        return OrderedLock(name)
    return threading.Lock()
