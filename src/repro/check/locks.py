"""The admission plane's lock order, declared once and checked on every
acquire.

Two locks are ever held while another is taken: the service's write
lock and, under it, the store's lock.  :data:`LOCK_ORDER` lists them
outermost first.  Every other name is a *leaf*: it ranks last, so it may
be taken under anything but nothing ordered may be taken under it.

:class:`OrderedLock` is the only lock class on the ranked locks, and the
check is always on.  A thread may take an ordered lock only when its
rank is above that of the last ordered lock it still holds; anything
else — re-entry, an inversion, two instances of one name nested, a leaf
taken under a leaf — raises :class:`LockOrderViolation` on that first
wrong-order acquire, instead of deadlocking under some later
interleaving.
"""

from __future__ import annotations

import threading
from typing import List

__all__ = ["LOCK_ORDER", "LockOrderViolation", "OrderedLock"]

#: Ranked lock names, outermost first.
LOCK_ORDER = ("AdmissionService._write_lock", "ScheduleStore._lock")


class LockOrderViolation(RuntimeError):
    """An acquisition against :data:`LOCK_ORDER`."""


_held = threading.local()


def _stack() -> List["OrderedLock"]:
    stack = getattr(_held, "stack", None)
    if stack is None:
        stack = _held.stack = []
    return stack


class OrderedLock:
    """A ``threading.Lock`` ranked by its place in :data:`LOCK_ORDER`."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.rank = (
            LOCK_ORDER.index(name) if name in LOCK_ORDER else len(LOCK_ORDER)
        )
        self._inner = threading.Lock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        stack = _stack()
        if stack and stack[-1].rank >= self.rank:
            what = "re-entered" if self in stack else "took"
            raise LockOrderViolation(
                f"thread {threading.current_thread().name} {what} "
                f"{self.name} (rank {self.rank}) while holding "
                f"{stack[-1].name} (rank {stack[-1].rank}); the declared "
                f"order is {' -> '.join(LOCK_ORDER)} -> leaves"
            )
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            stack.append(self)
        return acquired

    def release(self) -> None:
        # out-of-LIFO release is legal for threading.Lock: drop the most
        # recent holding of this object wherever it sits
        stack = _stack()
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
