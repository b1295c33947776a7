"""Per-node clocks and a simplified 802.1AS time synchronization.

Every node interprets its GCL in its *local* clock.  A local clock is a
linear map of global (true) time: ``local = global + offset + drift``.
Drift is expressed in parts-per-billion and accumulates from the last
correction point, all in integer arithmetic.

:class:`SyncDomain` models the grandmaster/slave relationship of
802.1AS at the level the evaluation needs: every ``sync_interval`` the
grandmaster's time is (imperfectly) transferred to each slave, which
resets its offset to a residual bounded by the measurement error.  The
paper's toolkit timestamps at 10 ns accuracy; the default residual error
matches that order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from repro.sim.engine import Simulator


class Clock:
    """A node-local clock: ``local(t) = t + offset + drift·(t - ref)``."""

    def __init__(self, name: str, offset_ns: int = 0, drift_ppb: int = 0) -> None:
        if drift_ppb <= -1_000_000_000:
            raise ValueError(
                f"clock {name!r}: drift_ppb must exceed -1e9 (got "
                f"{drift_ppb}); at -1e9 local time stops advancing"
            )
        self.name = name
        self._offset_ns = offset_ns
        self._drift_ppb = drift_ppb
        self._ref_ns = 0  # global time of the last correction

    def local(self, global_ns: int) -> int:
        """Local reading at a global instant."""
        if not self._drift_ppb:
            return global_ns + self._offset_ns
        drift = (global_ns - self._ref_ns) * self._drift_ppb // 1_000_000_000
        return global_ns + self._offset_ns + drift

    def to_global(self, local_ns: int) -> int:
        """Global instant at which this clock reads ``local_ns``.

        Inverse of :meth:`local`: when ``local_ns`` is an exact reading
        the returned instant reproduces it (``local(to_global(x)) == x``),
        and for non-negative drift the inverse is exact
        (``to_global(local(t)) == t``, since ``local`` is then strictly
        increasing).  Between two readings — positive drift makes the
        local clock skip values — the latest instant reading no later
        than ``local_ns`` is returned.
        """
        if not self._drift_ppb:
            return local_ns - self._offset_ns
        # Newton iteration: the error contracts by |drift|/1e9 per step,
        # so a few steps settle every physical drift; extreme drifts
        # (approaching clock rate) fall through to exact bisection
        # instead of returning an off-by-one fixed-point miss.
        guess = local_ns - self._offset_ns
        for _ in range(8):
            error = self.local(guess) - local_ns
            if error == 0:
                return guess
            guess -= error
        # local() is monotone non-decreasing (drift_ppb > -1e9), so the
        # largest t with local(t) <= local_ns is found by bisection.
        lo = hi = guess
        step = 1
        while self.local(lo) > local_ns:
            lo -= step
            step *= 2
        step = 1
        while self.local(hi + 1) <= local_ns:
            hi += step
            step *= 2
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self.local(mid) <= local_ns:
                lo = mid
            else:
                hi = mid - 1
        return lo

    def offset_error_ns(self, global_ns: int) -> int:
        """How far local time is from true time right now."""
        return self.local(global_ns) - global_ns

    def correct(self, global_ns: int, residual_ns: int) -> None:
        """Apply a sync correction: local ≈ global + residual afterwards."""
        self._offset_ns = residual_ns
        self._ref_ns = global_ns

    @property
    def drift_ppb(self) -> int:
        return self._drift_ppb


@dataclass
class SyncConfig:
    """Knobs of the simplified 802.1AS domain."""

    sync_interval_ns: int = 31_250_000  # 802.1AS default: 1/32 s
    residual_error_ns: int = 10  # hardware timestamping accuracy
    enabled: bool = True

    def __post_init__(self) -> None:
        if self.sync_interval_ns <= 0:
            raise ValueError(
                f"sync_interval_ns must be positive, got {self.sync_interval_ns}"
            )
        if self.residual_error_ns < 0:
            raise ValueError(
                f"residual_error_ns must be >= 0, got {self.residual_error_ns} "
                f"(it bounds the post-correction offset magnitude)"
            )


class SyncDomain:
    """Grandmaster-driven periodic offset correction for a clock set."""

    def __init__(
        self,
        sim: Simulator,
        clocks: List[Clock],
        config: Optional[SyncConfig] = None,
        seed: int = 0,
    ) -> None:
        self._sim = sim
        self._clocks = clocks
        self._config = config or SyncConfig()
        self._rng = random.Random(seed)
        self.max_observed_error_ns = 0

    def start(self) -> None:
        if self._config.enabled and self._clocks:
            self._sim.at(0, self._sync_round)

    def _sync_round(self) -> None:
        now = self._sim.now
        for clock in self._clocks:
            self.max_observed_error_ns = max(
                self.max_observed_error_ns, abs(clock.offset_error_ns(now))
            )
            residual = self._rng.randint(
                -self._config.residual_error_ns, self._config.residual_error_ns
            )
            clock.correct(now, residual)
        self._sim.after(self._config.sync_interval_ns, self._sync_round)

    def worst_case_error_ns(self) -> int:
        """Bound on inter-sync divergence: residual + drift over interval."""
        worst_drift_ppb = max(
            (abs(c.drift_ppb) for c in self._clocks), default=0
        )
        accumulation = (
            self._config.sync_interval_ns * worst_drift_ppb // 1_000_000_000
        )
        return self._config.residual_error_ns + accumulation
