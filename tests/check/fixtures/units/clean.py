"""Fixture: units used correctly — zero findings expected from
``repro check units``."""

from repro.model.units import NS_PER_US, ns_to_us


def budget_ns(period_ns: int, slack_ns: int) -> int:
    total_ns = period_ns + slack_ns
    return total_ns


def widen_ns(window_ns: int, margin_us: int) -> int:
    return window_ns + margin_us * NS_PER_US


def report_us(window_ns: int) -> float:
    return ns_to_us(window_ns)


def drift_error_ns(interval_ns: int, drift: int) -> int:
    # ns times a rate of unknown unit (ppb here), scaled by 1e9: the
    # scale is the rate's, so the product is still ns, not s
    return interval_ns * drift // 1_000_000_000
