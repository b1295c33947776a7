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
