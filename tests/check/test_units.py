"""Time-unit analysis: per-rule expectations on the leak fixture,
conversion-constant handling, rule selection, suppressions, and the
acceptance gate that the shipped tree is clean."""

import json
from pathlib import Path

import pytest

from repro.check.units_analysis import (
    DEFAULT_RULES,
    UNITS_RULES,
    analyze_units,
)
from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures" / "units"


def _rules(report):
    return [f.rule for f in report.findings]


def _analyze_source(tmp_path, source, rules=DEFAULT_RULES):
    path = tmp_path / "mod.py"
    path.write_text(source)
    return analyze_units([str(path)], rules=rules)


class TestLeakFixture:
    def test_us_to_ns_positional_leak(self):
        report = analyze_units([str(FIXTURES / "unit_leak.py")])
        calls = [f for f in report.findings if f.rule == "unit-call"]
        assert len(calls) == 2  # positional and keyword form
        assert any("window_ns" in f.message and "us" in f.message
                   for f in calls)

    def test_mixed_unit_arithmetic(self):
        report = analyze_units([str(FIXTURES / "unit_leak.py")])
        mixed = [f for f in report.findings if f.rule == "unit-mismatch"]
        assert len(mixed) == 1
        assert "ns" in mixed[0].message and "us" in mixed[0].message

    def test_clean_fixture_is_clean(self):
        report = analyze_units([str(FIXTURES / "clean.py")])
        assert report.findings == []


class TestRules:
    def test_unit_return(self, tmp_path):
        report = _analyze_source(
            tmp_path,
            "def window_ns(gap_us: int) -> int:\n    return gap_us\n",
        )
        assert _rules(report) == ["unit-return"]

    def test_assignment_mismatch(self, tmp_path):
        report = _analyze_source(
            tmp_path,
            "def f(gap_us: int):\n    deadline_ns = gap_us\n",
        )
        assert _rules(report) == ["unit-mismatch"]

    def test_comparison_mismatch(self, tmp_path):
        report = _analyze_source(
            tmp_path,
            "def f(a_ns: int, b_ms: int):\n    return a_ns < b_ms\n",
        )
        assert _rules(report) == ["unit-mismatch"]

    def test_min_max_mismatch(self, tmp_path):
        report = _analyze_source(
            tmp_path,
            "def f(a_ns: int, b_us: int):\n    return max(a_ns, b_us)\n",
        )
        assert _rules(report) == ["unit-mismatch"]

    def test_literals_are_polymorphic(self, tmp_path):
        report = _analyze_source(
            tmp_path,
            "def f(a_ns: int):\n    return a_ns + 100\n",
        )
        assert report.findings == []

    def test_unknown_units_are_compatible(self, tmp_path):
        report = _analyze_source(
            tmp_path,
            "def f(a_ns: int, other):\n    return a_ns + other\n",
        )
        assert report.findings == []

    def test_unit_literal_is_off_by_default(self, tmp_path):
        source = (
            "def takes(period_ns: int):\n    return period_ns\n"
            "def f():\n    return takes(period_ns=4_000_000)\n"
        )
        assert _analyze_source(tmp_path, source).findings == []
        pedantic = _analyze_source(
            tmp_path, source, rules=("unit-literal",)
        )
        assert _rules(pedantic) == ["unit-literal"]

    def test_unknown_rule_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            _analyze_source(tmp_path, "x = 1\n", rules=("bogus",))


class TestConversions:
    def test_ns_per_us_scales_us_to_ns(self, tmp_path):
        report = _analyze_source(
            tmp_path,
            "NS_PER_US = 1_000\n"
            "def f(gap_us: int):\n"
            "    window_ns = gap_us * NS_PER_US\n"
            "    return window_ns\n",
        )
        assert report.findings == []

    def test_ns_per_us_rejects_ms_operand(self, tmp_path):
        report = _analyze_source(
            tmp_path,
            "NS_PER_US = 1_000\n"
            "def f(gap_ms: int):\n"
            "    window_ns = gap_ms * NS_PER_US\n"
            "    return window_ns\n",
        )
        assert _rules(report) == ["unit-mismatch"]

    def test_floor_div_converts_down(self, tmp_path):
        report = _analyze_source(
            tmp_path,
            "NS_PER_MS = 1_000_000\n"
            "def f(span_ns: int):\n"
            "    span_ms = span_ns // NS_PER_MS\n"
            "    return span_ms\n",
        )
        assert report.findings == []

    def test_constant_is_an_ns_quantity_additively(self, tmp_path):
        report = _analyze_source(
            tmp_path,
            "NS_PER_S = 1_000_000_000\n"
            "def f(value_ns: int):\n"
            "    return value_ns >= NS_PER_S\n",
        )
        assert report.findings == []

    def test_model_units_converters_check_their_argument(self, tmp_path):
        report = _analyze_source(
            tmp_path,
            "from repro.model.units import microseconds\n"
            "def f(budget_ns: int):\n"
            "    return microseconds(budget_ns)\n",
        )
        assert _rules(report) == ["unit-call"]
        assert "microseconds" in report.findings[0].message

    def test_converter_return_unit_propagates(self, tmp_path):
        report = _analyze_source(
            tmp_path,
            "from repro.model.units import milliseconds\n"
            "def f(slack_us: int):\n"
            "    gap_ns = milliseconds(5)\n"
            "    return gap_ns + slack_us\n",
        )
        assert _rules(report) == ["unit-mismatch"]


class TestScaleFactors:
    """A factor of 1e3, 1e6 or 1e9 moves a unit along s/ms/us/ns; any
    other factor keeps it."""

    @pytest.mark.parametrize("source", [
        # a module-level name bound to a scale
        "MS = 1_000_000\n"
        "def f(period_ms):\n"
        "    return submit(period_ns=period_ms * MS)\n",
        # a literal scale, either side
        "def f(duration_ms):\n"
        "    return finish(ts_ns=duration_ms * 1_000_000)\n",
        "def f(duration_ms):\n"
        "    return finish(ts_ns=1e6 * duration_ms)\n",
        # dividing moves towards seconds
        "def shadow_ns():\n"
        "    return 0\n"
        "def f(wall_s):\n"
        "    return wall_s - shadow_ns() / 1e9\n",
        "def f(span_ns):\n"
        "    span_ms = span_ns // 1_000_000\n"
        "    return span_ms\n",
    ])
    def test_a_scale_converts(self, tmp_path, source):
        assert _analyze_source(tmp_path, source).findings == []

    @pytest.mark.parametrize("path", [
        "bench/etsnbench/admit.py", "bench/etsnbench/core.py",
        "tests/obs/test_export.py", "tests/service/test_fastpath_golden.py",
    ])
    def test_the_scaled_call_sites_outside_src_are_clean(self, path):
        assert analyze_units([path]).findings == []

    def test_a_scale_one_step_short_is_still_flagged(self, tmp_path):
        report = _analyze_source(
            tmp_path,
            "def f(period_ms):\n"
            "    return submit(period_ns=period_ms * 1_000)\n",
        )
        assert _rules(report) == ["unit-call"]
        assert "expects ns but got us" in report.findings[0].message

    def test_any_other_factor_keeps_the_unit(self, tmp_path):
        report = _analyze_source(
            tmp_path,
            "def f(x_us):\n"
            "    gap_us = x_us * 2\n"
            "    window_ns = x_us * 2\n"
            "    return gap_us, window_ns\n",
        )
        assert [f.line for f in report.findings] == [3]
        assert "window_ns (ns) assigned us" in report.findings[0].message

    @pytest.mark.parametrize("source", [
        "def f(interval_ns, drift):\n"
        "    return submit(period_ns=interval_ns * drift // 1_000_000_000)\n",
        "def f(drift, interval_ns):\n"
        "    error = drift * interval_ns\n"
        "    return submit(period_ns=error / 1e9)\n",
        "def f(interval_us, rate):\n"
        "    return submit(period_s=interval_us * rate * 1_000)\n",
    ])
    def test_a_scaled_product_with_an_unknown_factor_has_no_unit(
        self, tmp_path, source
    ):
        assert _analyze_source(tmp_path, source).findings == []

    def test_a_product_with_an_unknown_factor_keeps_its_unit(self, tmp_path):
        report = _analyze_source(
            tmp_path,
            "def f(interval_us, drift):\n"
            "    return submit(period_ns=interval_us * drift)\n",
        )
        assert _rules(report) == ["unit-call"]
        assert "expects ns but got us" in report.findings[0].message

    def test_a_local_rebinding_is_no_scale(self, tmp_path):
        report = _analyze_source(
            tmp_path,
            "MS = 1_000_000\n"
            "def f(period_ms):\n"
            "    MS = 2\n"
            "    return submit(period_ns=period_ms * MS)\n",
        )
        assert _rules(report) == ["unit-call"]


class TestSuppressions:
    def test_units_ok_suppresses(self, tmp_path):
        report = _analyze_source(
            tmp_path,
            "def f(gap_us: int):\n"
            "    deadline_ns = gap_us  # repro: units-ok[unit-mismatch]\n",
        )
        assert report.findings == []

    def test_other_rule_does_not_apply(self, tmp_path):
        report = _analyze_source(
            tmp_path,
            "def f(gap_us: int):\n"
            "    deadline_ns = gap_us  # repro: units-ok[unit-call]\n",
        )
        assert _rules(report) == ["unit-mismatch"]


_GATE = (
    "class Gate:\n"
    "    def open_at(self, start_ns, hold_us):\n"
    "        return start_ns\n"
)
#: The caller of ``Gate.open_at``, one per receiver form.
_DRIVERS = {
    "self": "    def drive(self, {params}):\n"
            "        return self.open_at({args})\n",
    "annotated": "def drive(gate: Gate, {params}):\n"
                 "    return gate.open_at({args})\n",
}


class TestPositionalParameters:
    """A method's positional arguments bind after ``self``/``cls``."""

    def _drive(self, tmp_path, form, params, args):
        return _analyze_source(
            tmp_path, _GATE + _DRIVERS[form].format(params=params, args=args)
        )

    @pytest.mark.parametrize("form", sorted(_DRIVERS))
    def test_mismatch_after_self_is_flagged(self, tmp_path, form):
        report = self._drive(tmp_path, form, "gap_us", "gap_us, 5")
        assert _rules(report) == ["unit-call"]
        assert "parameter start_ns of open_at()" in report.findings[0].message

    @pytest.mark.parametrize("form", sorted(_DRIVERS))
    def test_matching_call_is_clean(self, tmp_path, form):
        report = self._drive(
            tmp_path, form, "start_ns, hold_us", "start_ns, hold_us"
        )
        assert report.findings == []

    def test_staticmethod_has_no_self_to_skip(self, tmp_path):
        report = _analyze_source(
            tmp_path,
            "class Gate:\n"
            "    @staticmethod\n"
            "    def open_at(start_ns, hold_us):\n"
            "        return start_ns\n"
            "def drive(gate, gap_us, start_ns, hold_us):\n"
            "    gate.open_at(start_ns, hold_us)\n"
            "    return gate.open_at(gap_us, 5)\n",
        )
        assert [(f.rule, f.line) for f in report.findings] == [
            ("unit-call", 7)
        ]
        assert "start_ns" in report.findings[0].message

    def test_methods_disagreeing_on_units_are_not_guessed(self, tmp_path):
        report = _analyze_source(
            tmp_path,
            "class Gate:\n"
            "    def open_at(self, start_ns):\n"
            "        return start_ns\n"
            "class Timer:\n"
            "    def open_at(self, start_us):\n"
            "        return start_us\n"
            "def drive(gate, gap_us):\n"
            "    return gate.open_at(gap_us)\n",
        )
        assert report.findings == []

    def test_constructor_binds_after_self(self, tmp_path):
        report = _analyze_source(
            tmp_path,
            "class Window:\n"
            "    def __init__(self, start_ns):\n"
            "        self.start_ns = start_ns\n"
            "def make(gap_us):\n"
            "    return Window(gap_us)\n",
        )
        assert _rules(report) == ["unit-call"]


def test_nested_functions_are_analysed(tmp_path):
    report = _analyze_source(
        tmp_path,
        "def outer():\n"
        "    def inner(gap_us):\n"
        "        deadline_ns = gap_us\n"
        "    return inner\n",
    )
    assert _rules(report) == ["unit-mismatch"]


def test_same_stem_in_two_directories_both_analysed(tmp_path):
    for name, body in (("a", "    deadline_ns = gap_us\n"),
                       ("b", "    return gap_us\n")):
        (tmp_path / name).mkdir()
        (tmp_path / name / "mod.py").write_text(f"def f(gap_us):\n{body}")
    report = analyze_units([str(tmp_path / "a"), str(tmp_path / "b")])
    assert report.functions_analyzed == 2
    assert [(Path(f.path).parent.name, f.rule) for f in report.findings] == [
        ("a", "unit-mismatch")
    ]


class TestCli:
    LEAK = str(FIXTURES / "unit_leak.py")

    def test_strict_leak_exits_one_with_three_findings(self, capsys):
        assert main(["check", "units", self.LEAK, "--strict"]) == 1
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 3
        assert "window_ns" in out

    def test_without_strict_exits_zero(self, capsys):
        assert main(["check", "units", self.LEAK]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3

    def test_non_python_path_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "notes.txt"
        path.write_text("gap_us = 1\n")
        assert main(["check", "units", str(path)]) == 2
        assert "not a python file" in capsys.readouterr().err

    def test_json_report(self, capsys):
        assert main(["check", "units", self.LEAK, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert set(data) == {"findings", "functions_analyzed", "rules"}
        assert len(data["findings"]) == 3
        assert data["functions_analyzed"] == 4


def test_json_round_trip():
    report = analyze_units([str(FIXTURES / "unit_leak.py")])
    data = json.loads(report.to_json())
    assert data["rules"] == list(DEFAULT_RULES)
    assert all(f["rule"] in UNITS_RULES for f in data["findings"])


def test_shipped_tree_is_clean():
    report = analyze_units(["src/repro"])
    assert report.findings == []


def test_benchmark_examples_and_figure_suite_are_clean():
    report = analyze_units(["bench", "examples", "benchmarks"])
    assert report.findings == []
