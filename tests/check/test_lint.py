"""One regression test per lint rule, plus suppressions and the
acceptance gate that the shipped tree itself is clean."""

from repro.check.lint import ALL_RULES, lint_paths, lint_source


def _rules(findings):
    return [f.rule for f in findings]


def _lint(source, path="src/repro/core/gcl.py", rules=None):
    return lint_source(source, path, rules=rules)


class TestWallClock:
    def test_time_time_in_sim_flagged(self):
        findings = _lint("import time\nt = time.time()\n",
                         path="src/repro/sim/engine.py")
        assert _rules(findings) == ["wall-clock"]
        assert "time.time" in findings[0].message

    def test_monotonic_in_smt_flagged(self):
        findings = _lint("import time\nt = time.monotonic()\n",
                         path="src/repro/smt/sat.py")
        assert _rules(findings) == ["wall-clock"]

    def test_datetime_now_in_core_flagged(self):
        findings = _lint(
            "import datetime\nnow = datetime.datetime.now()\n",
            path="src/repro/core/schedule.py",
        )
        assert _rules(findings) == ["wall-clock"]

    def test_from_import_call_flagged(self):
        findings = _lint("from time import monotonic\nt = monotonic()\n",
                         path="src/repro/sim/engine.py")
        assert _rules(findings) == ["wall-clock"]

    def test_outside_scope_allowed(self):
        # benchmarks and service code may read real clocks
        assert _lint("import time\nt = time.time()\n",
                     path="benchmarks/test_perf.py") == []
        assert _lint("import time\nt = time.monotonic()\n",
                     path="src/repro/service/admission.py") == []


class TestFloatArith:
    def test_float_literal_flagged(self):
        findings = _lint("GUARD = 1.5\n")
        assert _rules(findings) == ["float-arith"]

    def test_true_division_flagged(self):
        findings = _lint("def half(x):\n    return x / 2\n")
        assert _rules(findings) == ["float-arith"]
        assert "division" in findings[0].message

    def test_floor_division_and_int_literal_allowed(self):
        assert _lint("def half(x):\n    return x // 2\n") == []

    def test_outside_integer_ns_modules_allowed(self):
        # VSIDS activities in the SAT core are legitimately floats
        assert _lint("DECAY = 0.95\n", path="src/repro/smt/sat.py") == []


class TestLockDiscipline:
    LOCKED = (
        "import threading\n"
        "class Registry:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self._items = {}\n"
        "    def add(self, k, v):\n"
        "        with self._lock:\n"
        "            self._items[k] = v\n"
    )
    UNLOCKED = (
        "import threading\n"
        "class Registry:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self._items = {}\n"
        "    def add(self, k, v):\n"
        "        self._items[k] = v\n"
    )

    def test_mutation_under_lock_allowed(self):
        assert _lint(self.LOCKED, path="src/repro/service/metrics.py") == []

    def test_mutation_outside_lock_flagged(self):
        findings = _lint(self.UNLOCKED, path="src/repro/service/metrics.py")
        assert _rules(findings) == ["lock-discipline"]
        assert "_items" in findings[0].message

    def test_mutator_call_outside_lock_flagged(self):
        source = self.UNLOCKED.replace(
            "        self._items[k] = v\n",
            "        self._items.update({k: v})\n",
        )
        findings = _lint(source, path="src/repro/service/metrics.py")
        assert _rules(findings) == ["lock-discipline"]

    def test_class_without_lock_exempt(self):
        source = (
            "class Bag:\n"
            "    def __init__(self):\n"
            "        self._items = []\n"
            "    def add(self, v):\n"
            "        self._items.append(v)\n"
        )
        assert _lint(source, path="src/repro/service/metrics.py") == []

    def test_acquire_release_region_counts_as_locked(self):
        source = (
            "import threading\n"
            "class Registry:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._items = {}\n"
            "    def add(self, k, v):\n"
            "        self._lock.acquire()\n"
            "        try:\n"
            "            self._items[k] = v\n"
            "        finally:\n"
            "            self._lock.release()\n"
        )
        assert _lint(source, path="src/repro/service/metrics.py") == []

    def test_mutation_after_release_flagged(self):
        source = (
            "import threading\n"
            "class Registry:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._items = {}\n"
            "    def add(self, k, v):\n"
            "        self._lock.acquire()\n"
            "        self._lock.release()\n"
            "        self._items[k] = v\n"
        )
        findings = _lint(source, path="src/repro/service/metrics.py")
        assert _rules(findings) == ["lock-discipline"]

    def test_rlock_alias_attr_is_recognized(self):
        source = (
            "import threading\n"
            "class Registry:\n"
            "    def __init__(self):\n"
            "        self._write_lock = threading.RLock()\n"
            "        self._items = {}\n"
            "    def good(self, k, v):\n"
            "        with self._write_lock:\n"
            "            self._items[k] = v\n"
            "    def bad(self, k, v):\n"
            "        self._items[k] = v\n"
        )
        findings = _lint(source, path="src/repro/service/metrics.py")
        assert _rules(findings) == ["lock-discipline"]
        assert findings[0].line == 10

    def test_ordered_lock_alias_attr_is_recognized(self):
        source = (
            "from repro.check.locks import OrderedLock\n"
            "class Store:\n"
            "    def __init__(self):\n"
            "        self._store_lock = OrderedLock('Store._store_lock')\n"
            "        self._items = {}\n"
            "    def put(self, k, v):\n"
            "        with self._store_lock:\n"
            "            self._items[k] = v\n"
        )
        assert _lint(source, path="src/repro/service/metrics.py") == []

    def test_plain_attr_assignment_is_not_a_lock(self):
        source = (
            "class Cache:\n"
            "    def __init__(self):\n"
            "        self._guard = object()\n"
            "        self._items = {}\n"
            "    def add(self, k, v):\n"
            "        with self._guard:\n"
            "            self._items[k] = v\n"
        )
        # _guard is not a lock factory: the class owns no lock at all,
        # so the rule does not engage
        assert _lint(source, path="src/repro/service/metrics.py") == []


class TestBareExcept:
    def test_bare_except_flagged(self):
        source = "try:\n    x = 1\nexcept:\n    pass\n"
        findings = _lint(source, path="src/repro/service/admission.py")
        assert _rules(findings) == ["bare-except"]

    def test_typed_except_allowed(self):
        source = "try:\n    x = 1\nexcept ValueError:\n    pass\n"
        assert _lint(source, path="src/repro/service/admission.py") == []


class TestTupleAnnotation:
    def test_parenthesized_return_annotation_flagged(self):
        source = "def f() -> (int, str):\n    return 1, 'a'\n"
        findings = _lint(source, path="src/repro/smt/sat.py")
        assert _rules(findings) == ["tuple-annotation"]
        assert "Tuple[" in findings[0].message

    def test_typing_tuple_allowed(self):
        source = ("from typing import Tuple\n"
                  "def f() -> Tuple[int, str]:\n    return 1, 'a'\n")
        assert _lint(source, path="src/repro/smt/sat.py") == []


class TestSuppressionAndScoping:
    def test_inline_suppression_with_rule(self):
        source = "GUARD = 1.5  # repro: lint-ok[float-arith]\n"
        assert _lint(source) == []

    def test_blanket_suppression(self):
        source = "GUARD = 1.5  # repro: lint-ok\n"
        assert _lint(source) == []

    def test_suppression_for_other_rule_does_not_apply(self):
        source = "GUARD = 1.5  # repro: lint-ok[bare-except]\n"
        assert _rules(_lint(source)) == ["float-arith"]

    def test_rule_filter_restricts_output(self):
        source = "GUARD = 1.5\ntry:\n    pass\nexcept:\n    pass\n"
        findings = _lint(source, rules=["bare-except"])
        assert _rules(findings) == ["bare-except"]

    def test_unknown_rule_rejected(self):
        try:
            lint_source("x = 1\n", "src/repro/core/gcl.py",
                        rules=["no-such-rule"])
        except ValueError as exc:
            assert "no-such-rule" in str(exc)
        else:
            raise AssertionError("expected ValueError")

    def test_syntax_error_reported_as_parse_error(self):
        findings = _lint("def broken(:\n", path="src/repro/core/gcl.py")
        assert _rules(findings) == ["parse-error"]

    def test_all_rules_is_complete(self):
        assert set(ALL_RULES) == {
            "wall-clock", "float-arith", "lock-discipline",
            "bare-except", "tuple-annotation",
        }


def test_shipped_tree_is_clean():
    """The acceptance gate: ``repro check lint src --strict`` exits 0."""
    assert lint_paths(["src"]) == []
