"""repro.check — static analysis and independent result verification.

Three pillars, all deliberately outside the code they judge:

* **Proof certificates** (:mod:`repro.check.proof`,
  :mod:`repro.check.model`): replay the DPLL(T) solver's UNSAT proofs
  by reverse unit propagation plus negative-cycle arithmetic, and
  evaluate SAT models against every input constraint — the solver is
  untrusted, the checker is trusted and an order of magnitude smaller.
* **Repo-invariant linter** (:mod:`repro.check.lint`): an AST pass
  enforcing the timing/locking disciplines this codebase depends on
  (no wall-clock reads in deterministic code, integer-nanosecond
  arithmetic, lock-guarded instrument mutation, no bare ``except``,
  well-formed annotations).
* **Time-unit analysis** (:mod:`repro.check.units_analysis`):
  dimensional analysis over ``_ns``/``_us``/... suffixes across call
  boundaries, with calls resolved by name over the analysed files.

One check lives inside the code it judges: :mod:`repro.check.locks`
declares the admission plane's lock order (:data:`LOCK_ORDER`), and the
two ranked locks are :class:`OrderedLock` instances whose every acquire
checks it — always on, so an inversion fails on its first wrong-order
acquire.

``python -m repro check {proof,model,lint,units}`` is the CLI face
(:mod:`repro.check.cli`).
"""

from repro.check.lint import (
    ALL_RULES,
    LintFinding,
    lint_paths,
    lint_source,
)
from repro.check.locks import LOCK_ORDER, LockOrderViolation, OrderedLock
from repro.check.model import check_model
from repro.check.proof import (
    CertificateError,
    check_unsat_proof,
    verify_certificate,
)
from repro.check.units_analysis import (
    UNITS_RULES,
    UnitFinding,
    UnitsReport,
    analyze_units,
)

__all__ = [
    "ALL_RULES",
    "CertificateError",
    "LOCK_ORDER",
    "LintFinding",
    "LockOrderViolation",
    "OrderedLock",
    "UNITS_RULES",
    "UnitFinding",
    "UnitsReport",
    "analyze_units",
    "check_model",
    "check_unsat_proof",
    "lint_paths",
    "lint_source",
    "verify_certificate",
]
