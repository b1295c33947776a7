"""End-to-end certificates: scheduler, serialization, fixture, CLI, and
the admission service's certify mode.

The invariant under test everywhere: a verdict is trusted because the
*checker* replayed its certificate — the solver is never re-asked.
"""

import itertools
import json
from pathlib import Path

import pytest

from repro.check.proof import CertificateError, verify_certificate
from repro.cli import main
from repro.core import CertifiedInfeasibleError, schedule_etsn
from repro.core.smt_scheduler import schedule_smt
from repro.model.stream import (
    EctStream,
    Priorities,
    Stream,
    TctRequirement,
)
from repro.model.units import milliseconds
from repro.service import (
    RUNG_FASTPATH,
    RUNG_FULL,
    AdmissionService,
    AdmitEct,
    AdmitTct,
    RungConfig,
    ScheduleStore,
    ServiceConfig,
    empty_schedule,
)
from repro.smt import DlSmtSolver, diff_ge, var_ge, var_le
from repro.smt.proof import (
    certificate_from_dict,
    certificate_to_dict,
    load_certificate,
    save_certificate,
)
from tests.conftest import MTU_WIRE_NS

FIXTURE = Path(__file__).parent / "fixtures" / "unsat_certificate.json"


def _tct(topo, name, src, dst, length=1500, period=None, share=False):
    period = period or milliseconds(4)
    return Stream(
        name=name, path=tuple(topo.shortest_path(src, dst)),
        e2e_ns=period, length_bytes=length, period_ns=period,
        priority=Priorities.SH_PL if share else Priorities.NSH_PL,
        share=share,
    )


class TestSchedulerCertificates:
    def test_sat_schedule_carries_verified_certificate(self, star_topology):
        streams = [_tct(star_topology, "a", "D1", "D3"),
                   _tct(star_topology, "b", "D2", "D3")]
        schedule = schedule_smt(star_topology, streams, proof=True)
        cert_meta = schedule.meta["certificate"]
        assert cert_meta["status"] == "sat"
        assert cert_meta["verified"] is True
        assert cert_meta["clauses_checked"] > 0

    def test_unsat_raises_certified_infeasible(self, star_topology):
        period = 2 * MTU_WIRE_NS + 1000
        streams = [
            _tct(star_topology, "a", "D1", "D3", length=2 * 1500,
                 period=period),
            _tct(star_topology, "b", "D2", "D3", length=2 * 1500,
                 period=period),
        ]
        with pytest.raises(CertifiedInfeasibleError) as info:
            schedule_smt(star_topology, streams, proof=True)
        exc = info.value
        assert exc.proof_steps > 0
        assert "UNSAT proof checked" in str(exc)
        # the attached certificate re-verifies independently
        assert verify_certificate(exc.certificate) == exc.proof_steps

    def test_etsn_front_end_plumbs_proof(self, paper_example):
        topo, s1, s2 = paper_example
        schedule = schedule_etsn(topo, [s1], [s2], backend="smt", proof=True)
        assert schedule.meta["certificate"]["verified"] is True

    def test_proof_requires_smt_backend(self, star_topology):
        with pytest.raises(ValueError, match="smt"):
            schedule_etsn(star_topology,
                          [_tct(star_topology, "a", "D1", "D3")],
                          backend="heuristic", proof=True)

    def test_no_proof_means_no_certificate(self, star_topology):
        schedule = schedule_smt(
            star_topology, [_tct(star_topology, "a", "D1", "D3")]
        )
        assert "certificate" not in schedule.meta


class TestSerialization:
    def _unsat_certificate(self):
        solver = DlSmtSolver(proof=True)
        for name in ("j0", "j1", "j2"):
            solver.require(var_ge(name, 0))
            solver.require(var_le(name, 5))
        for a, b in itertools.combinations(("j0", "j1", "j2"), 2):
            solver.add_clause([diff_ge(a, b, 5), diff_ge(b, a, 5)])
        result = solver.check()
        assert not result.sat
        return result.certificate

    def test_dict_round_trip_preserves_verification(self):
        cert = self._unsat_certificate()
        steps = verify_certificate(cert)
        restored = certificate_from_dict(certificate_to_dict(cert))
        assert verify_certificate(restored) == steps
        assert restored.atoms == cert.atoms

    def test_file_round_trip(self, tmp_path):
        cert = self._unsat_certificate()
        path = tmp_path / "cert.json"
        save_certificate(path, cert)
        assert verify_certificate(load_certificate(path)) > 0

    def test_committed_fixture_verifies(self):
        cert = load_certificate(FIXTURE)
        assert cert.status == "unsat"
        assert verify_certificate(cert) == len(cert.proof) > 0

    def test_tampered_fixture_fails(self, tmp_path):
        data = json.loads(FIXTURE.read_text())
        # drop the closing empty-clause step
        data["proof"] = [s for s in data["proof"] if s["kind"] != "empty"]
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(data))
        with pytest.raises(CertificateError):
            verify_certificate(load_certificate(path))


class TestCheckCli:
    def test_proof_command_accepts_fixture(self, capsys):
        assert main(["check", "proof", str(FIXTURE)]) == 0
        assert "OK: unsat certificate verified" in capsys.readouterr().out

    def test_proof_command_rejects_tampered(self, tmp_path, capsys):
        data = json.loads(FIXTURE.read_text())
        data["proof"] = [s for s in data["proof"] if s["kind"] != "empty"]
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(data))
        assert main(["check", "proof", str(path)]) == 1
        assert "FAIL" in capsys.readouterr().err

    def test_model_command_checks_sat_certificate(self, tmp_path, capsys):
        solver = DlSmtSolver(proof=True)
        solver.require(var_ge("x", 2))
        solver.require(var_le("x", 4))
        result = solver.check()
        assert result.sat
        path = tmp_path / "sat.json"
        save_certificate(path, result.certificate)
        assert main(["check", "model", str(path)]) == 0
        assert "OK: sat certificate verified" in capsys.readouterr().out

    def test_status_mismatch_is_usage_error(self, capsys):
        assert main(["check", "model", str(FIXTURE)]) == 2
        assert "unsat" in capsys.readouterr().err

    def test_missing_file_is_usage_error(self, capsys):
        assert main(["check", "proof", "/no/such/file.json"]) == 2

    def test_lint_strict_flags_finding(self, tmp_path, capsys):
        bad = tmp_path / "src" / "repro" / "core" / "gcl.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("GUARD = 1.5\n")
        assert main(["check", "lint", str(tmp_path), "--strict"]) == 1
        out = capsys.readouterr()
        assert "float-arith" in out.out
        # non-strict: report but do not fail
        assert main(["check", "lint", str(tmp_path)]) == 0

    def test_lint_clean_tree_exits_zero(self, tmp_path):
        good = tmp_path / "ok.py"
        good.write_text("x = 1\n")
        assert main(["check", "lint", str(tmp_path), "--strict"]) == 0


class TestServiceCertify:
    def _service(self, topo):
        return AdmissionService(
            ScheduleStore(empty_schedule(topo)),
            config=ServiceConfig(backend="smt", certify=True),
        )

    def test_certify_requires_smt_backend(self, star_topology):
        with pytest.raises(ValueError, match="smt"):
            AdmissionService(
                ScheduleStore(empty_schedule(star_topology)),
                config=ServiceConfig(backend="heuristic", certify=True),
            )

    def test_certified_admission_counts_verified_sat(self, star_topology):
        # a solver-only ladder: the constructive rung would place all
        # three without ever reaching the proof-logging solver
        service = AdmissionService(
            ScheduleStore(empty_schedule(star_topology)),
            config=ServiceConfig(backend="smt", certify=True,
                                 rungs=(RungConfig(RUNG_FULL),)),
        )
        assert service.submit(AdmitTct(TctRequirement(
            name="base", source="D1", destination="D3",
            period_ns=milliseconds(8), length_bytes=1500,
            priority=Priorities.SH_PL, share=True,
        ))).accepted
        assert service.submit(AdmitEct(EctStream(
            name="alarm", source="D2", destination="D3",
            min_interevent_ns=milliseconds(16), length_bytes=512,
            possibilities=4,
        ))).accepted
        decision = service.submit(AdmitTct(TctRequirement(
            name="late", source="D2", destination="D3",
            period_ns=milliseconds(8), length_bytes=1500,
            priority=Priorities.SH_PL, share=True,
        )))
        assert decision.accepted
        assert decision.rung == "full"
        counters = service.metrics.counters_with_prefix("certificates")
        assert counters.get("verified_sat", 0) >= 1

    def test_a_certificate_that_fails_its_check_rejects_the_batch(
        self, star_topology, monkeypatch
    ):
        """A SAT model the checker refutes is a solver bug, not a
        verdict: the batch is rejected, ``certificates.failed`` counts
        the failed check and the ``full`` rung an error."""
        service = AdmissionService(
            ScheduleStore(empty_schedule(star_topology)),
            config=ServiceConfig(backend="smt", certify=True, rungs=(
                RungConfig(RUNG_FASTPATH), RungConfig(RUNG_FULL),
            )),
        )

        def tied(name, source, length):
            # ``b`` first leaves no room on SW1->D3 for ``c`` within
            # 250 us; the other way round both fit
            return AdmitTct(TctRequirement(
                name=name, source=source, destination="D3",
                period_ns=250_000, length_bytes=length,
            ))

        assert service.submit(tied("b", "D2", 1200)).rung == RUNG_FASTPATH
        check = DlSmtSolver.check
        tampered = []

        def tampering(solver, *args, **kwargs):
            result = check(solver, *args, **kwargs)
            if result.sat and result.certificate is not None:
                # the model keeps no value: no clause can hold
                result.certificate.model = {}
                with pytest.raises(CertificateError):
                    verify_certificate(result.certificate)
                tampered.append(result.certificate)
            return result

        monkeypatch.setattr(DlSmtSolver, "check", tampering)
        decision = service.submit(tied("c", "D1", 800))
        assert len(tampered) == 1
        assert not decision.accepted
        assert decision.attempts[RUNG_FULL].startswith("CertificateError: ")
        assert service.metrics.counters_with_prefix("certificates") == {
            "failed": 1
        }
        assert service.metrics.counters_with_prefix("rungs.full") == {
            "attempts": 1, "errors": 1,
        }

    def test_certified_rejection_counts_verified_unsat(self, star_topology):
        service = self._service(star_topology)
        period = 6 * MTU_WIRE_NS
        for i in range(5):
            assert service.submit(AdmitTct(TctRequirement(
                name=f"s{i}", source="D1" if i % 2 else "D2",
                destination="D3", period_ns=period, length_bytes=1500,
                priority=Priorities.NSH_PL,
            ))).accepted
        decision = service.submit(AdmitTct(TctRequirement(
            name="overload", source="D2", destination="D3",
            period_ns=period, length_bytes=1500,
            priority=Priorities.NSH_PL,
        )))
        assert not decision.accepted
        counters = service.metrics.counters_with_prefix("certificates")
        assert counters.get("verified_unsat", 0) >= 1
        assert counters.get("failed", 0) == 0
