"""The option census: every ``ServiceConfig`` / ``RungConfig`` field and
every flag of the four serving commands, by name.  ROADMAP ground rule:
no new field, flag or fallback path without a gated number — adding one
fails here, so the pin is edited in the PR that carries the number."""

import argparse
from dataclasses import fields

import pytest

from repro.cli import _build_parser
from repro.service import RungConfig, ServiceConfig

SERVING_FLAGS = {
    ("admit",): (
        "--backend --certify --dest --e2e-us --ect --length --name --out "
        "--period-us --possibilities --remove --share --source --state "
        "--trace"
    ),
    ("serve",): (
        "--backend --certify --emit-deployments --fail-on-reject "
        "--max-batch --metrics-out --requests --save-state --state "
        "--topology --trace"
    ),
    ("cluster", "serve"): (
        "--audit --backend --fail-on-reject --metrics-out "
        "--prometheus-out --requests --seeds --shards --topology --trace"
    ),
    ("frontend", "serve"): (
        "--backend --cache-size --cluster --drain-grace-s --host "
        "--max-batch --max-pipeline --max-queue --metrics-out "
        "--port --seeds --shards --state --topology --trace"
    ),
}


def test_config_fields():
    assert [f.name for f in fields(ServiceConfig)] == [
        "backend", "heuristic_min_restarts", "max_batch",
        "emit_deployments", "certify", "rungs",
    ]
    assert [f.name for f in fields(RungConfig)] == ["name"]


@pytest.mark.parametrize("command", sorted(SERVING_FLAGS))
def test_serving_command_flags(command):
    parser = _build_parser()
    for name in command:
        parser = next(
            a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)
        ).choices[name]
    flags = sorted(
        s for a in parser._actions for s in a.option_strings
        if s.startswith("--") and s != "--help"
    )
    assert " ".join(flags) == SERVING_FLAGS[command]


@pytest.mark.parametrize("command", [("cluster", "serve"),
                                     ("frontend", "serve")])
def test_workers_flag_is_gone(command, capsys):
    """The coordinator owns no thread pool, so there is nothing to size."""
    with pytest.raises(SystemExit) as exit_info:
        _build_parser().parse_args(
            [*command, "--topology", "topo.json", "--workers", "2"]
        )
    assert exit_info.value.code == 2
    assert "--workers" in capsys.readouterr().err
