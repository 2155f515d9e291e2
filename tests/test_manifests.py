"""The committed manifest set: every file is a run the CLI accepts, and together they
cover every command.  The runs themselves are made by tests/manifests/run_manifests.py."""

import json
from pathlib import Path

from gaugelab import cli

SPECS = sorted((Path(__file__).parent / "manifests").glob("*.json"))


def resolved(spec):
    argv = json.loads(spec.read_text()).get("argv")
    if argv is None:
        return cli.ExperimentManifest.from_file(spec)
    return cli._manifest_from_args(cli._build_parser().parse_args(argv))


def test_every_run_parses_and_writes_to_its_own_name():
    for spec in SPECS:
        assert resolved(spec).out == spec.stem


def test_every_command_is_covered():
    assert {resolved(spec).command for spec in SPECS} == set(cli.COMMANDS)
