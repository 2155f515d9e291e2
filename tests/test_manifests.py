"""The committed manifest set: every file is a run the CLI accepts, and together they
cover every command; each declares only parameters of its command, and each run not
named bad-* reads them.  The runs themselves are made by tests/manifests/run_manifests.py."""

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


def test_every_run_declares_only_the_parameters_of_its_command():
    undeclared = {}
    for spec in SPECS:
        manifest = resolved(spec)
        table = cli._PARAMS[manifest.command]
        keys = {key for key in manifest.params if table.get(key) is cli._FILE}
        if keys:
            undeclared[spec.stem] = keys
    assert undeclared == {"bad-undeclared-param": {"normalise"}}


def test_every_good_run_reads_its_parameters():
    for spec in SPECS:
        if not spec.stem.startswith("bad-"):
            cli._params(resolved(spec))   # bad input here would turn a good run into exit 2
