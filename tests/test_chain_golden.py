"""Every benchmark item replays to the exact output recorded for the benchmark.

These are the reduction chains, the conifold period, the point counts, the
guessed operators, the eta-form tables, the local solutions with their
annihilation orders at every printed point of the local-solutions workload,
and the `pf` commands of the cli workload, run in this process.  The
benchmark's golden data hashes each item's output in canonical JSON, so a
chain step, a period coefficient, a count or a Frobenius table that changes
by one scalar, or only in the type of a scalar (a QuadraticNumber against a
Fraction of equal value), fails here; a command fails on one byte of its
stdout or on its exit code.  The harness files are loaded by path and only
read.
"""

import contextlib
import importlib.util
import io
import pathlib
import sys

import pytest

from picardfuchs.cli import main

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _load(name, filename):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / filename)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_workloads():
    # workloads.py imports its sibling commands.py by plain name
    commands = sys.modules["commands"] = _load("commands", "commands.py")
    try:
        return commands, _load("perfbench_workloads", "workloads.py")
    finally:
        del sys.modules["commands"]


DIGEST = _load("perfbench_digest", "digest.py")
COMMANDS, WORKLOADS = _load_workloads()
REDUCTIONS = WORKLOADS.WORKLOADS["reductions"]
LOCAL = WORKLOADS.WORKLOADS["local-solutions"]
GOLDEN = {name: w["items"] for name, w in DIGEST.load_golden()["workloads"].items()}
CHAIN_KEYS = [key for key in REDUCTIONS.universe() if key.startswith("chain:")]
KERNEL_KEYS = [key for key in REDUCTIONS.universe() if key.startswith(("conifold:", "count:"))]
SERIES_KEYS = [key for key in REDUCTIONS.universe() if key.startswith(("guess:", "forms:"))]
POINT_KEYS = LOCAL.universe()
CLI = WORKLOADS.WORKLOADS["cli"]
CLI_KEYS = CLI.universe()


def _replays_to_golden(workload, key):
    record = WORKLOADS.run_item(workload, key, workload.setup([key]))
    assert record["error"] is None, record["error"]
    assert record["ok"]
    assert DIGEST.item_hash(record["output"]) == GOLDEN[workload.name][key]


def test_every_chain_has_a_recorded_hash():
    assert len(CHAIN_KEYS) == 11
    assert set(CHAIN_KEYS) <= set(GOLDEN["reductions"])


@pytest.mark.parametrize("key", CHAIN_KEYS)
def test_chain_output_matches_golden_hash(key):
    _replays_to_golden(REDUCTIONS, key)


def test_period_and_counts_have_recorded_hashes():
    assert KERNEL_KEYS == ["conifold:40", "count:13", "count:43", "count:73"]
    assert set(KERNEL_KEYS) <= set(GOLDEN["reductions"])


@pytest.mark.parametrize("key", KERNEL_KEYS)
def test_period_and_count_match_golden_hash(key):
    _replays_to_golden(REDUCTIONS, key)


def test_guesses_and_forms_have_recorded_hashes():
    # the four guessed operators and every eta form make the rest of the workload
    assert len(SERIES_KEYS) == len(REDUCTIONS.universe()) - len(CHAIN_KEYS) - len(KERNEL_KEYS)
    assert sum(key.startswith("guess:") for key in SERIES_KEYS) == 4
    assert set(SERIES_KEYS) <= set(GOLDEN["reductions"])


@pytest.mark.parametrize("key", SERIES_KEYS)
def test_guess_and_form_match_golden_hash(key):
    _replays_to_golden(REDUCTIONS, key)


def test_every_printed_point_has_a_recorded_hash():
    assert len(POINT_KEYS) == 75
    assert set(POINT_KEYS) == set(GOLDEN["local-solutions"])


@pytest.mark.parametrize("key", POINT_KEYS)
def test_local_solutions_match_golden_hash(key):
    _replays_to_golden(LOCAL, key)


def test_every_command_has_a_recorded_hash():
    assert len(CLI_KEYS) == 12
    assert set(CLI_KEYS) == set(GOLDEN["cli"])


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    return CLI.setup(CLI_KEYS, str(tmp_path_factory.mktemp("cli")))


@pytest.mark.parametrize("key", CLI_KEYS)
def test_command_output_matches_golden_hash(key, cli_inputs):
    argv = [a.replace("{dir}", cli_inputs) for a in COMMANDS.CLI_COMMANDS[key]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert DIGEST.item_hash({"exit": code, "stdout": out.getvalue()}) == GOLDEN["cli"][key]
