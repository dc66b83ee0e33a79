"""Every reduction chain, the conifold period and the point counts replay to the exact output recorded for the benchmark.

The benchmark's golden data hashes each item's output in canonical JSON, so a
chain step, a period coefficient or a count that changes by one scalar, or
only in the type of a scalar (a QuadraticNumber against a Fraction of equal
value), fails here.  The harness files are loaded by path and only read.
"""

import importlib.util
import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _load(name, filename):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / filename)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_workloads():
    # workloads.py imports its sibling commands.py by plain name
    sys.modules["commands"] = _load("commands", "commands.py")
    try:
        return _load("perfbench_workloads", "workloads.py")
    finally:
        del sys.modules["commands"]


DIGEST = _load("perfbench_digest", "digest.py")
WORKLOADS = _load_workloads()
REDUCTIONS = WORKLOADS.WORKLOADS["reductions"]
GOLDEN = DIGEST.load_golden()["workloads"]["reductions"]["items"]
CHAIN_KEYS = [key for key in REDUCTIONS.universe() if key.startswith("chain:")]
KERNEL_KEYS = [key for key in REDUCTIONS.universe() if key.startswith(("conifold:", "count:"))]


def test_every_chain_has_a_recorded_hash():
    assert len(CHAIN_KEYS) == 11
    assert set(CHAIN_KEYS) <= set(GOLDEN)


@pytest.mark.parametrize("key", CHAIN_KEYS)
def test_chain_output_matches_golden_hash(key):
    record = WORKLOADS.run_item(REDUCTIONS, key, {})
    assert record["error"] is None, record["error"]
    assert record["ok"]
    assert DIGEST.item_hash(record["output"]) == GOLDEN[key]


def test_period_and_counts_have_recorded_hashes():
    assert KERNEL_KEYS == ["conifold:40", "count:13", "count:43", "count:73"]
    assert set(KERNEL_KEYS) <= set(GOLDEN)


@pytest.mark.parametrize("key", KERNEL_KEYS)
def test_period_and_count_match_golden_hash(key):
    record = WORKLOADS.run_item(REDUCTIONS, key, REDUCTIONS.setup([key]))
    assert record["error"] is None, record["error"]
    assert record["ok"]
    assert DIGEST.item_hash(record["output"]) == GOLDEN[key]
