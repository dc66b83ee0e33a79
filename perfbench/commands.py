"""The `pf` command script of the cli workload; stdlib only, shared by run.py and the worker."""

import random

# command key -> pf arguments; {dir} is the directory of input files the worker writes
CLI_COMMANDS = {
    "symbol": ["symbol", "{dir}/op33.json"],
    "symbol-json": ["symbol", "{dir}/op4.json", "--all", "--json"],
    "classify": ["classify", "{dir}/op4.json", "--json"],
    "transform-mobius": ["transform", "{dir}/op98.json", "--mobius=0,1,1,-1"],
    "transform-yukawa": ["transform", "{dir}/op33.json", "--yukawa", "--json"],
    "qexp": ["qexp", "--form", "6/1", "--terms", "200"],
    "count": ["count", "--arrangement", "69", "--prime", "23", "--json"],
    "reproduce": ["reproduce", "98descent"],
    "guess": ["guess", "--series", "{dir}/series4.json"],
    "period": ["period", "--poly", "{dir}/tetra.json", "--terms", "20"],
    "verify-forms": ["verify-forms"],
    "catalog-dump": ["catalog", "dump"],
}


def cli_keys(seed):
    """The commands of one pass, in seed order."""
    keys = sorted(CLI_COMMANDS)
    random.Random(seed).shuffle(keys)
    return keys
