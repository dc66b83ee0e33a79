"""Exact output digests: canonical JSON, SHA-256, and the recorded reference.

Every output is reduced to JSON built only from strings, integers, booleans,
lists and dicts, with each exact scalar written the way the package writes it
(`scalar_to_json`: "num/den" for rationals, {"a", "b", "d"} for quadratic
numbers).  Two outputs hash alike only if they are bit-identical, including
the type of every scalar.  Stdlib only, so the runner can check digests
without importing the package it measures.
"""

import hashlib
import json
import os

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


def item_hash(canonical):
    text = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def workload_digest(item_hashes):
    """One digest over {item key: item hash}; independent of item order."""
    return item_hash(sorted(item_hashes.items()))


def load_golden(path=GOLDEN_PATH):
    with open(path) as fh:
        return json.load(fh)
