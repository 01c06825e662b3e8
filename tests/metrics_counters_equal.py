#!/usr/bin/env python3
"""Exit 0 iff two obs metrics files export the same counters under a prefix.

    metrics_counters_equal.py PREFIX A.json B.json

Every counter whose name starts with PREFIX must be present in both files
with the same value, and there must be at least one.
"""
import json
import sys


def counters(path, prefix):
    with open(path) as f:
        doc = json.load(f)
    return {k: v for k, v in doc.get("counters", {}).items() if k.startswith(prefix)}


def main(argv):
    if len(argv) != 4:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    prefix, path_a, path_b = argv[1:]
    a, b = counters(path_a, prefix), counters(path_b, prefix)
    if not a and not b:
        print(f"no '{prefix}*' counters in either file")
        return 1
    if a != b:
        for key in sorted(set(a) | set(b)):
            if a.get(key) != b.get(key):
                print(f"{key}: {a.get(key, 'missing')} vs {b.get(key, 'missing')}")
        return 1
    print(f"{len(a)} '{prefix}*' counters equal")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
