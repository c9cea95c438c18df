"""Record the expected output digests that run.py checks every op against.

    python3 perfbench/record_digests.py --seeds 0-20

Runs every item of each workload once per seed, untimed, applies the
output checks, and merges the per-item digests into digests.json.  Run it
only at a commit whose behaviour is the reference: afterwards any change
to a parse tree, word probability, PARSEVAL score, next-word distribution
or model byte shows up as failed ops.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", required=True, type=seed_range, help="e.g. 0-19")
    args = ap.parse_args(argv)
    if not run.import_library():
        print(f"error=tdparse sources not found under {run.SRC}", file=sys.stderr)
        return 2
    import workloads

    table = run.load_digests() if run.DIGESTS.exists() else {}
    for name in workloads.NAMES:
        for seed in args.seeds:
            with run.open_workload(name, seed) as wl:
                table.setdefault(name, {})[str(seed)] = run.record(wl)
            print(f"recorded workload={name} seed={seed}", flush=True)
    write_table(table, run.DIGESTS)
    return 0


def write_table(table: dict, path) -> None:
    """JSON with one line per workload and seed, so diffs stay readable."""
    blocks = []
    for name in sorted(table):
        rows = [
            f'"{seed}": {json.dumps(table[name][seed], separators=(",", ":"))}'
            for seed in sorted(table[name], key=int)
        ]
        blocks.append(f'"{name}": {{\n' + ",\n".join(rows) + "\n}")
    with open(path, "w", encoding="utf-8") as f:
        f.write("{\n" + ",\n".join(blocks) + "\n}\n")


if __name__ == "__main__":
    sys.exit(main())
