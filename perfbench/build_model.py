"""Train a desk or lexicon model and save it; run as a child of run.py.

    python3 perfbench/build_model.py KIND TRAIN,HELDOUT OUT
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tdparse import model_io  # noqa: E402

import workloads  # noqa: E402


def main(argv: list[str]) -> int:
    kind, sizes, out = argv
    train, heldout = (int(x) for x in sizes.split(","))
    model, _ = workloads.train_model(kind, (train, heldout, 0))
    model_io.save_model(model, out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
