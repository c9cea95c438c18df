"""Fast self-check of the benchmark harness at tiny corpus sizes.

    python3 -m pytest -q perfbench/test_harness.py

It confirms that every metric BENCHMARK.json names is printed with its
unit, in both modes and on every workload, that a corrupted expected
digest makes its op count as failed, and that calibration picks the
kernel samples near an op.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE)]

import run  # noqa: E402

assert run.import_library(), "tdparse must import from the checkout's src"

import workloads  # noqa: E402

TINY = (60, 12, 6)
SEED = 3


def spec() -> dict:
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def printed(result, info, capsys) -> dict:
    run.print_result(result, info)
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("name", workloads.NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_printed_with_unit(name, trace, capsys):
    result, info = run.run_workload(name, SEED, 0.05, trace, sizes=TINY, digests={})
    out = printed(result, info, capsys)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    section = spec()["per_layer" if trace else "end_to_end"]
    assert set(out["metrics"]) == {m["name"] for m in section}
    for m in section:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


@pytest.mark.parametrize("name", workloads.NAMES)
def test_corrupted_digest_fails_its_op(name, capsys):
    with run.open_workload(name, SEED, TINY) as wl:
        recorded = run.record(wl)
    good, _ = run.run_workload(name, SEED, 0.05, False, sizes=TINY,
                               digests={name: {str(SEED): recorded}})
    assert good["failed"] == 0 and good["correct"] is True

    corrupted = list(recorded)
    corrupted[0] = "0" * len(corrupted[0])
    bad, _ = run.run_workload(name, SEED, 0.05, False, sizes=TINY,
                              digests={name: {str(SEED): corrupted}})
    capsys.readouterr()
    assert bad["correct"] is False and bad["failed"] >= 1
    if len(recorded) > 1:
        assert bad["failed"] < bad["attempted"]    # only the corrupted item fails


def test_calibration_uses_the_kernel_samples_near_an_op():
    import calibration

    cal = calibration.Calibration()
    cal.starts = [0.0, 1.0, 1.2, 5.0]
    cal.times = [0.001, 0.004, 0.005, 0.002]
    ref = calibration.REFERENCE_SECONDS
    assert cal.slowness(1.1, 1.15) == 0.004 / ref        # 0.0 and 5.0 are too far
    assert cal.slowness(3.0, 3.1) == 0.002 / ref         # none near: the neighbours
    # A training-length op: the mean of each second's fastest sample.
    assert cal.slowness(0.0, 5.0) == pytest.approx((0.001 + 0.004 + 4 * 0.002) / 6 / ref)
    assert cal.net(0.5, 1.0) == pytest.approx(1.0 - 0.004 - 0.005)
