"""Benchmark harness for tdparse: one process, one thread, one closed-loop client.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 20 --trace 0

Workloads (see README.md in this directory for why each exists):

* desk      parse + word probabilities + PARSEVAL per held-out sentence
* lexicon   the same op with the NN slot relexicalized to ~3,000 types
* nextword  vocab_mass at every prefix of held-out sentences
* train     train_parser_model + save_model on the scaled desk corpus

Inputs are generated from ``--seed``.  Ops run back to back in whole
passes over the workload's items until their summed time reaches
``--seconds``, and for at least MIN_PASSES passes; each item's time is
the fastest of its passes.  Every output is checked (and, for seeds
listed in digests.json, compared with the digest recorded at the commit
that introduced the benchmark).  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones;
with ``--trace 1`` every op runs once plain and once traced, and the
metrics are the per-layer ones plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import calibration

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
WORKDIR = ROOT / ".bench_build" / "perfbench"
MODEL_CACHE = WORKDIR / "models"

# Machine speed comes in bursts and slow stretches (see calibration.py).
# Each item runs once per pass, over at least MIN_PASSES passes seconds
# apart, and keeps its fastest; the set-up step is timed SETUP_REPEATS
# times first and once more after every pass.
MIN_PASSES = 3
SETUP_REPEATS = 5
MAX_REPORTED_FAILURES = 3


def import_library() -> bool:
    """Put the checkout's ``src`` first on the path and import tdparse from it."""
    sys.path.insert(0, str(SRC))
    try:
        import tdparse
    except ImportError:
        return False
    return Path(tdparse.__file__).resolve().parent == SRC / "tdparse"


def load_digests() -> dict:
    with open(DIGESTS, encoding="utf-8") as f:
        return json.load(f)


class Runner:
    """Runs one workload's ops, checks them and keeps the tallies."""

    def __init__(self, workload, expected: list[str] | None):
        self.wl = workload
        self.expected = expected or []
        self.attempted = 0
        self.failed = 0
        self.digests_checked = 0

    def execute(self, index: int, tracer=None):
        """Run op ``index``; return (start, seconds, words), or None if it failed."""
        wl = self.wl
        item = wl.items[index % len(wl.items)]
        self.attempted += 1
        try:
            inp = wl.fresh_input(item)
            if tracer is None:
                t0 = perf_counter()
                out = wl.run_op(inp)
                seconds = perf_counter() - t0
            else:
                with tracer.installed(), tracer.op():
                    t0 = perf_counter()
                    out = wl.run_op(inp)
                    seconds = perf_counter() - t0
            problems = wl.check(item, out)
            slot = index % len(wl.items)
            if slot < len(self.expected):
                self.digests_checked += 1
                got = wl.digest(item, out)
                if got != self.expected[slot]:
                    problems.append(f"digest {got} != recorded {self.expected[slot]}")
            if problems:
                raise AssertionError("; ".join(problems))
        except Exception:
            self.failed += 1
            if self.failed <= MAX_REPORTED_FAILURES:
                print(f"op {index} failed:", file=sys.stderr)
                traceback.print_exc()
            return None
        return t0, seconds, wl.words(out)


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(runner: Runner, seconds: float, tracer=None) -> dict:
    """Run whole passes over the items until their summed time reaches ``seconds``.

    Without a tracer, keep (slot, start, seconds) of every op that passed
    its checks.  With one, each op runs twice, plain and traced, in
    alternating order so neither side always finds the caches warm.  The
    set-up step is timed SETUP_REPEATS times first and once more after
    every pass, so its samples span the run.  Without a tracer, the
    calibration kernel is sampled throughout.
    """
    wl = runner.wl
    cal = calibration.Calibration()
    with cal.sampling() if tracer is None else contextlib.nullcontext():
        setups = [wl.time_load() for _ in range(SETUP_REPEATS)]
        ops = []
        words = [0] * len(wl.items)
        plain_time = traced_time = 0.0
        traced_words = traced_ops = 0
        busy = 0.0
        index = passes = 0
        while passes < MIN_PASSES or busy < seconds:
            for slot in range(len(wl.items)):
                t0 = perf_counter()
                if tracer is None:
                    done = runner.execute(index)
                    if done:
                        ops.append((slot, done[0], done[1]))
                        words[slot] = done[2]
                        busy += done[1]
                else:
                    order = (None, tracer) if index % 2 == 0 else (tracer, None)
                    pair = [runner.execute(index, t) for t in order]
                    plain, traced = pair if index % 2 == 0 else pair[::-1]
                    done = plain and traced
                    if done:
                        plain_time += plain[1]
                        traced_time += traced[1]
                        traced_words += traced[2]
                        traced_ops += 1
                        busy += plain[1] + traced[1]
                if not done:
                    busy += perf_counter() - t0      # a failed op still uses its time
                index += 1
            passes += 1
            setups.append(wl.time_load())
    return {
        "ops": ops,
        "words": words,
        "passes": passes,
        "setups": setups,
        "calibration": cal,
        "plain_time": plain_time,
        "traced_time": traced_time,
        "traced_words": traced_words,
        "traced_ops": traced_ops,
    }


def end_to_end(m: dict, calibrated: bool) -> dict[str, float]:
    """The timing metrics from each item's fastest pass and the fastest set-up.

    Every time is net of the kernel samples taken inside it.  The fastest
    is chosen on that time; with ``calibrated``, it is then divided by the
    machine's slowness over it (see calibration.py).
    """
    cal = m["calibration"]

    def fastest(samples: list[tuple[float, float]]) -> float:
        start, seconds = min(samples, key=lambda sample: cal.net(*sample))
        net = cal.net(start, seconds)
        return net / cal.slowness(start, start + seconds) if calibrated else net

    by_slot: dict[int, list[tuple[float, float]]] = {}
    for slot, start, seconds in m["ops"]:
        by_slot.setdefault(slot, []).append((start, seconds))
    times = [fastest(samples) for samples in by_slot.values()]
    words = sum(m["words"][slot] for slot in by_slot)
    return {
        "setup_s": fastest(m["setups"]),
        "words_per_s": words / sum(times) if times else 0.0,
        "op_ms_p50": 1000.0 * statistics.median(times) if times else 0.0,
        "op_ms_p90": 1000.0 * percentile(times, 90) if times else 0.0,
    }


@contextlib.contextmanager
def open_workload(name: str, seed: int, sizes=None):
    """Yield the set-up workload, with a scratch directory."""
    import workloads

    WORKDIR.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORKDIR))
    try:
        wl = workloads.make_workload(name, seed, workdir, MODEL_CACHE, sizes or workloads.SIZES)
        wl.setup()
        yield wl
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 sizes=None, digests: dict | None = None) -> tuple[dict, list[str]]:
    """Set up and measure one workload; return (result object, info lines)."""
    import tracing

    if digests is None:
        digests = load_digests()
    with open_workload(name, seed, sizes) as wl:
        expected = digests.get(name, {}).get(str(seed))
        runner = Runner(wl, expected)
        tracer = tracing.Tracer() if trace else None
        m = measure(runner, seconds, tracer)

    raw = end_to_end(m, calibrated=False)
    if trace:
        metrics = tracing.layer_metrics(tracer, m["traced_words"], m["traced_ops"], name)
        metrics["model_io.load_s"] = raw["setup_s"] if name != "train" else 0.0
        raw = {"setup_s": raw["setup_s"]}        # traced runs keep no per-item times
        metrics["model_io.model_bytes"] = float(wl.model_bytes)
        plain = m["plain_time"]
        metrics["trace.overhead_pct"] = 100.0 * (m["traced_time"] / plain - 1.0) if plain else 0.0
        units = spec_units("per_layer")
    else:
        metrics = end_to_end(m, calibrated=True)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = spec_units("end_to_end")
    cal = m["calibration"]
    result = {
        "correct": runner.failed == 0 and runner.attempted > 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    info = [
        f"workload={name} seed={seed} trace={int(trace)} op={wl.op_unit!r} "
        f"items={len(wl.items)} passes={m['passes']} timed_ops={len(m['ops'])} "
        f"setup_repeats={len(m['setups'])} calibration_samples={len(cal.times)}",
        "uncalibrated " + " ".join(f"{key}={value:.6g}" for key, value in raw.items()),
        f"digests_checked={runner.digests_checked} "
        f"recorded={'yes' if expected else 'no (seed not in digests.json)'}",
    ]
    info.extend(f"{key}={value:.4f}" for key, value in wl.info.items())
    return result, info


def spec_units(section: str) -> dict[str, str]:
    """Metric name -> unit for one section of BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec[section]}


def record(wl) -> list[str]:
    """Digest of every item's output, run once each and checked."""
    digests = []
    for index, item in enumerate(wl.items):
        out = wl.run_op(wl.fresh_input(item))
        problems = wl.check(item, out)
        if problems:
            raise AssertionError(f"{wl.name} item {index}: " + "; ".join(problems))
        digests.append(wl.digest(item, out))
    return digests


def print_result(result: dict, info: list[str]) -> None:
    for line in info:
        print(line)
    print(json.dumps(result))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        print("error=--seconds must be positive", file=sys.stderr)
        return 2
    if not import_library():
        print(f"error=tdparse sources not found under {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"error=unknown workload {args.workload!r}; choose from "
              + ", ".join(workloads.NAMES), file=sys.stderr)
        return 2
    result, info = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_result(result, info)
    return 0


if __name__ == "__main__":
    sys.exit(main())
