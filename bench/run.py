"""hopcheck benchmark: one workload, one seed, one JSON line of metrics.

    python3 bench/run.py --workload verify --seed 1 --seconds 20 --trace 0

Steps, all inside the checkout (working files under .bench_work/):
  1. build the workload's corpus from --seed and write the CLI inputs;
  2. recording pass in a worker process: the real CLI runs against the
     program's RecordingBackend wrapping a responder ScriptedBackend, which
     writes the fixture the measured runs replay; dry-run plans are read;
  3. set-up time, several times, each in a fresh interpreter;
  4. measured passes in one worker process for --seconds: the real CLI
     replays the fixture through `--config` (scripted backend); with
     --trace 1 half the time is traced with spans;
  5. correctness checks on the outputs; the metrics line goes last on
     stdout, a readable summary to stderr.

End-to-end metrics (--trace 0) are medians over the measured passes:
items per second of command wall time, the per-pass median and p95 item
latency (every workload has at least 200 items, so at least 10 lie
beyond p95), wall time per backend call, backend calls per item counted
in the recording pass, set-up time (median of several fresh
interpreters) and the worker's peak RSS. Items failing the workload's
check are reported as `failed` out of `attempted` (items x passes).
With --trace 1 the line holds the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

SETUP_REPEATS = 5
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "item_ms.p50": "ms",
    "item_ms.p95": "ms",
    "ms_per_call": "ms",
    "calls_per_item": "count",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    pass


def _worker(args: list[str], deadline: float) -> str:
    remaining = deadline - time.monotonic()
    if remaining <= 1:
        raise BenchError(f"no time left for worker {args[0]}")
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), *args],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args[0]} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} failed:\n{proc.stderr[-3000:]}")
    return proc.stdout


def _p95(values: list[float]) -> float:
    return statistics.quantiles(values, n=20)[18]


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    wl = workloads.BY_NAME[workload]
    work_root = ROOT / ".bench_work"
    work = work_root / f"{wl.NAME}-{seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        corpus = wl.build(seed)
        wl.write_inputs(corpus, work)
        (work / "config.json").write_text(json.dumps(
            {"backend": {"type": "scripted", "fixture": str(work / "fixture.json")}}
        ))
        common = [wl.NAME, str(seed), str(work)]
        _worker(["record", *common], deadline)
        record = json.loads((work / "record.json").read_text())
        setups = [
            json.loads(_worker(["setup", *common], deadline).strip().splitlines()[-1])["setup_s"]
            for _ in range(SETUP_REPEATS)
        ]
        _worker(["measure", *common, str(seconds), "1" if trace else "0"], deadline)
        measure = json.loads((work / "measure.json").read_text())
        shutil.copy(work / "measure.json", work_root / f"measure-{wl.NAME}.json")
        failures = wl.check(corpus, work / "out")
        return _report(wl, wl.items_per_pass(corpus), failures, record, setups, measure, trace, work_root)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _report(wl, items, failures, record, setups, measure, trace, work_root) -> dict:
    passes = measure["passes"]
    all_passes = passes + measure.get("traced_passes", [])
    problems = []
    if measure["crash"]:
        problems.append(f"command crashed: {measure['crash']}")
    if any(code != 0 for code in record["codes"]):
        problems.append(f"recording pass exit codes {record['codes']}")
    if record["planned"] < record["calls"]:
        problems.append(f"dry-run plans {record['planned']} requests, recording made {record['calls']}")
    if len({p["hash"] for p in all_passes}) > 1:
        problems.append("outputs differ between passes")
    timed = [len(p["item_ms"]) for p in passes]
    if any(n != items for n in timed):
        problems.append(f"timed {timed} items per pass, expected {items}")
    if problems:
        failures = failures + problems * items
    failed_per_pass = min(len(failures), items)
    attempted = items * len(all_passes)
    # Each statistic is taken per pass, then the median over passes, so a
    # pass slowed by a noisy neighbour moves the result less.
    pass_ms = statistics.median(p["wall_s"] for p in passes) * 1000.0
    e2e = {
        "items_per_s": statistics.median(items / p["wall_s"] for p in passes),
        "item_ms.p50": statistics.median(statistics.median(p["item_ms"]) for p in passes),
        "item_ms.p95": statistics.median(_p95(p["item_ms"]) for p in passes),
        "ms_per_call": pass_ms / max(record["calls"], 1),
        "calls_per_item": record["calls"] / items,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": measure["peak_rss_mb"],
    }
    summary = {
        "workload": wl.NAME,
        "items_per_pass": items,
        "passes": len(passes),
        "traced_passes": len(all_passes) - len(passes),
        "latency_samples": sum(len(p["item_ms"]) for p in passes),
        "backend_calls_per_pass": record["calls"],
        "dry_run_planned": record["planned"],
        "failed_ratio": failed_per_pass / items,
        "failures": dict(Counter(failures).most_common(20)),
        "end_to_end": e2e,
    }
    if trace:
        layer = dict(measure["trace"]["metrics"])
        layer["trace.overhead_ratio"] = statistics.median(p["wall_s"] for p in passes) / statistics.median(
            p["wall_s"] for p in measure["traced_passes"]
        )
        summary["per_layer"] = layer
        summary["trace_details"] = measure["trace"]["details"]
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layer.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    (work_root / f"summary-{wl.NAME}{'-trace' if trace else ''}.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True)
    )
    _print_summary(summary, metrics)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed_per_pass * len(all_passes),
        "metrics": metrics,
    }


def layer_unit(name: str) -> str:
    if name.endswith("self_ms_per_call"):
        return "ms/call"
    if name.endswith("_ms"):
        return "ms/pass"
    if name.endswith((".calls", ".failures")) or ".calls_by_prompt." in name:
        return "count/pass"
    return "ratio"


def _print_summary(summary: dict, metrics: dict) -> None:
    err = sys.stderr
    print(
        f"[{summary['workload']}] {summary['items_per_pass']} items/pass, "
        f"{summary['passes']} passes (+{summary['traced_passes']} traced), "
        f"{summary['latency_samples']} latency samples, "
        f"{summary['backend_calls_per_pass']} backend calls/pass "
        f"(dry-run plan {summary['dry_run_planned']}), failed_ratio {summary['failed_ratio']:.4f}",
        file=err,
    )
    for message, count in summary["failures"].items():
        print(f"  FAIL x{count} {message}", file=err)
    for name, m in metrics.items():
        print(f"  {name:52s} {m['value']:14.4f} {m['unit']}", file=err)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BY_NAME))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hopcheck" / "cli.py").is_file():
        print(f"error: no hopcheck sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
