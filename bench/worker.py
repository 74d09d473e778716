"""Single-process worker for one workload; started by run.py.

    worker.py record  WORKLOAD SEED WORK   fixture recording pass + dry-run plans
    worker.py setup   WORKLOAD SEED WORK   time import + corpus load + fixture load
    worker.py measure WORKLOAD SEED WORK SECONDS TRACE

Each mode runs the real `hopcheck.cli.main` in this process, with one
worker and no extra threads, and writes its findings as JSON into WORK.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import re
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402


def _record(wl, seed: int, work: Path) -> None:
    from hopcheck import cli
    from hopcheck.llm_client import ChatResponse, RecordingBackend, ScriptedBackend, Usage

    corpus = wl.build(seed)
    respond = wl.make_responder(corpus)

    def responder(req):
        text, usage = respond(req.messages[0].content, req.model_id)
        return ChatResponse(text=text, usage=Usage(**usage))

    inner = ScriptedBackend(responder=responder)
    recorder = RecordingBackend(inner)
    cli._build_backend = lambda spec: recorder

    planned = 0
    for argv in wl.commands(work, work / "record_out"):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv + ["--dry-run"])
        match = re.search(r"at most (\d+) backend requests", buf.getvalue())
        # An unreadable plan counts as planning nothing, which fails the run.
        planned += int(match.group(1)) if code == 0 and match else -(10**9)
    _run_quiet(cli, wl.commands(work, work / "record_warm", warm=True))
    before = inner.calls
    codes = _run_quiet(cli, wl.commands(work, work / "record_out"))
    calls = inner.calls - before
    recorder.save(work / "fixture.json")
    (work / "record.json").write_text(json.dumps({"planned": planned, "calls": calls, "codes": codes}))


def _run_quiet(cli, commands: list[list[str]]) -> list[int]:
    """Exit codes; a crash is -1 so the measured run reports its failures."""
    codes = []
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                codes.append(cli.main(argv))
            except Exception:
                traceback.print_exc()
                codes.append(-1)
    return codes


def _setup(work: Path) -> None:
    start = time.perf_counter()
    import hopcheck.cli  # noqa: F401
    from hopcheck.data_model import load_canonical
    from hopcheck.llm_client import ScriptedBackend

    load_canonical(work / "instances.jsonl")
    ScriptedBackend.from_fixture(work / "fixture.json")
    print(json.dumps({"setup_s": time.perf_counter() - start}))


def _hash_outputs(out: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(out)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _passes(wl, work: Path, budget_s: float, on_pass_end=None, tracer=None) -> tuple[list[dict], str]:
    """Timed corpus passes over about `budget_s` seconds (at least one)."""
    from hopcheck import cli

    out = work / "out"
    passes: list[dict] = []
    started = time.perf_counter()
    crash = ""
    while True:
        gc.collect()
        wall = 0.0
        for argv in wl.commands(work, out):
            with contextlib.redirect_stdout(io.StringIO()):
                span = tracer.open_span("cli.main") if tracer else None
                t0 = time.perf_counter()
                try:
                    code = cli.main(argv)
                except Exception:  # a crashed command fails its unwritten items
                    code, crash = -1, traceback.format_exc(limit=4)
                wall += time.perf_counter() - t0
                if span is not None:
                    tracer.close_span(span)
            if code != 0:
                crash = crash or f"{argv[0]} exited {code}"
                break
        entry = {"wall_s": wall, "hash": _hash_outputs(out)}
        if on_pass_end is not None:
            entry.update(on_pass_end())
        passes.append(entry)
        elapsed = time.perf_counter() - started
        # Stop when another pass would end more than half a pass past the
        # budget, so the measured time is the budget give or take half a pass.
        if crash or elapsed + elapsed / len(passes) / 2 >= budget_s:
            return passes, crash


def _measure(wl, work: Path, seconds: float, trace: bool) -> None:
    from hopcheck import cli
    from tracer import ItemTimer, Tracer

    _run_quiet(cli, wl.commands(work, work / "warm_out", warm=True))
    timer = ItemTimer()
    timer.install()

    def take_latencies():
        lat = [ns / 1e6 for ns in timer.latencies_ns]
        timer.latencies_ns.clear()
        return {"item_ms": lat}

    budget = seconds / 2 if trace else seconds
    passes, crash = _passes(wl, work, budget, take_latencies)
    timer.uninstall()
    result = {"passes": passes, "crash": crash}
    if trace and not crash:
        tracer = Tracer()
        tracer.install()

        def end_pass():
            tracer.end_pass()
            return {}

        traced, crash = _passes(wl, work, seconds / 2, end_pass, tracer)
        tracer.uninstall()
        result.update({"traced_passes": traced, "crash": crash, "trace": tracer.summary()})
        tracer.dump(work.parent / f"trace-{wl.NAME}.json")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    (work / "measure.json").write_text(json.dumps(result))


def main(argv: list[str]) -> int:
    mode, name, seed, work = argv[0], argv[1], int(argv[2]), Path(argv[3])
    wl = workloads.BY_NAME[name]
    if mode == "record":
        _record(wl, seed, work)
    elif mode == "setup":
        _setup(work)
    elif mode == "measure":
        _measure(wl, work, float(argv[4]), argv[5] == "1")
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
