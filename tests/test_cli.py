import gc
import json
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from hopcheck import cli
from hopcheck.cli import main
from hopcheck.data_model import Dataset, Passage, QAInstance, canonical_row, write_jsonl
from hopcheck.feedback_loop import render_passages
from hopcheck.llm_client import (
    _DIGEST_CHUNK, ChatResponse, RecordingBackend, ScriptedBackend, TransportError,
)

FIXTURES = Path(__file__).parent / "fixtures"


def make_instance(iid="q1", answer="Paris") -> QAInstance:
    passages = tuple(
        Passage(i, f"Title {i}", f"Body text for passage {i}.", i <= 2) for i in range(1, 11)
    )
    return QAInstance(iid, "Where?", passages, (answer,), Dataset.HOTPOTQA, 0)


def write_corpus(path, instances):
    write_jsonl(path, map(canonical_row, instances))
    return str(path)


def write_fixture(path, texts):
    path.write_text(json.dumps([{"text": t} for t in texts]))
    return str(path)


def hotpot_file(tmp_path):
    record = {
        "_id": "h1",
        "question": "Who?",
        "answer": "Somebody",
        "context": [["Gold", ["A gold sentence."]]]
        + [[f"D{i}", [f"Distractor {i}."]] for i in range(11)],
        "supporting_facts": [["Gold", 0]],
    }
    path = tmp_path / "raw.json"
    path.write_text(json.dumps([record]))
    return str(path)


def test_usage_error_returns_2(capsys):
    assert main([]) == 2
    assert main(["run"]) == 2  # missing required flags
    assert main(["verify-benchmark", "--in", "x", "--out", "y", "--mode", "bogus"]) == 2
    assert main(["run", "--in", "x", "--out", "y", "--mode", "bogus"]) == 2


def test_missing_input_file_returns_1(tmp_path, capsys):
    rc = main(["ingest", "--in", str(tmp_path / "nope.json"), "--dataset", "hotpotqa",
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["ingest", "--dataset", "hotpotqa", "--dry-run"],
    ["stats", "--dry-run"],
    ["stats", "--config", "cfg.json"],
], ids=["ingest-dry-run", "stats-dry-run", "stats-config"])
def test_flags_that_did_nothing_are_usage_errors(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main([argv[0], "--in", hotpot_file(tmp_path), "--out", str(out), *argv[1:]]) == 2
    assert not out.exists()


@pytest.mark.parametrize("which", ["config", "fixture", "hotpotqa"])
def test_truncated_json_input_error_names_its_path(tmp_path, capsys, which):
    truncated = tmp_path / "truncated.json"
    truncated.write_text('{"backend": {"type": ')
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"backend": {"type": "scripted", "fixture": str(truncated)}}))
    argv = {
        "config": ["ingest", "--in", hotpot_file(tmp_path), "--dataset", "hotpotqa",
                   "--config", str(truncated)],
        "fixture": ["verify-benchmark", "--in", write_corpus(tmp_path / "c.jsonl", [make_instance()]),
                    "--config", str(cfg)],
        "hotpotqa": ["ingest", "--in", str(truncated), "--dataset", "hotpotqa"],
    }[which]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(truncated) in err


@pytest.mark.parametrize("content, entry", [
    ("{}", None),
    ('{"a": 1}', None),
    ("[1]", 0),
    ('[{"text": "ok"}, {"usage": {}}]', 1),
    ('[{"text": "ok"}, {"text": 5}]', 1),
    ('[{"text": "ok", "key": ["k"]}]', 0),
    ('[{"text": "ok"}, {"text": "ok", "usage": {"prompt_tok": 1}}]', 1),
    ('[{"text": "ok", "usage": {"prompt_tokens": -1}}]', 0),
    ('[{"text": "ok", "usage": {"prompt_tokens": 1.5}}]', 0),
    ('[{"text": "ok", "usage": {"prompt_tokens": true}}]', 0),
    ('[{"text": "ok", "usage": {"completion_tokens": 2.0}}]', 0),
], ids=["empty-object", "object", "number-entry", "no-text", "number-text", "list-key",
        "unknown-usage-key", "negative-usage", "fractional-usage", "bool-usage", "float-usage"])
def test_malformed_fixture_error_names_its_path_and_entry(tmp_path, capsys, content, entry):
    fixture = tmp_path / "fx.json"
    fixture.write_text(content)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"backend": {"type": "scripted", "fixture": str(fixture)}}))
    out = tmp_path / "out"
    assert main(["verify-benchmark", "--in", write_corpus(tmp_path / "c.jsonl", [make_instance()]),
                 "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {fixture}: ") and err.count("\n") == 1
    if entry is not None:
        assert f": entry {entry}: " in err
    assert not out.exists()


@pytest.mark.parametrize("key", ["backend", "evaluator_backend"])
@pytest.mark.parametrize("spec, problem", [
    ("scripted", "backend spec 'scripted' is not a JSON object"),
    ({"type": "scripted", "fixture": 0}, "backend 'fixture' 0 is not a path string"),
    ({"type": "scripted", "fixture": 7}, "backend 'fixture' 7 is not a path string"),
    ({"type": "openai", "base_url": 5}, "backend 'base_url' and 'api_key_env' must be strings"),
    ({"type": "openai", "base_url": "http://localhost:9", "api_key_env": 1},
     "backend 'base_url' and 'api_key_env' must be strings"),
], ids=["string", "fixture-0", "fixture-7", "base-url-number", "key-env-number"])
def test_bad_backend_spec_is_a_config_error(tmp_path, capsys, key, spec, problem):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: spec}))
    out = tmp_path / "out"
    assert main(["run", "--in", write_corpus(tmp_path / "c.jsonl", [make_instance()]),
                 "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {problem}\n"
    assert not out.exists()


@pytest.mark.parametrize("dry_run", [[], ["--dry-run"]], ids=["real", "dry-run"])
@pytest.mark.parametrize("command, key, value", [
    (["verify-benchmark"], "model", 5),
    (["run", "--mode", "safe"], "generator_model", 7),
    (["run", "--mode", "safe"], "evaluator_model", None),
], ids=["verify-model", "run-generator-model", "run-evaluator-model"])
def test_model_id_that_is_not_a_string_is_a_config_error(
    tmp_path, capsys, monkeypatch, dry_run, command, key, value
):
    built = []
    monkeypatch.setattr(cli, "_build_backend", lambda spec: built.append(spec) or ScriptedBackend())
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    out = tmp_path / "out"
    assert main([*command, "--in", write_corpus(tmp_path / "c.jsonl", [make_instance()]),
                 "--config", str(cfg), "--out", str(out), *dry_run]) == 1
    assert capsys.readouterr() == ("", f"error: {key} {value!r} is not a string\n")
    assert built == [] and not out.exists()


@pytest.mark.parametrize("mode, code", [("none", 0), ("self", 0), ("safe", 1)])
def test_evaluator_backend_is_built_only_in_safe_mode(tmp_path, capsys, mode, code):
    fixture = write_fixture(tmp_path / "fx.json", ["Step 1: ####ANSWER: Paris (Final Answer)", "{}"])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "backend": {"type": "scripted", "fixture": fixture}, "evaluator_backend": {"type": "bogus"},
    }))
    out = tmp_path / "out"
    assert main(["run", "--in", write_corpus(tmp_path / "c.jsonl", [make_instance()]),
                 "--mode", mode, "--k", "1", "--config", str(cfg), "--out", str(out)]) == code
    err = capsys.readouterr().err
    if code:
        assert err == "error: unknown backend type 'bogus'\n"
        assert not out.exists()
    else:
        assert err == ""
        assert json.loads((out / "runs.jsonl").read_text())["answer"] == "Paris"


def test_ingest_idempotent_and_echoes_config(tmp_path):
    raw = hotpot_file(tmp_path)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["ingest", "--in", raw, "--dataset", "hotpotqa", "--seed", "7",
                 "--out", str(out1)]) == 0
    assert main(["ingest", "--in", raw, "--dataset", "hotpotqa", "--seed", "7",
                 "--out", str(out2)]) == 0
    assert (out1 / "instances.jsonl").read_bytes() == (out2 / "instances.jsonl").read_bytes()
    resolved = json.loads((out1 / "resolved_config.json").read_text())
    assert resolved["command"] == "ingest"
    assert resolved["seed"] == 7


def test_config_file_with_flag_override(tmp_path):
    raw = hotpot_file(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dataset": "hotpotqa", "seed": 3}))
    out = tmp_path / "out"
    assert main(["ingest", "--in", raw, "--config", str(cfg), "--seed", "9",
                 "--out", str(out)]) == 0
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["seed"] == 9  # flag wins
    assert resolved["dataset"] == "hotpotqa"  # config fallback


def test_run_smoke_mode_none(tmp_path, capsys):
    corpus = write_corpus(tmp_path / "c.jsonl", [make_instance("a"), make_instance("b")])
    fixture = write_fixture(
        tmp_path / "fx.json",
        ["Step 1: ####ANSWER: Paris (Final Answer)"] * 2,
    )
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"backend": {"type": "scripted", "fixture": fixture}}))
    out = tmp_path / "out"
    rc = main(["run", "--in", corpus, "--mode", "none", "--k", "3", "--n", "1",
               "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    runs = [json.loads(l) for l in (out / "runs.jsonl").read_text().splitlines()]
    assert [r["answer"] for r in runs] == ["Paris", "Paris"]
    agg = json.loads((out / "aggregate.json").read_text())
    assert agg["runs"] == 2 and agg["retries"] == 0
    assert (out / "ledger.json").exists()
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["mode"] == "none"
    assert "backend" not in resolved


def test_run_dry_run_makes_no_backend_calls(tmp_path, capsys):
    corpus = write_corpus(tmp_path / "c.jsonl", [make_instance("a")])
    cfg = tmp_path / "cfg.json"
    # fixture path does not exist: building the backend would fail loudly
    cfg.write_text(json.dumps({"backend": {"type": "scripted", "fixture": "/does/not/exist"}}))
    rc = main(["run", "--in", corpus, "--mode", "safe", "--k", "10", "--n", "3",
               "--config", str(cfg), "--dry-run", "--out", str(tmp_path / "out")])
    assert rc == 0
    msg = capsys.readouterr().out
    assert "dry-run" in msg
    assert str(10 * 4 * 2 + 1) in msg  # K(N+1) per role + forced answer


_PLANNED_COMMANDS = {
    "verify-deterministic": ["verify-benchmark", "--mode", "deterministic"],
    "verify-llm": ["verify-benchmark", "--mode", "llm"],
    "verify-cross-check": ["verify-benchmark", "--mode", "cross-check"],
    "run-none": ["run", "--mode", "none"],
    "run-self": ["run", "--mode", "self"],
    "run-safe": ["run", "--mode", "safe"],
    "synthesize": ["synthesize"],
    "score-judge": ["score", "--judge", "on"],
}


@pytest.mark.parametrize("reply", ["not json", "[]", None], ids=["not-json", "empty-list", "transport-error"])
@pytest.mark.parametrize("command", list(_PLANNED_COMMANDS))
def test_real_calls_stay_within_the_dry_run_plan(tmp_path, capsys, monkeypatch, command, reply):
    from fixture_utils import build_instance, load_noise_fixtures

    records = load_noise_fixtures()["grounded"] + load_noise_fixtures()["noise"]
    argv = [*_PLANNED_COMMANDS[command],
            "--in", write_corpus(tmp_path / "c.jsonl", map(build_instance, records))]
    if command == "score-judge":
        runs = tmp_path / "runs.jsonl"
        write_jsonl(runs, [{"instance_id": r["id"], "answer": "somewhere"} for r in records])
        argv += ["--runs", str(runs)]
    assert main([*argv, "--dry-run", "--out", str(tmp_path / "plan")]) == 0
    planned = int(re.search(r"at most (\d+) backend requests", capsys.readouterr().out).group(1))

    def respond(req):
        if reply is None:
            raise TransportError("backend down", 1)
        return ChatResponse(text=reply)

    backend = ScriptedBackend(responder=respond)
    monkeypatch.setattr(cli, "_build_backend", lambda spec: backend)
    # Exit 0 or 1 (synthesize stops at its first failure); only the count is checked.
    main([*argv, "--out", str(tmp_path / "out")])
    assert 0 < backend.calls <= planned


def _loop_reply(req):
    """A reply that depends only on the prompt: steps cite passages until
    instance i's Final Answer at step 3 + i % 3 (every fourth instance
    never answers); the first attempt at each even step is a guess the
    evaluator rejects."""
    text = req.messages[0].content
    i = int(re.search(r"landmark (\d+)\?", text).group(1))
    if "\nStep to evaluate:\n" in text:
        step = text.rsplit("\nStep to evaluate:\n", 1)[1]
        error = "Off-topic" if "GUESSWORK" in step else "Correct"
        return ChatResponse(text=json.dumps({"error_type": error, "diagnosis": "d", "guidance": "g"}))
    n = 1 + max((int(h) for h in re.findall(r"^Step (\d+):", text, re.MULTILINE)), default=0)
    if i % 4 != 3 and n == 3 + i % 3:
        return ChatResponse(text=f"Step {n}: ####ANSWER: City {i} (Final Answer)")
    if n % 2 == 0 and text.rstrip().endswith("Feedback:\n(none)"):
        return ChatResponse(text=f"Step {n}: GUESSWORK about landmark {i} (Logical)")
    return ChatResponse(text=f"Step {n}: According to Passage {n}, landmark {i} is old (Attribution)")


def test_run_replays_a_recorded_fixture_the_same_on_one_and_three_workers(tmp_path, monkeypatch):
    # Prompts span several digest chunks and share most of them, with text
    # json.dumps escapes, so the keyed lookups resume digests per thread.
    body = 'Landmark "{i}" in café\tquarter, "C:\\\\old" \x01 😀 ' * 20
    instances = [
        QAInstance(
            f"q{i}", f"Which city hosts landmark {i}?",
            tuple(Passage(p, f"Title {p}", body.format(i=i) + str(p), p <= 2) for p in range(1, 11)),
            (f"City {i}",), Dataset.HOTPOTQA, 0,
        )
        for i in range(12)
    ]
    corpus = write_corpus(tmp_path / "c.jsonl", instances)
    argv = ["run", "--in", corpus, "--mode", "safe", "--k", "6", "--n", "2"]
    recorder = RecordingBackend(ScriptedBackend(responder=_loop_reply))
    monkeypatch.setattr(cli, "_build_backend", lambda spec: recorder)
    assert main(argv + ["--out", str(tmp_path / "recorded")]) == 0
    monkeypatch.undo()
    fixture = tmp_path / "fixture.json"
    recorder.save(fixture)
    entries = json.loads(fixture.read_text())
    assert entries and all(entry["key"] for entry in entries)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"backend": {"type": "scripted", "fixture": str(fixture)}}))

    outputs = {}
    for workers in ("recorded", "3", "1"):
        out = tmp_path / workers
        if workers != "recorded":
            assert main(argv + ["--workers", workers, "--config", str(cfg), "--out", str(out)]) == 0
        outputs[workers] = {
            name: (out / name).read_bytes() for name in ("runs.jsonl", "ledger.json", "aggregate.json")
        }
        runs = [json.loads(line) for line in outputs[workers]["runs.jsonl"].splitlines()]
        assert [r["aborted"] for r in runs] == [False] * len(instances)
    assert outputs["3"] == outputs["1"] == outputs["recorded"]
    answers = [json.loads(line)["answer"] for line in outputs["1"]["runs.jsonl"].splitlines()]
    assert answers[:4] == ["City 0", "City 1", "City 2", "Step 7: According to Passage 7, landmark 3 is old (Attribution)"]
    assert json.loads(outputs["1"]["aggregate.json"])["retries"] > 0
    assert len(render_passages(instances[0])) > 2 * _DIGEST_CHUNK


def test_verify_benchmark_over_fixture_pack(tmp_path, capsys):
    from fixture_utils import build_instance, load_noise_fixtures

    records = load_noise_fixtures()["grounded"] + load_noise_fixtures()["noise"]
    instances = [build_instance(r) for r in records]
    corpus = write_corpus(tmp_path / "c.jsonl", instances)
    texts = []
    for r in records:
        texts.extend(r["extraction"])
        texts.extend(["[]"] * len(r["gold_passages"]))
        texts.append(r["resolution"])
    fixture = write_fixture(tmp_path / "fx.json", texts)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"backend": {"type": "scripted", "fixture": fixture}}))
    out = tmp_path / "out"
    rc = main(["verify-benchmark", "--in", corpus, "--mode", "deterministic",
               "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    noisy = sum(1 for r in records if r["expected_label"] != "Grounded")
    expected = round(100.0 * noisy / len(records), 2)
    assert f"noise {expected:.2f}%" in capsys.readouterr().out
    reports = [json.loads(l) for l in (out / "reports.jsonl").read_text().splitlines()]
    assert [r["noise_label"] for r in reports] == [r["expected_label"] for r in records]
    stats = json.loads((out / "noise_stats.json").read_text())
    assert stats["noise_percent"] == expected
    for inst in instances:
        assert (out / "kg" / f"{inst.id}.jsonl").exists()
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["command"] == "verify-benchmark"
    assert "backend" not in resolved
    stats_out = tmp_path / "stats"
    assert main(["stats", "--in", str(out / "reports.jsonl"), "--out", str(stats_out)]) == 0
    assert (stats_out / "noise_stats.json").read_bytes() == (out / "noise_stats.json").read_bytes()


def test_verify_benchmark_releases_each_graph_once_written(tmp_path, monkeypatch):
    from fixture_utils import build_instance, load_noise_fixtures

    records = load_noise_fixtures()["grounded"] + load_noise_fixtures()["noise"]
    corpus = write_corpus(tmp_path / "c.jsonl", [build_instance(r) for r in records])
    texts = []
    for r in records:
        texts += [*r["extraction"], *["[]"] * len(r["gold_passages"]), r["resolution"]]
    fixture = write_fixture(tmp_path / "fx.json", texts)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"backend": {"type": "scripted", "fixture": fixture}}))
    graphs = []
    verify = cli.verify_instance

    def tracked(*args, **kwargs):
        # Only the previous instance's report may still be held.
        gc.collect()
        assert all(ref() is None for ref in graphs[:-1]), f"graph held before instance {len(graphs)}"
        report = verify(*args, **kwargs)
        graphs.append(weakref.ref(report.kg))
        return report

    monkeypatch.setattr(cli, "verify_instance", tracked)
    assert main(["verify-benchmark", "--in", corpus, "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 0
    assert len(graphs) == len(records) > 2


def test_verify_benchmark_survives_failed_backend_call(tmp_path, monkeypatch):
    from fixture_utils import build_instance, load_noise_fixtures

    first, second = load_noise_fixtures()["grounded"][:2]
    # None: the first instance's first call fails, which ends that instance.
    replies = [None, *second["extraction"], *["[]"] * len(second["gold_passages"]),
               second["resolution"]]

    def respond(req):
        text = replies.pop(0)
        if text is None:
            raise TransportError("connection refused", 3)
        return ChatResponse(text=text)

    monkeypatch.setattr(cli, "_build_backend", lambda spec: ScriptedBackend(responder=respond))
    corpus = write_corpus(tmp_path / "c.jsonl", [build_instance(first), build_instance(second)])
    out = tmp_path / "out"
    assert main(["verify-benchmark", "--in", corpus, "--out", str(out)]) == 0
    assert not replies
    reports = [json.loads(l) for l in (out / "reports.jsonl").read_text().splitlines()]
    assert len(reports) == 2
    assert reports[0]["noise_label"] is None
    assert reports[0]["flags"] == ["backend_failed:TransportError", "unverified"]
    assert reports[1]["noise_label"] == second["expected_label"]
    assert (out / "kg" / f"{first['id']}.jsonl").read_text() == ""
    stats = json.loads((out / "noise_stats.json").read_text())
    assert stats["unverified"] == 1 and stats["total"] == 1


_NOT_FILE_NAMES = ["../escaped", "a/b", "a\\b", "", ".", ".."]


@pytest.mark.parametrize("ids, problem", [
    *((["fine", bad], f"{bad!r} is not a plain file name") for bad in _NOT_FILE_NAMES),
    (["twin", "fine", "twin"], "'twin' occurs more than once"),
], ids=[*_NOT_FILE_NAMES, "duplicate"])
def test_verify_benchmark_rejects_ids_that_are_not_file_names(tmp_path, capsys, monkeypatch, ids, problem):
    backend = ScriptedBackend()
    monkeypatch.setattr(cli, "_build_backend", lambda spec: backend)
    corpus = write_corpus(tmp_path / "c.jsonl", [make_instance(i) for i in ids])
    assert main(["verify-benchmark", "--in", corpus, "--out", str(tmp_path / "vo")]) == 1
    assert capsys.readouterr().err == f"error: instance id {problem}\n"
    assert backend.calls == 0
    assert [p.name for p in tmp_path.iterdir()] == ["c.jsonl"]


_MODULES_SCRIPT = """
import json, sys
from hopcheck import cli
def loaded():
    http = sorted(m for m in ("requests", "urllib3", "concurrent.futures") if m in sys.modules)
    package = sorted(m[len("hopcheck."):] for m in sys.modules if m.startswith("hopcheck."))
    return http, package
steps = [["import", 0, *loaded()]]
for name, argv in json.loads(sys.argv[1]):
    steps.append([name, cli.main(argv), *loaded()])
cli._build_backend({"type": "openai", "base_url": "http://localhost:9"})
steps.append(["openai", 0, *loaded()])
print(json.dumps(steps))
"""

# The modules only `run` and `synthesize` use.
_LOOP_MODULES = {"datagen", "feedback_loop", "step_grammar", "taxonomy"}


def test_scripted_commands_never_load_the_http_stack(tmp_path):
    """One fresh interpreter runs the commands in turn and records, after
    each, the loaded HTTP and thread-pool modules and the loaded hopcheck
    modules; this test process may already hold any of them."""
    from fixture_utils import build_instance, load_noise_fixtures

    records = load_noise_fixtures()["grounded"] + load_noise_fixtures()["noise"]
    corpus = write_corpus(tmp_path / "c.jsonl", [build_instance(r) for r in records])
    small = write_corpus(tmp_path / "small.jsonl", [make_instance("a")])
    runs = tmp_path / "runs.jsonl"
    write_jsonl(runs, [{"instance_id": r["id"], "answer": "Paris"} for r in records])
    texts = []
    for r in records:
        texts += [*r["extraction"], *["[]"] * len(r["gold_passages"]), r["resolution"]]
    answers = ["Step 1: ####ANSWER: Paris (Final Answer)"] * len(records)
    steps = []
    # The last command, a pooled run, is the only one that loads the thread pool.
    for name, command, replies, extra in [
        ("ingest", "ingest", None, ["--in", hotpot_file(tmp_path), "--dataset", "hotpotqa"]),
        ("verify", "verify-benchmark", texts, ["--in", corpus]),
        ("score", "score", None, ["--in", corpus, "--runs", str(runs), "--judge", "off"]),
        ("stats", "stats", None, ["--in", str(tmp_path / "verify" / "reports.jsonl")]),
        ("run1", "run", answers, ["--in", corpus, "--mode", "none", "--workers", "1"]),
        ("synthesize", "synthesize", [_PLAN_REPLY, _IDEAL_REPLY],
         ["--in", small, "--total", "1", "--ideal-fraction", "1"]),
        ("run2", "run", answers, ["--in", corpus, "--mode", "none", "--workers", "2"]),
    ]:
        if replies is not None:
            cfg = tmp_path / f"{name}.json"
            fixture = write_fixture(tmp_path / f"{name}-fx.json", replies)
            cfg.write_text(json.dumps({"backend": {"type": "scripted", "fixture": fixture}}))
            extra = [*extra, "--config", str(cfg)]
        steps.append([name, [command, *extra, "--out", str(tmp_path / name)]])
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _MODULES_SCRIPT, json.dumps(steps)],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = {name: (code, http, set(package))
              for name, code, http, package in json.loads(proc.stdout.splitlines()[-1])}
    assert {name: code for name, (code, _, _) in result.items()} == dict.fromkeys(result, 0)
    scripted = ["import", "ingest", "verify", "score", "stats", "run1", "synthesize"]
    assert {name: result[name][1] for name in scripted} == dict.fromkeys(scripted, [])
    assert result["run2"][1] == ["concurrent.futures"]
    assert result["openai"][1] == ["concurrent.futures", "requests", "urllib3"]
    for name in ("import", "ingest", "verify", "score", "stats"):
        assert not result[name][2] & _LOOP_MODULES, name
    assert result["run1"][2] & _LOOP_MODULES == _LOOP_MODULES - {"datagen"}
    assert _LOOP_MODULES <= result["synthesize"][2]


# A plan and an ideal trajectory that fit make_instance.
_PLAN_REPLY = (
    "[Step 1: Find the nationality of A (Attribution), "
    "Step 2: Find the nationality of B (Attribution), "
    "Step 3: Compare the two nationalities (Logical)]"
)
_IDEAL_REPLY = json.dumps([
    {"step": "Step 1: fact 1 from passage 1 (Attribution)", "supporting_index": 1},
    {"step": "Step 2: fact 2 from passage 2 (Attribution)", "supporting_index": 2},
    {"step": "Step 3: both facts agree (Logical)"},
])


def _synthesis_teacher(models):
    """Answers plan, ideal-reasoning and error-injection prompts for
    make_instance and records the model id of every request."""

    def respond(req):
        models.append(req.model_id)
        content = req.messages[0].content
        if "query analysis" in content:  # only the plan prompts say this
            return ChatResponse(text=_PLAN_REPLY)
        target = re.search(r"Target Step to Corrupt: Step (\d+)", content)
        if target:
            line = re.search(rf"^Step {target.group(1)}: .*$", content, re.MULTILINE).group(0)
            return ChatResponse(text=line.replace(": ", ": wrongly, ", 1))
        return ChatResponse(text=_IDEAL_REPLY)

    return respond


def test_synthesize_model_reaches_every_request(tmp_path, monkeypatch):
    models = []
    backend = ScriptedBackend(responder=_synthesis_teacher(models))
    monkeypatch.setattr(cli, "_build_backend", lambda spec: backend)
    corpus = write_corpus(tmp_path / "c.jsonl", [make_instance("a"), make_instance("b")])
    out = tmp_path / "out"
    assert main(["synthesize", "--in", corpus, "--total", "10", "--model", "teacher",
                 "--out", str(out)]) == 0
    injected = json.loads((out / "manifest.json").read_text())["by_provenance"]["Injected"]
    assert injected > 0
    assert len(models) == 2 * 2 + injected  # plan + ideal per instance, one per injection
    assert set(models) == {"teacher"}


def test_synthesize_invalid_refined_record_is_one_error_line(tmp_path, capsys, monkeypatch):
    backend = ScriptedBackend(responder=_synthesis_teacher([]))
    monkeypatch.setattr(cli, "_build_backend", lambda spec: backend)
    corpus = write_corpus(tmp_path / "c.jsonl", [make_instance("a")])
    refined = tmp_path / "refined.jsonl"
    write_jsonl(refined, [{
        "instance_id": "a", "position": 1, "feedback": "Unsupported",
        "step": "Step 1: a dubious fact from passage 2 (Attribution)",
    }])
    out = tmp_path / "out"
    assert main(["synthesize", "--in", corpus, "--total", "3", "--refined", str(refined),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {refined}: record 0: refined record invalid: ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_synthesize_checks_refined_rows_before_any_backend_call(tmp_path, capsys, monkeypatch):
    backend = ScriptedBackend(responder=_synthesis_teacher([]))
    monkeypatch.setattr(cli, "_build_backend", lambda spec: backend)
    corpus = write_corpus(tmp_path / "c.jsonl", [make_instance("a")])
    refined = tmp_path / "refined.jsonl"
    write_jsonl(refined, [{
        "instance_id": "a", "position": 1,
        "feedback": {"error_type": "Unsupported", "diagnosis": "d", "guidance": "g"},
    }])
    assert main(["synthesize", "--in", corpus, "--total", "3", "--refined", str(refined),
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {refined}: record 0: refined record invalid: 'step'\n"
    assert backend.calls == 0


@pytest.mark.parametrize("position", [1.9, True, "1"])
def test_synthesize_refined_position_must_be_a_json_integer(tmp_path, capsys, monkeypatch, position):
    backend = ScriptedBackend(responder=_synthesis_teacher([]))
    monkeypatch.setattr(cli, "_build_backend", lambda spec: backend)
    corpus = write_corpus(tmp_path / "c.jsonl", [make_instance("a")])
    refined = tmp_path / "refined.jsonl"
    write_jsonl(refined, [{
        "instance_id": "a", "position": position,
        "feedback": {"error_type": "Unsupported", "diagnosis": "d", "guidance": "g"},
        "step": "Step 1: a dubious fact from passage 2 (Attribution)",
    }])
    assert main(["synthesize", "--in", corpus, "--total", "3", "--refined", str(refined),
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        f"error: {refined}: record 0: refined record invalid: position {position!r} is not an integer\n"
    )
    assert backend.calls == 0


def test_synthesize_failed_backend_call_is_one_error_line(tmp_path, capsys):
    corpus = write_corpus(tmp_path / "c.jsonl", [make_instance("a"), make_instance("b")])
    cfg = tmp_path / "cfg.json"
    fixture = write_fixture(tmp_path / "fx.json", [])
    cfg.write_text(json.dumps({"backend": {"type": "scripted", "fixture": fixture}}))
    out = tmp_path / "out"
    assert main(["synthesize", "--in", corpus, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: instance a: no scripted response for request ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_synthesize_unparseable_plan_names_its_instance(tmp_path, capsys):
    corpus = write_corpus(tmp_path / "c.jsonl", [make_instance("a"), make_instance("b")])
    cfg = tmp_path / "cfg.json"
    fixture = write_fixture(tmp_path / "fx.json", ["not a plan"])
    cfg.write_text(json.dumps({"backend": {"type": "scripted", "fixture": fixture}}))
    out = tmp_path / "out"
    assert main(["synthesize", "--in", corpus, "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: instance a: plan is not a bracketed list\n"
    assert not out.exists()


def test_synthesize_failed_injection_names_its_instance(tmp_path, capsys, monkeypatch):
    teacher = _synthesis_teacher([])

    def respond(req):
        if "Target Step to Corrupt" in req.messages[0].content:
            return ChatResponse(text="no step here")
        return teacher(req)

    monkeypatch.setattr(cli, "_build_backend", lambda spec: ScriptedBackend(responder=respond))
    corpus = write_corpus(tmp_path / "c.jsonl", [make_instance("a"), make_instance("b")])
    out = tmp_path / "out"
    # One ideal example from "a", then the first injection targets "b".
    assert main(["synthesize", "--in", corpus, "--total", "3", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: instance b: teacher output not a single step: ")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--total", "0"], "total must be >= 1"),
    (["--ideal-fraction", "1.5"], "ideal_fraction must be in [0, 1]"),
])
def test_synthesize_checks_its_quota_before_any_backend_call(tmp_path, capsys, monkeypatch, flags, message):
    backend = ScriptedBackend(responder=_synthesis_teacher([]))
    monkeypatch.setattr(cli, "_build_backend", lambda spec: backend)
    corpus = write_corpus(tmp_path / "c.jsonl", [make_instance("a"), make_instance("b")])
    for dry_run in (["--dry-run"], []):
        assert main(["synthesize", "--in", corpus, *flags, *dry_run, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
    assert backend.calls == 0
    assert not (tmp_path / "out").exists()


def test_score_judge_off(tmp_path, capsys):
    corpus = write_corpus(
        tmp_path / "c.jsonl",
        [make_instance("a", answer="Paris"), make_instance("b", answer="Rome")],
    )
    runs = tmp_path / "runs.jsonl"
    with open(runs, "w") as fh:
        fh.write(json.dumps({"instance_id": "a", "answer": "Paris"}) + "\n")
        fh.write(json.dumps({"instance_id": "b", "answer": "Paris, Italy"}) + "\n")
    out = tmp_path / "out"
    rc = main(["score", "--runs", str(runs), "--in", corpus, "--judge", "off",
               "--out", str(out)])
    assert rc == 0
    rows = [json.loads(l) for l in (out / "scores.jsonl").read_text().splitlines()]
    assert rows[0]["em"] == 1 and rows[0]["f1"] == 1.0
    assert rows[1]["em"] == 0 and rows[1]["f1"] == 0.0
    agg = json.loads((out / "aggregate.json").read_text())
    assert agg["table"]["hotpotqa"]["em"] == 0.5
    assert agg["table"]["hotpotqa"]["unjudged"] == 2  # judge off: all unjudged


def _score_with_judge(tmp_path, judge_replies):
    tmp_path.mkdir()
    instances = [make_instance(iid, answer="Paris") for iid in ("a", "b", "c")]
    corpus = write_corpus(tmp_path / "c.jsonl", instances)
    runs = tmp_path / "runs.jsonl"
    # No prediction is byte-equal to the gold, so every row asks the judge.
    runs.write_text("".join(
        json.dumps({"instance_id": iid, "answer": pred}) + "\n"
        for iid, pred in (("a", "paris"), ("b", "Lyon"), ("c", "Paris France"))
    ))
    cfg = tmp_path / "cfg.json"
    fixture = write_fixture(tmp_path / "judge.json", judge_replies)
    cfg.write_text(json.dumps({"backend": {"type": "scripted", "fixture": fixture}}))
    out = tmp_path / "out"
    assert main(["score", "--runs", str(runs), "--in", corpus, "--judge", "on",
                 "--config", str(cfg), "--out", str(out)]) == 0
    rows = [json.loads(l) for l in (out / "scores.jsonl").read_text().splitlines()]
    return rows, json.loads((out / "aggregate.json").read_text())["table"]


def test_score_judge_on_table(tmp_path):
    correct, wrong = '{"is_correct": "correct"}', '{"is_correct": "wrong"}'
    rows, table = _score_with_judge(tmp_path / "mixed", [correct, wrong, "no verdict here"])
    assert [r["judge"] for r in rows] == ["Correct", "Wrong", "Unjudged"]
    assert table["hotpotqa"]["acc"] == 0.5  # over the two judged rows only
    assert table["hotpotqa"]["unjudged"] == 1
    assert table["hotpotqa"]["em"] == round(1 / 3, 4)
    assert "average" not in table

    rows, table = _score_with_judge(tmp_path / "judged", [correct, wrong, correct])
    assert [r["judge"] for r in rows] == ["Correct", "Wrong", "Correct"]
    assert table["hotpotqa"]["unjudged"] == 0
    assert table["average"] == {"acc": round(2 / 3, 4)}


def test_score_judge_on_survives_failed_call(tmp_path):
    # Two replies for three rows: the third judge call finds no scripted reply.
    rows, table = _score_with_judge(
        tmp_path / "failed", ['{"is_correct": "correct"}', '{"is_correct": "wrong"}']
    )
    assert [r["judge"] for r in rows] == ["Correct", "Wrong", "Unjudged"]
    assert rows[2]["judge_reasoning"].startswith("backend failed: ")
    assert table["hotpotqa"]["unjudged"] == 1


def test_score_unknown_instance_errors(tmp_path):
    corpus = write_corpus(tmp_path / "c.jsonl", [make_instance("a")])
    runs = tmp_path / "runs.jsonl"
    runs.write_text(json.dumps({"instance_id": "ghost", "answer": "x"}) + "\n")
    rc = main(["score", "--runs", str(runs), "--in", corpus, "--judge", "off",
               "--out", str(tmp_path / "out")])
    assert rc == 1


@pytest.mark.parametrize("row, problem", [
    ({"answer": "Paris"}, "instance_id None names no instance"),
    ({"instance_id": "a", "answer": 5}, "answer 5 is not a string or null"),
], ids=["no-instance-id", "number-answer"])
def test_malformed_run_row_names_the_file_and_record(tmp_path, capsys, row, problem):
    corpus = write_corpus(tmp_path / "c.jsonl", [make_instance("a")])
    runs = tmp_path / "runs.jsonl"
    runs.write_text(json.dumps({"instance_id": "a", "answer": "Paris"}) + "\n"
                    + json.dumps(row) + "\n")
    rc = main(["score", "--runs", str(runs), "--in", corpus, "--judge", "off",
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {runs}: record 1: {problem}\n"


@pytest.mark.parametrize("labels, problem", [
    (["Grounded", 5], "record 1: noise_label 5 is not a noise label"),
    ([5, "Bogus"], "record 0: noise_label 5 is not a noise label"),
    (["Grounded", None, "Bogus"], "record 2: noise_label 'Bogus' is not a noise label"),
], ids=["number-label", "number-and-unknown-label", "unknown-label"])
def test_malformed_noise_label_names_the_file_and_record(tmp_path, capsys, labels, problem):
    reports = tmp_path / "reports.jsonl"
    write_jsonl(reports, ({"noise_label": label} for label in labels))
    out = tmp_path / "out"
    assert main(["stats", "--in", str(reports), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {reports}: {problem}\n"
    assert not out.exists()


def test_stats_prints_percent(tmp_path, capsys):
    reports = tmp_path / "reports.jsonl"
    labels = ["Grounded"] * 3 + ["MissingEvidence", "WrongAnswer"]
    with open(reports, "w") as fh:
        for label in labels:
            fh.write(json.dumps({"noise_label": label}) + "\n")
    out = tmp_path / "out"
    assert main(["stats", "--in", str(reports), "--out", str(out)]) == 0
    assert capsys.readouterr().out.strip() == "40.00%"
    stats = json.loads((out / "noise_stats.json").read_text())
    assert stats["by_label"] == {"Grounded": 3, "MissingEvidence": 1, "WrongAnswer": 1}


def test_stats_rejects_a_row_without_noise_label(tmp_path, capsys):
    reports = tmp_path / "runs.jsonl"
    write_jsonl(reports, [{"noise_label": None}, {"instance_id": "a", "answer": "x"}])
    assert main(["stats", "--in", str(reports)]) == 1
    assert capsys.readouterr().err == f"error: {reports}: record 1: no noise_label\n"


def test_version_flag(capsys):
    assert main(["--version"]) == 0
