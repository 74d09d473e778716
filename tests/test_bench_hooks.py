"""The benchmark's hooks still attach to the program and come off cleanly.

bench/tracer.py patches hopcheck functions by name and reads some of
their arguments by position. A renamed function or a reordered argument
would otherwise break `bench/run.py --trace 1` only when the bench runs.
"""

import importlib
import json
import pkgutil
from pathlib import Path

import pytest

import hopcheck
from fixture_utils import build_instance, build_verify_backend, load_noise_fixtures
from hopcheck.data_model import Dataset, Passage, QAInstance, canonical_row, write_jsonl
from hopcheck.llm_client import ChatResponse, ScriptedBackend

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("tracer")


def _bindings() -> dict:
    """Every module attribute and class attribute of the hopcheck package."""
    names = [f"hopcheck.{m.name}" for m in pkgutil.iter_modules(hopcheck.__path__)]
    modules = [hopcheck, *map(importlib.import_module, names)]
    bound = {}
    for module in modules:
        for key, value in vars(module).items():
            bound[(module.__name__, key)] = value
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    bound[(module.__name__, key, attr)] = member
    return bound


def _verify_one():
    from hopcheck import cli

    record = load_noise_fixtures()["grounded"][0]
    instance = build_instance(record)
    report = cli.verify_instance(build_verify_backend(record), instance, mode="deterministic", model_id="m")
    assert report.noise_label is not None
    return instance


def _assert_restored(before: dict) -> None:
    after = _bindings()
    changed = [key for key, value in before.items() if after.get(key) is not value]
    assert not changed, f"not restored: {changed}"


def test_item_timer_attaches_and_restores(tracer):
    before = _bindings()
    timer = tracer.ItemTimer()
    timer.install()
    try:
        _verify_one()
    finally:
        timer.uninstall()
    assert len(timer.latencies_ns) == 1
    _assert_restored(before)


def test_tracer_attaches_and_restores(tracer):
    before = _bindings()
    t = tracer.Tracer()
    t.install()
    try:
        instance = _verify_one()
        t.end_pass()
    finally:
        t.uninstall()
    _assert_restored(before)
    calls = t.summary()["details"]["span_calls_per_pass"]
    gold = len(instance.gold_passages)
    assert calls["extraction_pipeline.verify_instance"] == 1
    assert calls["extraction_pipeline.extract_triples"] == 1
    assert calls["extraction_pipeline.glean"] == gold
    assert calls["extraction_pipeline.resolve_entities"] == 1
    assert calls["kg_graph.build_kg"] >= 1
    assert calls["kg_graph.find_grounded_path"] >= 1
    assert calls["kg_graph.classify_noise"] == 1
    counts = t.counts
    assert counts["llm_client.calls_by_prompt.triple_extraction"] == gold
    assert counts["llm_client.calls_by_prompt.gleaning"] == gold
    assert counts["llm_client.calls_by_prompt.entity_resolution"] == 1
    # on_glean reads glean's existing triples as args[2] and the added ones
    # as result[0]; every gleaning reply here is empty, so no round grew.
    assert counts["extraction_pipeline.glean.rounds"] == gold
    assert counts["extraction_pipeline.glean.fresh_rounds"] == 0


def test_tracer_counts_one_verify_item_with_a_planted_conflation(tracer):
    """A comparison whose second entity holds its birth date only on a
    look-alike node, beside a look-alike cluster no compared entity
    reaches: the graph is built once, plus once for the one merge kept,
    and searched once per gold answer plus once per kept merge."""
    from hopcheck import cli

    record = {
        "id": "planted-conflation",
        "question": "Who was born first, Ada Lovelace or Lorenzo Costa?",
        "question_entities": ["Ada Lovelace", "Lorenzo Costa"],
        "gold_answers": ["Lorenzo Costa"],
        "gold_passages": [{"title": "Ada Lovelace", "body": "Born 1815."},
                          {"title": "Lorenzo Costa", "body": "Born 1460 in Ferrara."}],
        "extraction": [
            json.dumps([["Ada Lovelace", "birth_date", "1815"],
                        ["amber field north", "next to", "amber field south"],
                        ["amber field south", "next to", "amber field east"]]),
            json.dumps([["Lorenzo Costa", "born in", "Ferrara"],
                        ["Lorenzo Costa the Elder", "date of birth", "1460"]]),
        ],
        "resolution": "[]",
    }
    instance = build_instance(record)
    before = _bindings()
    t = tracer.Tracer()
    t.install()
    try:
        report = cli.verify_instance(build_verify_backend(record), instance, mode="deterministic", model_id="m")
        t.end_pass()
    finally:
        t.uninstall()
    _assert_restored(before)
    assert report.noise_label.value == "EntityConflation"
    calls = t.summary()["details"]["span_calls_per_pass"]
    kept_merges = 1  # the Lorenzo Costa pair; the three amber field pairs are too far to matter
    assert calls["kg_graph.build_kg"] == 1 + kept_merges
    # No yes/no gold answer, so no flipped search.
    assert calls["kg_graph.find_grounded_path"] <= len(instance.gold_answers) + kept_merges
    assert calls["kg_graph.classify_noise"] == 1


def _verdict(error_type: str) -> str:
    return json.dumps({"error_type": error_type, "diagnosis": "d", "guidance": "g"})


def _loop_instance() -> QAInstance:
    return QAInstance(
        "loop1", "Who did it?",
        tuple(Passage(i, f"Title {i}", f"Body {i}.", i <= 2) for i in range(1, 11)),
        ("Paris",), Dataset.HOTPOTQA, 0,
    )


def test_tracer_counts_one_loop_item(tracer):
    """A two-slot run with a malformed step, an evaluator rejection and a
    forced answer: the ledger update and the prompt render run once per
    backend call, the trajectory render at most once per slot and once
    for the forced answer."""
    from hopcheck import feedback_loop

    instance = _loop_instance()
    generator = ScriptedBackend(script=[ChatResponse(text=t) for t in (
        "no step here",
        "Step 1: a fact from passage 1 (Attribution)",
        "Step 2: an inference about the question (Logical)",
        "Step 2: a better inference about the question (Logical)",
        "####ANSWER: Paris",
    )])
    evaluator = ScriptedBackend(script=[
        ChatResponse(text=_verdict(v)) for v in ("Correct", "Off-topic", "Correct")
    ])
    cfg = feedback_loop.LoopConfig(max_steps=2, max_retries=1)
    before = _bindings()
    t = tracer.Tracer()
    t.install()
    try:
        record = feedback_loop.run_instance(cfg, instance, generator, evaluator)
        t.end_pass()
    finally:
        t.uninstall()
    _assert_restored(before)
    assert record.retries == 2 and record.answer == "Paris"
    assert "answer_forced" in {e.kind for e in record.events}
    calls = t.summary()["details"]["span_calls_per_pass"]
    backend_calls = generator.calls + evaluator.calls
    assert calls["llm_client.backend"] == backend_calls == 8
    assert calls["feedback_loop.update_ledger"] == backend_calls
    assert calls["llm_client.render"] == backend_calls
    assert calls["step_grammar.render_trajectory"] <= len(record.trajectory.steps) + 1
    assert t.counts["llm_client.calls_by_prompt.step_generation"] == 4
    assert t.counts["llm_client.calls_by_prompt.evaluation"] == 3
    assert t.counts["llm_client.calls_by_prompt.final_answer"] == 1


def _synthesize_and_run(work: Path) -> None:
    """One scripted `synthesize` and one `run` through the CLI, which
    imports datagen and feedback_loop inside those two commands."""
    from hopcheck import cli

    work.mkdir()
    corpus = work / "c.jsonl"
    write_jsonl(corpus, [canonical_row(_loop_instance())])
    plan = (
        "[Step 1: Find the fact in passage 1 (Attribution), "
        "Step 2: Find the fact in passage 2 (Attribution), "
        "Step 3: Compare the two facts (Logical)]"
    )
    ideal = json.dumps([
        {"step": "Step 1: fact 1 from passage 1 (Attribution)", "supporting_index": 1},
        {"step": "Step 2: fact 2 from passage 2 (Attribution)", "supporting_index": 2},
        {"step": "Step 3: both facts agree (Logical)"},
    ])
    for command, replies, flags in (
        ("synthesize", [plan, ideal], ["--total", "1", "--ideal-fraction", "1"]),
        ("run", ["Step 1: ####ANSWER: Paris (Final Answer)"], ["--mode", "none"]),
    ):
        fixture = work / f"{command}-fx.json"
        fixture.write_text(json.dumps([{"text": t} for t in replies]))
        cfg = work / f"{command}.json"
        cfg.write_text(json.dumps({"backend": {"type": "scripted", "fixture": str(fixture)}}))
        argv = [command, "--in", str(corpus), *flags, "--config", str(cfg), "--out", str(work / command)]
        assert cli.main(argv) == 0


def test_item_timer_attaches_to_the_lazily_imported_commands(tracer, tmp_path):
    before = _bindings()
    timer = tracer.ItemTimer()
    timer.install()
    try:
        _synthesize_and_run(tmp_path / "work")
    finally:
        timer.uninstall()
    _assert_restored(before)
    assert len(timer.latencies_ns) == 2  # the ideal example and the run


def test_tracer_attaches_to_the_lazily_imported_commands(tracer, tmp_path):
    before = _bindings()
    t = tracer.Tracer()
    t.install()
    try:
        _synthesize_and_run(tmp_path / "work")
        t.end_pass()
    finally:
        t.uninstall()
    _assert_restored(before)
    calls = t.summary()["details"]["span_calls_per_pass"]
    assert calls["datagen.generate_plan"] == 1
    assert calls["datagen.generate_ideal"] == 1
    assert calls["datagen.ideal_example"] == 1
    assert calls["feedback_loop.run_instance"] == 1
