import json
import random
from dataclasses import replace

import pytest

from hopcheck.extraction_pipeline import (
    MAX_GLEANING_ROUNDS,
    NoiseStats,
    corpus_stats,
    extract_triples,
    glean,
    resolve_entities,
    verify_instance,
)
from hopcheck.kg_graph import NoiseLabel, Triple
from hopcheck.llm_client import ChatResponse, ScriptedBackend
from fixture_utils import build_instance, build_verify_backend, load_noise_fixtures


def _fifo(*texts):
    return ScriptedBackend(script=[ChatResponse(text=t) for t in texts])


_ALL_RECORDS = load_noise_fixtures()["grounded"] + load_noise_fixtures()["noise"]


@pytest.mark.parametrize("record", _ALL_RECORDS, ids=lambda r: r["id"])
def test_fixture_noise_labels(record):
    instance = build_instance(record)
    backend = build_verify_backend(record)
    report = verify_instance(backend, instance, mode="deterministic")
    assert report.noise_label is not None
    assert report.noise_label.value == record["expected_label"]
    assert report.verdict.is_valid == (record["expected_label"] == "Grounded")


def test_extract_one_call_per_gold_passage_and_pronoun_rejection():
    record = _ALL_RECORDS[0]
    instance = build_instance(record)
    texts = []
    for _ in instance.gold_passages:
        texts.append(json.dumps([["A", "directed by", "B"], ["He", "born in", "Rome"],
                                 ["C", "spouse", "it"], ["too", "short"]]))
    backend = _fifo(*texts)
    result = extract_triples(backend, instance)
    assert backend.calls == len(instance.gold_passages)
    # per passage: one kept, three rejected (pronoun head, pronoun tail, wrong arity)
    assert len(result.triples) == len(instance.gold_passages)
    assert result.rejected == 3 * len(instance.gold_passages)
    assert all(t.head == "A" for t in result.triples)


def test_extract_flags_unparseable_passage():
    record = _ALL_RECORDS[0]
    instance = build_instance(record)
    texts = ["not json"] + [json.dumps([["A", "r", "B"]])] * (len(instance.gold_passages) - 1)
    result = extract_triples(_fifo(*texts), instance)
    assert result.failed_passages == (instance.gold_passages[0].index,)


def test_glean_dedup_and_early_stop():
    existing = [Triple("A", "directed by", "B", 1)]
    backend = _fifo(
        json.dumps([["A", "directed_by", "B"], ["B", "born in", "Rome"]]),
        json.dumps([["B", "born in", "Rome"]]),  # nothing new: stop
        json.dumps([["never", "reached", "round"]]),
    )
    added, rounds = glean(backend, "body", existing, 1)
    assert [t.as_list() for t in added] == [["B", "born in", "Rome"]]
    assert rounds == 2
    assert backend.calls == 2


def test_glean_round_cap():
    responses = [json.dumps([[f"E{i}", "r", f"F{i}"]]) for i in range(5)]
    added, rounds = glean(_fifo(*responses), "body", [], 1)
    assert rounds == MAX_GLEANING_ROUNDS
    assert len(added) == MAX_GLEANING_ROUNDS


def test_glean_stops_on_parse_failure():
    added, rounds = glean(_fifo("garbage"), "body", [], 1)
    assert added == []
    assert rounds == 1


def test_resolve_entities_disjoint_and_filtered():
    triples = [
        Triple("Paul Mercurio", "judge on", "Dancing Stars", 1),
        Triple("Paul Joseph", "occupation", "actor", 1),
        Triple("Show", "release date", "1957", 1),
    ]
    groups, ok = resolve_entities(
        _fifo(json.dumps([
            ["Paul Mercurio", "Paul Joseph", "actor", "1957"],
            ["Paul Joseph", "Dancing Stars"],  # Paul Joseph already claimed
            ["only one usable", 42],
        ])),
        triples,
    )
    assert ok
    assert len(groups) == 1
    assert groups[0].members == frozenset({"Paul Mercurio", "Paul Joseph"})
    assert groups[0].canonical == "Paul Mercurio"


def test_resolve_entities_parse_failure_flagged():
    groups, ok = resolve_entities(_fifo("not a list"), [Triple("A", "r", "B", 1)])
    assert groups == [] and not ok

    groups, ok = resolve_entities(_fifo(), [])
    assert groups == [] and ok  # nothing to resolve, no call made


def test_verify_unparseable_resolution_still_verifies():
    record = _ALL_RECORDS[0]
    instance = build_instance(record)
    script = [ChatResponse(text=t) for t in record["extraction"]]
    script += [ChatResponse(text="[]") for _ in record["gold_passages"]]
    script.append(ChatResponse(text="garbage"))
    report = verify_instance(ScriptedBackend(script=script), instance)
    assert "entity_resolution_unparseable" in report.flags
    assert report.noise_label is not None


def test_verify_no_triples_is_unverified():
    record = _ALL_RECORDS[0]
    instance = build_instance(record)
    backend = _fifo(*(["[]"] * (2 * len(instance.gold_passages))))
    report = verify_instance(backend, instance)
    assert report.noise_label is None
    assert "unverified" in report.flags


def _llm_verify(verdict_reply: str, mode: str):
    """Verify the first fixture record with `verdict_reply` as the model's path verdict."""
    record = _ALL_RECORDS[0]  # deterministically Grounded
    instance = build_instance(record)
    script = [ChatResponse(text=t) for t in record["extraction"]]
    script += [ChatResponse(text="[]") for _ in record["gold_passages"]]
    script.append(ChatResponse(text=record["resolution"]))
    script.append(ChatResponse(text=verdict_reply))
    return verify_instance(ScriptedBackend(script=script), instance, mode=mode)


def test_llm_mode_unparseable_verdict():
    report = _llm_verify("no json here", "llm")
    assert report.noise_label is None
    assert "unverified" in report.flags


@pytest.mark.parametrize("mode", ["llm", "cross-check"])
@pytest.mark.parametrize(
    "reply",
    [
        {"is_valid": True, "reasoning_path": None, "explanation": "x"},
        {"is_valid": "false", "reasoning_path": [], "explanation": "x"},
    ],
    ids=["null-path", "string-is-valid"],
)
def test_llm_verdict_with_wrong_types_is_unparseable(reply, mode):
    report = _llm_verify(json.dumps(reply), mode)
    assert report.alt_verdict is None
    if mode == "llm":
        assert report.noise_label is None
        assert "unverified" in report.flags
    else:
        assert "llm_verdict_unparseable" in report.flags
        assert report.noise_label is NoiseLabel.GROUNDED


@pytest.mark.parametrize("mode", ["llm", "cross-check"])
def test_llm_verdict_skips_triple_with_blank_slot(mode):
    reply = {"is_valid": True, "reasoning_path": [["A", " ", "B"], ["A", "born in", "B"]]}
    report = _llm_verify(json.dumps(reply), mode)
    llm = report.verdict if mode == "llm" else report.alt_verdict
    assert llm.is_valid
    assert llm.reasoning_path == (Triple("A", "born in", "B"),)


def test_llm_verdict_sends_first_usable_gold_answer():
    record = _ALL_RECORDS[0]
    instance = replace(build_instance(record), gold_answers=("The", "Mantua"))
    replies = [*record["extraction"], *["[]"] * len(record["gold_passages"]),
               record["resolution"], json.dumps({"is_valid": True, "reasoning_path": []})]
    prompts = []

    def respond(req):
        prompts.append(req.messages[0].content)
        return ChatResponse(text=replies[len(prompts) - 1])

    verify_instance(ScriptedBackend(responder=respond), instance, mode="llm")
    assert len(prompts) == len(replies)
    assert "Ground Truth Answer: Mantua" in prompts[-1]


@pytest.mark.parametrize("explanation", ["ambiguous wording", "Ambiguous wording"])
def test_llm_explanation_text_does_not_decide_the_label(explanation):
    # Ambiguous comes from the search's comparison verdict, not from prose.
    reply = {"is_valid": False, "reasoning_path": [], "explanation": explanation}
    report = _llm_verify(json.dumps(reply), "llm")
    assert report.noise_label is not None
    assert report.noise_label is not NoiseLabel.AMBIGUOUS


def test_cross_check_records_disagreement():
    reply = {"is_valid": False, "reasoning_path": [], "explanation": "x"}
    report = _llm_verify(json.dumps(reply), "cross-check")
    assert report.disagreement
    assert report.verdict.is_valid  # deterministic verdict is primary
    assert report.alt_verdict is not None and not report.alt_verdict.is_valid


def test_verify_rejects_unknown_mode():
    record = _ALL_RECORDS[0]
    with pytest.raises(ValueError):
        verify_instance(_fifo(), build_instance(record), mode="hybrid")


def test_noise_stats_arithmetic_and_invariants():
    stats = NoiseStats(total=167454, noisy=7452)
    assert stats.percent == 4.45
    assert stats.ratio == 0.0445
    assert NoiseStats(total=0, noisy=0).percent == 0.0
    with pytest.raises(ValueError):
        NoiseStats(total=1, noisy=2)


def test_corpus_stats_order_invariant():
    records = _ALL_RECORDS
    reports = [
        verify_instance(build_verify_backend(r), build_instance(r)) for r in records
    ]
    base = corpus_stats(reports)
    assert base.total == len(records)
    assert base.noisy == sum(1 for r in records if r["expected_label"] != "Grounded")
    shuffled = reports[:]
    random.Random(5).shuffle(shuffled)
    assert corpus_stats(shuffled) == base
    assert base.to_dict()["by_label"]["Grounded"] == base.total - base.noisy
