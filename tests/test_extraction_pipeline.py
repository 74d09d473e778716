import json
import random
from dataclasses import replace

import pytest

from hopcheck import extraction_pipeline, kg_graph
from hopcheck.extraction_pipeline import (
    MAX_GLEANING_ROUNDS,
    NoiseStats,
    extract_triples,
    glean,
    resolve_entities,
    verify_instance,
)
from hopcheck.kg_graph import AliasGroup, NoiseLabel, Triple
from hopcheck.llm_client import ChatResponse, ScriptedBackend
from hopcheck.textnorm import normalize
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
        texts.append(json.dumps([["Ada", "directed by", "B"], ["He", "born in", "Rome"],
                                 ["C", "spouse", "it"], ["too", "short"]]))
    backend = _fifo(*texts)
    result = extract_triples(backend, instance)
    assert backend.calls == len(instance.gold_passages)
    # per passage: one kept, three rejected (pronoun head, pronoun tail, wrong arity)
    assert len(result.triples) == len(instance.gold_passages)
    assert result.rejected == 3 * len(instance.gold_passages)
    assert all(t.head == "Ada" for t in result.triples)


def test_extract_strips_slots_and_rejects_blank_and_non_string_rows():
    instance = build_instance(_ALL_RECORDS[0])
    rows = [["  Alpha Corp ", "\towns ", " Beta Inc\n"], ["Alpha Corp", "  ", "Beta Inc"],
            ["", "owns", "Beta Inc"], ["Alpha Corp", 3, "Beta Inc"], ["Alpha Corp", "owns", None]]
    result = extract_triples(_fifo(*[json.dumps(rows)] * len(instance.gold_passages)), instance)
    assert [t.as_list() for t in result.triples] == [["Alpha Corp", "owns", "Beta Inc"]] * len(
        instance.gold_passages
    )
    assert result.rejected == 4 * len(instance.gold_passages)


@pytest.mark.parametrize("surface", ["The", "?", "...", "a"])
def test_extract_rejects_surfaces_that_normalize_to_empty(surface):
    instance = build_instance(_ALL_RECORDS[0])
    rows = [["Alpha Corp", "owns", surface], [surface, "founded", "Beta Inc"],
            ["Alpha Corp", "owns", "Beta Inc"]]
    result = extract_triples(_fifo(*[json.dumps(rows)] * len(instance.gold_passages)), instance)
    assert [t.as_list() for t in result.triples] == [["Alpha Corp", "owns", "Beta Inc"]] * len(
        instance.gold_passages
    )
    assert result.rejected == 2 * len(instance.gold_passages)


def _two_passage_instance(question, answer, entities):
    return build_instance({
        "id": "q1",
        "question": question,
        "gold_answers": [answer],
        "question_entities": entities,
        "gold_passages": [{"title": "P1", "body": "First."}, {"title": "P2", "body": "Second."}],
    })


def test_verify_empty_surfaces_do_not_join_unrelated_triples():
    # "The" and "?" both normalize to "": kept, they would be one node that
    # links Alpha Corp to Beta Inc through an edge nobody extracted.
    instance = _two_passage_instance("Who does Alpha Corp own?", "Beta Inc", ["Alpha Corp"])
    backend = _fifo(
        json.dumps([["Alpha Corp", "owns", "The"], ["Alpha Corp", "based in", "Springfield"]]),
        json.dumps([["?", "founded", "Beta Inc"], ["Beta Inc", "based in", "Shelbyville"]]),
        "[]", "[]", "[]",
    )
    report = verify_instance(backend, instance)
    assert not report.verdict.is_valid
    assert report.noise_label is NoiseLabel.MISSING_EVIDENCE
    assert report.counters["rejected_triples"] == 2
    assert "" not in report.kg.nodes
    assert backend.calls == 5


def test_verify_normalizes_each_string_once_before_the_search(monkeypatch):
    """Extraction, gleaning, resolution and build_kg share one memo: no
    string is normalized twice, however often the replies repeat it."""
    calls = []

    def counting_normalize(text):
        calls.append(text)
        return normalize(text)

    before_search = []

    def build_then_mark(*args, **kwargs):
        kg = real_build_kg(*args, **kwargs)
        before_search.extend(calls)
        return kg

    real_build_kg = extraction_pipeline.build_kg
    monkeypatch.setattr(kg_graph, "normalize", counting_normalize)
    monkeypatch.setattr(extraction_pipeline, "build_kg", build_then_mark)
    instance = _two_passage_instance(
        "Where was the spouse of Marie Curie born?", "Paris", ["Marie Curie"]
    )
    backend = _fifo(
        json.dumps([["Marie Curie", "born in", "Warsaw"], ["Marie Curie", "spouse", "Pierre Curie"]]),
        json.dumps([["Pierre Curie", "born in", "Paris"], ["Warsaw", "capital of", "Poland"],
                    ["He", "born in", "Paris"]]),
        # passage 1 gleaning: one fresh triple, then only repeats
        json.dumps([["Marie Curie", "born_in", "Warsaw"], ["Pierre Curie", "born in", "Paris"]]),
        json.dumps([["Marie Curie", "spouse", "Pierre Curie"], ["Pierre Curie", "born in", "Paris"]]),
        # passage 2 gleaning: repeats only
        json.dumps([["Warsaw", "capital of", "Poland"], ["Pierre Curie", "born_in", "Paris"]]),
        json.dumps([["Pierre Curie", "P. Curie"], ["Warsaw", "warsaw"]]),
    )
    report = verify_instance(backend, instance)
    assert backend.calls == 6
    assert report.verdict.is_valid
    assert report.counters["gleaned_triples"] == 1
    assert before_search
    assert len(before_search) <= len(set(before_search)), sorted(before_search)


def test_verify_normalizes_each_string_once_in_the_whole_instance(monkeypatch):
    """The search for each gold answer, the noise label and the merged
    graph's rebuild and search share the instance's memo too: no string is
    normalized twice from the first extraction to the label."""
    calls = []

    def counting_normalize(text):
        calls.append(text)
        return normalize(text)

    merges = []
    real_merged_kg = kg_graph._merged_kg

    def merged_kg(kg, a, b, keys):
        merges.append((a, b))
        return real_merged_kg(kg, a, b, keys)

    monkeypatch.setattr(kg_graph, "normalize", counting_normalize)
    monkeypatch.setattr(kg_graph, "_merged_kg", merged_kg)
    instance = build_instance({
        "id": "q1",
        "question": "Who was born first, Ada Lovelace or Lorenzo Costa?",
        "gold_answers": ["Lorenzo Costa", "L. Costa"],
        "question_entities": ["Ada Lovelace", "Lorenzo Costa"],
        "gold_passages": [{"title": "P1", "body": "First."}, {"title": "P2", "body": "Second."}],
    })
    backend = _fifo(
        json.dumps([["Ada Lovelace", "birth_date", "1815"], ["Lorenzo Costa", "born in", "Ferrara"]]),
        json.dumps([["Lorenzo Costa the Elder", "date of birth", "1460"]]),
        "[]", "[]", "[]",
    )
    report = verify_instance(backend, instance)
    assert backend.calls == 5
    assert not report.verdict.is_valid
    # The comparison holds once the two Lorenzo Costa nodes are one.
    assert report.noise_label is NoiseLabel.ENTITY_CONFLATION
    assert merges == [("lorenzo costa", "lorenzo costa elder")]
    assert len(calls) == len(set(calls)), sorted(calls)


def test_extract_flags_unparseable_passage():
    record = _ALL_RECORDS[0]
    instance = build_instance(record)
    texts = ["not json"] + [json.dumps([["A", "r", "B"]])] * (len(instance.gold_passages) - 1)
    result = extract_triples(_fifo(*texts), instance)
    assert result.failed_passages == (instance.gold_passages[0].index,)


def test_glean_dedup_and_early_stop():
    existing = [Triple("Ada", "directed by", "B", 1)]
    backend = _fifo(
        json.dumps([["Ada", "directed_by", "B"], ["B", "born in", "Rome"]]),
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


def test_resolve_entities_never_groups_a_surface_that_names_no_entity():
    # A pronoun canonical would send the group's triples to a node build_kg drops.
    triples = [Triple("John Smith", "founded", "Acme Works", 1)]
    groups, ok = resolve_entities(
        _fifo(json.dumps([["He", "John Smith", "J. Smith"], ["The", "Acme Works", "?"]])), triples
    )
    assert ok
    assert groups == [AliasGroup(frozenset({"John Smith", "J. Smith"}), "John Smith")]


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


def _llm_verify(verdict_reply: str, mode: str, record: dict = _ALL_RECORDS[0]):
    """Verify a fixture record, by default the first (deterministically
    Grounded), with `verdict_reply` as the model's path verdict."""
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
    film, director = "Koeputkiaikuinen Ja Simon Enkelit", "Spede Pasanen"
    reply = {"is_valid": True, "reasoning_path": [[film, " ", director], [film, "directed_by", director]]}
    report = _llm_verify(json.dumps(reply), mode)
    llm = report.verdict if mode == "llm" else report.alt_verdict
    assert llm.is_valid
    assert llm.reasoning_path == (Triple(film, "directed_by", director),)


_NOISE_RECORDS = load_noise_fixtures()["noise"]


@pytest.mark.parametrize("record", _NOISE_RECORDS, ids=lambda r: r["id"])
@pytest.mark.parametrize("mode", ["llm", "cross-check"])
def test_llm_path_not_in_graph_does_not_count(record, mode):
    reply = {"is_valid": True, "reasoning_path": [["Nobody", "invented", "Nothing"]]}
    report = _llm_verify(json.dumps(reply), mode, record)
    llm = report.verdict if mode == "llm" else report.alt_verdict
    assert not llm.is_valid
    assert llm.explanation == 'ungrounded path: triple ["Nobody", "invented", "Nothing"] is not in the graph'
    assert "llm_path_ungrounded" in report.flags
    assert report.noise_label.value == record["expected_label"]
    assert not report.disagreement


_DANCING = next(r for r in _ALL_RECORDS if r["id"] == "dancing-stars-judge")


@pytest.mark.parametrize(
    "path, grounded",
    [
        # through the alias "Paul Mercurio", with a space for the "_"
        ([["Paul Mercurio", "judge on", "Dancing with the Stars"]], True),
        # the edge read tail to head
        ([["Dancing with the Stars", "judge_on", "Paul Joseph Mercurio"]], True),
        # a graph edge that touches no answer node
        ([["Paul Joseph Mercurio", "birth_date", "31 March 1963"]], False),
        # the right nodes under another relation
        ([["Paul Mercurio", "hosted", "Dancing with the Stars"]], False),
        ([], False),
    ],
    ids=["alias-and-underscore", "reversed", "no-question-entity", "wrong-relation", "empty"],
)
def test_llm_path_must_be_a_graph_path(path, grounded):
    report = _llm_verify(json.dumps({"is_valid": True, "reasoning_path": path}), "llm", _DANCING)
    assert report.verdict.is_valid is grounded
    assert ("llm_path_ungrounded" in report.flags) is not grounded
    assert report.noise_label is (NoiseLabel.GROUNDED if grounded else NoiseLabel.MISSING_EVIDENCE)


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
    rows = [
        verify_instance(build_verify_backend(r), build_instance(r)).to_dict() for r in records
    ]
    base = NoiseStats.from_labels(row["noise_label"] for row in rows)
    assert base.total == len(records)
    assert base.noisy == sum(1 for r in records if r["expected_label"] != "Grounded")
    shuffled = rows[:]
    random.Random(5).shuffle(shuffled)
    assert NoiseStats.from_labels(row["noise_label"] for row in shuffled) == base
    assert base.to_dict()["by_label"]["Grounded"] == base.total - base.noisy
