import json
import re

import pytest

from hopcheck.data_model import (
    AnswerVerdict,
    Dataset,
    MalformedRecordError,
    Passage,
    QAInstance,
    TooManyGoldPassagesError,
    canonical_row,
    from_canonical_row,
    load_instances,
    read_jsonl,
    write_json,
    write_jsonl,
)


def _hotpot_record(rid="q1", n_distractors=12, n_gold=2):
    context = []
    supporting = []
    for i in range(n_gold):
        title = f"Gold {i}"
        context.append([title, [f"Gold sentence {i}a.", f"Gold sentence {i}b."]])
        supporting.append([title, 0])
    for i in range(n_distractors):
        context.append([f"Distractor {i}", [f"Distractor sentence {i}."]])
    return {
        "_id": rid,
        "question": "Who?",
        "answer": "Somebody",
        "context": context,
        "supporting_facts": supporting,
    }


def test_load_hotpot_style_normalizes_to_ten_passages(tmp_path):
    path = tmp_path / "sample.json"
    path.write_text(json.dumps([_hotpot_record()]))
    (inst,) = load_instances(path, Dataset.HOTPOTQA, seed=7)
    assert len(inst.passages) == 10
    assert sorted(p.index for p in inst.passages) == list(range(1, 11))
    assert len(inst.gold_passages) == 2
    assert inst.gold_passages[0].body.startswith("Gold sentence")


def test_loading_is_deterministic_per_seed(tmp_path):
    path = tmp_path / "sample.json"
    path.write_text(json.dumps([_hotpot_record()]))
    a = load_instances(path, Dataset.HOTPOTQA, seed=7)
    b = load_instances(path, Dataset.HOTPOTQA, seed=7)
    c = load_instances(path, Dataset.HOTPOTQA, seed=8)
    assert [canonical_row(i) for i in a] == [canonical_row(i) for i in b]
    assert [p.title for p in a[0].passages] != [p.title for p in c[0].passages]


def test_gold_passages_never_dropped(tmp_path):
    path = tmp_path / "sample.json"
    path.write_text(json.dumps([_hotpot_record(n_gold=4, n_distractors=20)]))
    (inst,) = load_instances(path, Dataset.HOTPOTQA, seed=1)
    assert len(inst.gold_passages) == 4


def test_too_many_gold_passages_is_an_error(tmp_path):
    path = tmp_path / "sample.json"
    path.write_text(json.dumps([_hotpot_record(n_gold=11, n_distractors=0)]))
    with pytest.raises(TooManyGoldPassagesError):
        load_instances(path, Dataset.HOTPOTQA, seed=1)


def test_malformed_record_names_the_index(tmp_path):
    path = tmp_path / "sample.json"
    path.write_text(json.dumps([{"_id": "x", "question": "q"}]))
    with pytest.raises(MalformedRecordError) as exc:
        load_instances(path, Dataset.HOTPOTQA, seed=1)
    assert exc.value.record_index == 0


@pytest.mark.parametrize("spoil, problem", [
    (lambda row: row.pop("id"), "missing field 'id'"),
    (lambda row: row["passages"][4].update(body=""), "passage body must be non-empty"),
], ids=["missing-id", "empty-body"])
def test_malformed_canonical_row_names_the_file_and_row(tmp_path, spoil, problem):
    src = tmp_path / "sample.json"
    src.write_text(json.dumps([_hotpot_record()]))
    (inst,) = load_instances(src, Dataset.TWOWIKI, seed=3)
    bad = canonical_row(inst)
    spoil(bad)
    path = tmp_path / "canon.jsonl"
    write_jsonl(path, [canonical_row(inst), bad])
    with pytest.raises(MalformedRecordError) as exc:
        load_instances(path, Dataset.CANONICAL, seed=0)
    assert exc.value.record_index == 1
    assert str(exc.value) == f"{path}: record 1: {problem}"


def _musique_record(n_paragraphs=10):
    return {
        "id": "m1",
        "question": "Where?",
        "answer": "Paris",
        "paragraphs": [
            {"title": f"P{i}", "paragraph_text": f"Text {i}.", "is_supporting": i < 2}
            for i in range(n_paragraphs)
        ],
    }


def _drop_first_title(rec):
    del rec["paragraphs"][0]["title"]
    return rec


@pytest.mark.parametrize("dataset, content, problem", [
    (Dataset.HOTPOTQA, json.dumps([{**_hotpot_record(), "context": 5}]),
     "record 0: 'int' object is not iterable"),
    (Dataset.TWOWIKI, json.dumps({"x": 1}), "top-level value is not a JSON list"),
    (Dataset.HOTPOTQA, json.dumps([_hotpot_record(), 7]),
     "record 1: 'int' object has no attribute 'get'"),
    (Dataset.MUSIQUE, json.dumps(_drop_first_title(_musique_record())),
     "record 0: missing field 'title'"),
    (Dataset.MUSIQUE, json.dumps(_musique_record(n_paragraphs=1)),
     "record 0: expected exactly 10 passages, got 1"),
], ids=["number-context", "object-file", "number-record", "untitled-paragraph", "one-passage"])
def test_malformed_benchmark_record_names_the_file_and_record(tmp_path, dataset, content, problem):
    path = tmp_path / "sample.json"
    path.write_text(content + "\n")
    with pytest.raises(ValueError) as exc:
        load_instances(path, dataset, seed=0)
    assert str(exc.value) == f"{path}: {problem}"


def test_load_musique_jsonl(tmp_path):
    rec = {
        "id": "m1",
        "question": "Where?",
        "answer": "Paris",
        "answer_aliases": ["City of Light"],
        "paragraphs": [
            {"title": f"P{i}", "paragraph_text": f"Text {i}.", "is_supporting": i < 2}
            for i in range(10)
        ],
    }
    path = tmp_path / "sample.jsonl"
    path.write_text(json.dumps(rec) + "\n")
    (inst,) = load_instances(path, Dataset.MUSIQUE, seed=0)
    assert inst.gold_answers == ("Paris", "City of Light")
    assert len(inst.gold_passages) == 2


def test_canonical_round_trip(tmp_path):
    src = tmp_path / "sample.json"
    src.write_text(json.dumps([_hotpot_record()]))
    instances = load_instances(src, Dataset.TWOWIKI, seed=3)
    out = tmp_path / "canon.jsonl"
    write_jsonl(out, map(canonical_row, instances))
    reloaded = load_instances(out, Dataset.CANONICAL, seed=0)
    assert [canonical_row(i) for i in reloaded] == [canonical_row(i) for i in instances]
    assert from_canonical_row(canonical_row(instances[0])) == instances[0]


def test_instance_invariants():
    passages = tuple(Passage(i, f"T{i}", f"B{i}", False) for i in range(1, 11))
    with pytest.raises(ValueError):
        QAInstance("x", "q", passages[:9], ("a",), Dataset.TWOWIKI, 0)
    with pytest.raises(ValueError):
        QAInstance("x", "q", passages, (), Dataset.TWOWIKI, 0)
    # The loop's citation check relies on passage indices running 1..10.
    inst = QAInstance("x", "q", passages, ("a",), Dataset.TWOWIKI, 0)
    assert [p.index for p in inst.passages] == list(range(1, 11))
    with pytest.raises(ValueError):
        QAInstance("x", "q", passages[:9] + (Passage(11, "T11", "B11", False),), ("a",), Dataset.TWOWIKI, 0)


def test_passage_and_verdict_invariants():
    with pytest.raises(ValueError):
        Passage(0, "t", "b", False)
    with pytest.raises(ValueError):
        Passage(1, "t", "", False)
    with pytest.raises(ValueError):
        AnswerVerdict(em=1, f1=0.5)


@pytest.mark.parametrize(
    "write", [lambda path: write_jsonl(path, [{"a": 1}, {"b": {1, 2}}]),
              lambda path: write_json(path, {"a": {1, 2}})],
    ids=["write_jsonl", "write_json"],
)
def test_failed_write_leaves_target_and_no_temp_file(tmp_path, write):
    target = tmp_path / "out.jsonl"
    target.write_bytes(b'{"old": true}\n')
    with pytest.raises(TypeError):
        write(target)
    assert target.read_bytes() == b'{"old": true}\n'
    assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]


def test_writers_format(tmp_path):
    write_jsonl(tmp_path / "rows.jsonl", [{"b": "é", "a": 1}, {}])
    assert (tmp_path / "rows.jsonl").read_text("utf-8") == '{"a": 1, "b": "é"}\n{}\n'
    write_json(tmp_path / "obj.json", {"b": [1], "a": "é"})
    assert (tmp_path / "obj.json").read_text("utf-8") == '{\n  "a": "é",\n  "b": [\n    1\n  ]\n}\n'


def test_write_jsonl_writes_the_bytes_of_json_dumps(tmp_path):
    rows = [
        {"zeta": "Zoë Saldaña", "alpha": [1, [2.5, "Straße"], []], "mid": {"y": None, "b": True}},
        {"日本": "東京", "ascii": "plain", "esc": "tab\tquote\" back\\ ctrl\u0001 line\u2028"},
        ["not", "a", {"dict": -0.0}],
    ]
    path = tmp_path / "rows.jsonl"
    write_jsonl(path, rows)
    expected = "".join(json.dumps(row, ensure_ascii=False, sort_keys=True) + "\n" for row in rows)
    assert path.read_bytes() == expected.encode("utf-8")


def test_read_jsonl_skips_blank_lines_and_names_bad_line(tmp_path):
    path = tmp_path / "runs.jsonl"
    path.write_text('{"a": 1}\n\n{"b": 2}\n')
    assert read_jsonl(path) == [{"a": 1}, {"b": 2}]
    for bad_line in ('{"b": ', "[1]"):
        path.write_text('{"a": 1}\n' + bad_line + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: "):
            read_jsonl(path)
