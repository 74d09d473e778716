"""Canonical domain types and benchmark ingestion.

Loads 2WikiMultihopQA / HotpotQA JSON and MuSiQue JSONL records into a
uniform 10-passage distractor setting. All types are immutable after
construction; loading is read-only and safe to parallelize per file.

Every JSON or JSONL file the package reads goes through `read_json` or
`read_jsonl`, and every one it writes goes through `write_json` or
`write_jsonl`, which write a temp file and rename it over the target.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Iterable


class Dataset(str, Enum):
    TWOWIKI = "2wiki"
    HOTPOTQA = "hotpotqa"
    MUSIQUE = "musique"
    CANONICAL = "canonical"


class FeedbackMode(str, Enum):
    NO_FEEDBACK = "none"
    SELF_FEEDBACK = "self"
    EXTERNAL_FEEDBACK = "safe"


class MalformedRecordError(ValueError):
    """Raised when a source record is missing a required field or holds a
    value an instance cannot take; names the file and the record."""

    def __init__(self, path: str | Path, record_index: int, message: str):
        super().__init__(f"{path}: record {record_index}: {message}")
        self.record_index = record_index


class TooManyGoldPassagesError(ValueError):
    """Instance has more than 10 gold passages; gold evidence is never dropped."""


@dataclass(frozen=True)
class Passage:
    index: int  # 1-based, unique within an instance
    title: str
    body: str
    is_gold: bool

    def __post_init__(self) -> None:
        if not self.body:
            raise ValueError("passage body must be non-empty")
        if self.index < 1:
            raise ValueError("passage index is 1-based")


class JudgeVerdict(str, Enum):
    CORRECT = "Correct"
    WRONG = "Wrong"
    UNJUDGED = "Unjudged"


@dataclass(frozen=True)
class AnswerVerdict:
    em: int
    f1: float
    judge: JudgeVerdict = JudgeVerdict.UNJUDGED
    judge_reasoning: str = ""

    def __post_init__(self) -> None:
        if self.f1 < self.em:
            raise ValueError("f1 must be >= em")


@dataclass(frozen=True)
class QAInstance:
    id: str
    question: str
    passages: tuple[Passage, ...]
    gold_answers: tuple[str, ...]
    dataset: Dataset
    shuffle_seed: int
    question_entities: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        if len(self.passages) != 10:
            raise ValueError(f"expected exactly 10 passages, got {len(self.passages)}")
        if not self.gold_answers:
            raise ValueError("gold_answers must be non-empty")
        indices = [p.index for p in self.passages]
        if sorted(indices) != list(range(1, 11)):
            raise ValueError("passage indices must be exactly 1..10")

    @property
    def gold_passages(self) -> tuple[Passage, ...]:
        return tuple(p for p in self.passages if p.is_gold)


def _instance_rng(seed: int, instance_id: str) -> random.Random:
    # Per-instance PRNG keyed by (global seed, id) so corpus subsets
    # reproduce identically regardless of file order.
    digest = hashlib.sha256(f"{seed}:{instance_id}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _shuffled_order(instance_id: str, seed: int, n: int) -> list[int]:
    order = list(range(n))
    _instance_rng(seed, f"shuffle:{instance_id}").shuffle(order)
    return order


def _finalize(
    instance_id: str,
    question: str,
    raw_passages: list[tuple[str, str, bool]],
    gold_answers: list[str],
    dataset: Dataset,
    seed: int,
) -> QAInstance:
    gold = [p for p in raw_passages if p[2]]
    if len(gold) > 10:
        raise TooManyGoldPassagesError(
            f"instance {instance_id}: {len(gold)} gold passages exceed the 10-passage cap"
        )
    distractors = [p for p in raw_passages if not p[2]]
    if len(raw_passages) > 10:
        rng = _instance_rng(seed, f"sample:{instance_id}")
        keep = rng.sample(distractors, 10 - len(gold))
        # Preserve source order among the kept distractors.
        kept_set = {id(d) for d in keep}
        chosen = gold + [d for d in distractors if id(d) in kept_set]
    else:
        chosen = list(raw_passages)
    order = _shuffled_order(instance_id, seed, len(chosen))
    shuffled = [chosen[i] for i in order]
    passages = tuple(
        Passage(index=i + 1, title=t, body=b, is_gold=g)
        for i, (t, b, g) in enumerate(shuffled)
    )
    return QAInstance(
        id=instance_id,
        question=question,
        passages=passages,
        gold_answers=tuple(gold_answers),
        dataset=dataset,
        shuffle_seed=seed,
    )


def _build_each(
    path: str | Path, records: Iterable[Any], build: Callable[[Any], QAInstance]
) -> list[QAInstance]:
    """`build` over each record. A record it cannot take raises
    MalformedRecordError naming `path` and the record; a
    TooManyGoldPassagesError passes through as it is."""
    instances = []
    for i, rec in enumerate(records):
        try:
            instances.append(build(rec))
        except TooManyGoldPassagesError:
            raise
        except KeyError as exc:
            raise MalformedRecordError(path, i, f"missing field {exc}") from exc
        except (TypeError, AttributeError, ValueError) as exc:
            raise MalformedRecordError(path, i, str(exc)) from exc
    return instances


def _load_hotpot_style(path: Path, dataset: Dataset, seed: int) -> list[QAInstance]:
    records = read_json(path)
    if not isinstance(records, list):
        raise ValueError(f"{path}: top-level value is not a JSON list")

    def build(rec: dict) -> QAInstance:
        rid = rec.get("_id") or rec["id"]
        question, answer, context = rec["question"], rec["answer"], rec["context"]
        supporting = {title for title, _ in rec["supporting_facts"]}
        raw = [
            (title, " ".join(sentences).strip(), title in supporting)
            for title, sentences in context
            if sentences
        ]
        return _finalize(rid, question, raw, [answer], dataset, seed)

    return _build_each(path, records, build)


def _load_musique(path: Path, seed: int) -> list[QAInstance]:
    def build(rec: dict) -> QAInstance:
        rid, question, answer = rec["id"], rec["question"], rec["answer"]
        paragraphs = rec["paragraphs"]
        golds = [answer] + list(rec.get("answer_aliases", []))
        raw = [
            (p["title"], p["paragraph_text"], bool(p.get("is_supporting")))
            for p in paragraphs
            if p.get("paragraph_text")
        ]
        return _finalize(rid, question, raw, golds, Dataset.MUSIQUE, seed)

    return _build_each(path, read_jsonl(path), build)


def load_instances(path: str | Path, dataset: Dataset, seed: int) -> list[QAInstance]:
    """Load a benchmark file into normalized 10-passage instances.

    Deterministic: the same (path, dataset, seed) always yields the same
    instance list, including passage order.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(path)
    if dataset in (Dataset.TWOWIKI, Dataset.HOTPOTQA):
        return _load_hotpot_style(path, dataset, seed)
    if dataset is Dataset.MUSIQUE:
        return _load_musique(path, seed)
    if dataset is Dataset.CANONICAL:
        return load_canonical(path)
    raise ValueError(f"unknown dataset {dataset}")


def canonical_row(instance: QAInstance) -> dict:
    """One canonical JSONL row per instance; round-trips through from_canonical_row."""
    return {
        "id": instance.id,
        "question": instance.question,
        "passages": [
            {"index": p.index, "title": p.title, "body": p.body, "is_gold": p.is_gold}
            for p in instance.passages
        ],
        "gold_answers": list(instance.gold_answers),
        "dataset": instance.dataset.value,
        "shuffle_seed": instance.shuffle_seed,
        "question_entities": list(instance.question_entities),
    }


def from_canonical_row(rec: dict) -> QAInstance:
    return QAInstance(
        id=rec["id"],
        question=rec["question"],
        passages=tuple(
            Passage(p["index"], p["title"], p["body"], p["is_gold"])
            for p in rec["passages"]
        ),
        gold_answers=tuple(rec["gold_answers"]),
        dataset=Dataset(rec["dataset"]),
        shuffle_seed=rec["shuffle_seed"],
        question_entities=tuple(rec.get("question_entities", [])),
    )


def load_canonical(path: str | Path) -> list[QAInstance]:
    """The instances of a canonical JSONL file. A row that is not a valid
    instance raises MalformedRecordError naming `path` and the row."""
    return _build_each(path, read_jsonl(path), from_canonical_row)


def read_json(path: str | Path) -> Any:
    """The value held by a JSON file. A file that does not parse raises
    ValueError naming `path`."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from exc


def read_jsonl(path: str | Path) -> list[dict]:
    """The rows of a JSONL file, skipping blank lines. A line that is not
    a JSON object raises ValueError naming `path:lineno`."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            if not isinstance(row, dict):
                raise ValueError(f"{path}:{lineno}: not a JSON object")
            rows.append(row)
    return rows


def _replace(path: str | Path, chunks: Iterable[str]) -> None:
    """Write `chunks` to a temp file next to `path`, then rename it over
    `path`, so readers see the old file or the whole new one. If writing
    fails, the temp file is removed and the target is untouched."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# json.dumps builds a new encoder per call when given any non-default
# argument; one shared encoder writes the same bytes.
_ROW_ENCODER = json.JSONEncoder(ensure_ascii=False, sort_keys=True)


def write_jsonl(path: str | Path, rows: Iterable[Any]) -> None:
    """One JSON line per row, keys sorted, non-ASCII kept as is."""
    _replace(path, (_ROW_ENCODER.encode(row) + "\n" for row in rows))


def write_json(path: str | Path, obj: Any) -> None:
    """Indented JSON with sorted keys and a trailing newline."""
    _replace(path, [json.dumps(obj, ensure_ascii=False, indent=2, sort_keys=True) + "\n"])
