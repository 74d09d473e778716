"""Offline benchmark verification: extract, glean, resolve, verify.

Gold passages are mined for triples (with a bounded gleaning pass for
recall), entity surface forms are merged into alias groups, and the
resulting localized graph is searched for a grounded reasoning path.
Instances without one receive a noise label; corpus-level counts feed
the reported noise statistics.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Iterable

from .data_model import QAInstance
from .kg_graph import (
    NON_ENTITY_KEYS,
    AliasGroup,
    KeyMemo,
    LocalizedKG,
    NoiseLabel,
    PathPattern,
    PathVerdict,
    Triple,
    build_kg,
    classify_noise,
    find_grounded_path,
    parse_orderable,
    primary_answer,
    relation_key,
    ungrounded_reason,
)
from .llm_client import (
    Backend,
    ParseFailure,
    TransportError,
    ask,
    parse_json_list,
    parse_structured_verdict,
)

MAX_GLEANING_ROUNDS = 2

VERIFY_MODES = ("deterministic", "llm", "cross-check")

# Generic role/category words the resolver must never treat as entities.
_GENERIC_TERMS = frozenset(
    "president mother father son daughter band album film movie company "
    "city country actor actress director singer writer author person "
    "group team school university".split()
)


def _coerce_triples(items: list, source_passage: int, keys: KeyMemo) -> tuple[list[Triple], int]:
    """Keep well-formed [subject, predicate, object] rows; count rejects.

    A row is rejected when it is malformed, or when its head or tail key
    is one of NON_ENTITY_KEYS (a pronoun, or empty as for "The" and "?").
    """
    kept: list[Triple] = []
    rejected = 0
    for item in items:
        if (
            not isinstance(item, (list, tuple))
            or len(item) != 3
            or not all(isinstance(s, str) for s in item)
        ):
            rejected += 1
            continue
        head, relation, tail = (s.strip() for s in item)
        if (
            not (head and relation and tail)
            or keys[head] in NON_ENTITY_KEYS
            or keys[tail] in NON_ENTITY_KEYS
        ):
            rejected += 1
            continue
        kept.append(Triple(head, relation, tail, source_passage))
    return kept, rejected


def _triple_key(t: Triple, keys: KeyMemo) -> tuple[str, str, str]:
    return (keys[t.head], relation_key(t.relation, keys), keys[t.tail])


# json.dumps builds a new encoder per call when given any non-default
# argument; one shared encoder writes the same prompt text.
_PROMPT_ENCODER = json.JSONEncoder(ensure_ascii=False)


def _triples_json(triples: list[Triple]) -> str:
    return _PROMPT_ENCODER.encode([t.as_list() for t in triples])


@dataclass(frozen=True)
class ExtractionResult:
    triples: tuple[Triple, ...]
    rejected: int
    failed_passages: tuple[int, ...]  # passage indices whose output did not parse


def extract_triples(
    backend: Backend, instance: QAInstance, model_id: str = "default", *, keys: KeyMemo | None = None
) -> ExtractionResult:
    """One extraction request per gold passage; malformed outputs are flagged.
    `keys` is the instance's normalization memo (a fresh one if omitted)."""
    keys = KeyMemo() if keys is None else keys
    triples: list[Triple] = []
    failed: list[int] = []
    rejected = 0
    for passage in instance.gold_passages:
        _, resp = ask(backend, "triple_extraction", model_id, title=passage.title, body=passage.body)
        parsed = parse_json_list(resp.text)
        if isinstance(parsed, ParseFailure):
            failed.append(passage.index)
            continue
        kept, bad = _coerce_triples(parsed, passage.index, keys)
        triples.extend(kept)
        rejected += bad
    return ExtractionResult(
        triples=tuple(triples),
        rejected=rejected,
        failed_passages=tuple(failed),
    )


def glean(
    backend: Backend,
    body: str,
    existing: list[Triple],
    source_passage: int,
    model_id: str = "default",
    *,
    keys: KeyMemo | None = None,
) -> tuple[list[Triple], int]:
    """Recall pass over one passage: ask for missed triples, at most
    MAX_GLEANING_ROUNDS times, stopping early once a round adds nothing new."""
    keys = KeyMemo() if keys is None else keys
    known = {_triple_key(t, keys) for t in existing}
    pool = list(existing)
    added: list[Triple] = []
    rounds = 0
    for _ in range(MAX_GLEANING_ROUNDS):
        _, resp = ask(backend, "gleaning", model_id, body=body, existing_triples=_triples_json(pool))
        rounds += 1
        parsed = parse_json_list(resp.text)
        if isinstance(parsed, ParseFailure):
            break
        kept, _bad = _coerce_triples(parsed, source_passage, keys)
        fresh = [t for t in kept if _triple_key(t, keys) not in known]
        if not fresh:
            break
        for t in fresh:
            known.add(_triple_key(t, keys))
        pool.extend(fresh)
        added.extend(fresh)
    return added, rounds


def _entity_surface_forms(triples: list[Triple], keys: KeyMemo) -> list[str]:
    seen: dict[str, str] = {}
    for t in triples:
        for surface in (t.head, t.tail):
            seen.setdefault(keys[surface], surface)
    return [seen[k] for k in sorted(seen)]


def _groupable(member: str, keys: KeyMemo) -> bool:
    norm = keys[member]
    return norm not in NON_ENTITY_KEYS and norm not in _GENERIC_TERMS and parse_orderable(member) is None


def resolve_entities(
    backend: Backend, triples: list[Triple], model_id: str = "default", *, keys: KeyMemo | None = None
) -> tuple[list[AliasGroup], bool]:
    """Single resolution request over all entity surface forms.

    Returned groups are made disjoint by keeping each member's first
    occurrence; generic terms and date/number literals are dropped.
    A parse failure yields no groups and is reported via the flag.
    """
    keys = KeyMemo() if keys is None else keys
    entities = _entity_surface_forms(triples, keys)
    if not entities:
        return [], True
    _, resp = ask(
        backend, "entity_resolution", model_id,
        entities=_PROMPT_ENCODER.encode(entities),
        context_triples=_triples_json(triples),
    )
    parsed = parse_json_list(resp.text)
    if isinstance(parsed, ParseFailure):
        return [], False

    groups: list[AliasGroup] = []
    claimed: set[str] = set()
    for raw_group in parsed:
        if not isinstance(raw_group, list):
            continue
        members: list[str] = []
        member_keys: set[str] = set()
        for member in raw_group:
            if not isinstance(member, str) or not _groupable(member, keys):
                continue
            key = keys[member]
            if key in claimed or key in member_keys:
                continue
            members.append(member)
            member_keys.add(key)
        if len(members) < 2:
            continue
        claimed |= member_keys
        groups.append(AliasGroup(members=frozenset(members), canonical=members[0]))
    return groups, True


@dataclass(frozen=True)
class InstanceReport:
    instance_id: str
    verdict: PathVerdict
    noise_label: NoiseLabel | None  # None when verification hard-failed
    kg: LocalizedKG
    counters: dict[str, int] = field(default_factory=dict)
    flags: tuple[str, ...] = ()
    alt_verdict: PathVerdict | None = None  # cross-check companion verdict

    @property
    def disagreement(self) -> bool:
        return self.alt_verdict is not None and self.alt_verdict.is_valid != self.verdict.is_valid

    def to_dict(self) -> dict:
        return {
            "instance_id": self.instance_id,
            "verdict": self.verdict.to_dict(),
            "noise_label": self.noise_label.value if self.noise_label else None,
            "counters": dict(self.counters),
            "flags": list(self.flags),
            "alt_verdict": self.alt_verdict.to_dict() if self.alt_verdict else None,
            "disagreement": self.disagreement,
        }


def _question_entities(instance: QAInstance) -> set[str]:
    if instance.question_entities:
        return set(instance.question_entities)
    # No annotated entities: gold passage titles are the best stand-in.
    return {p.title for p in instance.gold_passages}


def _deterministic_verdict(
    kg: LocalizedKG, instance: QAInstance, entities: set[str], keys: KeyMemo
) -> PathVerdict:
    verdict = None
    for answer in instance.gold_answers:
        if not keys[answer]:
            continue
        candidate = find_grounded_path(kg, entities, answer, keys=keys)
        if candidate.is_valid:
            return candidate
        if verdict is None:
            verdict = candidate
    if verdict is None:
        return PathVerdict(False, (), PathPattern.SEQUENTIAL, "no usable gold answer")
    return verdict


def _llm_verdict(
    backend: Backend, kg: LocalizedKG, instance: QAInstance, model_id: str, keys: KeyMemo
) -> PathVerdict | None:
    _, resp = ask(
        backend, "path_discovery", model_id,
        question=instance.question,
        answer=primary_answer(instance.gold_answers, keys),
        triples=_triples_json([e.triple() for e in kg.edges]),
    )
    obj = parse_structured_verdict(resp.text, required_keys=("is_valid", "reasoning_path"))
    if (
        isinstance(obj, ParseFailure)
        or not isinstance(obj["is_valid"], bool)
        or not isinstance(obj["reasoning_path"], list)
    ):
        return None
    path = []
    for item in obj["reasoning_path"]:
        if isinstance(item, list) and len(item) == 3 and all(isinstance(s, str) and s.strip() for s in item):
            path.append(Triple(*item))
    return PathVerdict(
        is_valid=obj["is_valid"],
        reasoning_path=tuple(path),
        pattern=PathPattern.MIXED,
        explanation=str(obj.get("explanation", "")),
    )


def verify_instance(
    backend: Backend,
    instance: QAInstance,
    mode: str = "deterministic",
    model_id: str = "default",
) -> InstanceReport:
    """Full single-instance verification pipeline.

    deterministic: graph search decides validity. llm: a model reads the
    normalized triples and decides; a valid verdict whose path the graph
    does not hold (see ungrounded_reason) becomes invalid and is flagged
    `llm_path_ungrounded`. cross-check: both run and any validity
    disagreement is recorded; the deterministic verdict is primary. A
    failed backend call leaves the instance unverified, with an empty
    graph and a `backend_failed:<error>` flag.

    Every surface is normalized once, through one memo that extraction,
    gleaning, resolution, build_kg, the search and the noise label share
    and that ends with the call.
    """
    if mode not in VERIFY_MODES:
        raise ValueError(f"mode must be one of {VERIFY_MODES}, got {mode!r}")
    keys = KeyMemo()
    try:
        extraction = extract_triples(backend, instance, model_id, keys=keys)
        triples = list(extraction.triples)
        by_passage: dict[int, list[Triple]] = {}
        for t in triples:
            by_passage.setdefault(t.source_passage, []).append(t)
        gleaning_rounds = 0
        gleaned = 0
        for passage in instance.gold_passages:
            if passage.index in extraction.failed_passages:
                continue
            own = by_passage.get(passage.index, [])
            fresh, rounds = glean(backend, passage.body, own, passage.index, model_id, keys=keys)
            triples.extend(fresh)
            gleaned += len(fresh)
            gleaning_rounds += rounds

        flags = [f"extraction_failed_passage_{i}" for i in extraction.failed_passages]
        counters = {
            "extraction_calls": len(instance.gold_passages),
            "gleaning_rounds": gleaning_rounds,
            "gleaned_triples": gleaned,
            "rejected_triples": extraction.rejected,
            "triples": len(triples),
        }

        if not triples:
            return InstanceReport(
                instance_id=instance.id,
                verdict=PathVerdict(False, (), PathPattern.SEQUENTIAL, "no triples extracted"),
                noise_label=None,
                kg=build_kg([], []),
                counters=counters,
                flags=tuple(flags + ["unverified"]),
            )

        groups, resolved = resolve_entities(backend, triples, model_id, keys=keys)
        if not resolved:
            flags.append("entity_resolution_unparseable")
        counters["alias_groups"] = len(groups)
        kg = build_kg(triples, groups, keys=keys)
        llm = _llm_verdict(backend, kg, instance, model_id, keys) if mode != "deterministic" else None
    except TransportError as exc:
        return InstanceReport(
            instance_id=instance.id,
            verdict=PathVerdict(False, (), PathPattern.SEQUENTIAL, f"backend failed: {exc}"),
            noise_label=None,
            kg=build_kg([], []),
            flags=(f"backend_failed:{type(exc).__name__}", "unverified"),
        )

    entities = _question_entities(instance)
    if llm is not None and llm.is_valid:
        answer = primary_answer(instance.gold_answers, keys)
        reason = ungrounded_reason(kg, llm.reasoning_path, entities, answer, keys=keys)
        if reason is not None:
            llm = replace(llm, is_valid=False, explanation=f"ungrounded path: {reason}")
            flags.append("llm_path_ungrounded")
    det = _deterministic_verdict(kg, instance, entities, keys) if mode != "llm" else None
    if mode == "llm":
        if llm is None:
            return InstanceReport(
                instance_id=instance.id,
                verdict=PathVerdict(False, (), PathPattern.MIXED, "verdict unparseable"),
                noise_label=None,
                kg=kg,
                counters=counters,
                flags=tuple(flags + ["unverified"]),
            )
        verdict, alt = llm, None
    else:
        verdict, alt = det, llm
        if mode == "cross-check" and llm is None:
            flags.append("llm_verdict_unparseable")

    label = classify_noise(verdict, kg, instance.question, entities, instance.gold_answers, keys=keys)
    return InstanceReport(
        instance_id=instance.id,
        verdict=verdict,
        noise_label=label,
        kg=kg,
        counters=counters,
        flags=tuple(flags),
        alt_verdict=alt,
    )


@dataclass(frozen=True)
class NoiseStats:
    total: int
    noisy: int
    by_label: tuple[tuple[str, int], ...] = ()
    unverified: int = 0

    def __post_init__(self) -> None:
        if self.total < 0 or self.noisy < 0 or self.noisy > self.total:
            raise ValueError("need 0 <= noisy <= total")

    @property
    def ratio(self) -> float:
        return round(self.noisy / self.total, 4) if self.total else 0.0

    @property
    def percent(self) -> float:
        return round(100.0 * self.noisy / self.total, 2) if self.total else 0.0

    @classmethod
    def from_labels(cls, labels: Iterable[str | None]) -> NoiseStats:
        """Counts over noise-label values; None marks an unverified instance.
        Invariant under label order."""
        counts = Counter(labels)
        unverified = counts.pop(None, 0)
        return cls(
            total=sum(counts.values()),
            noisy=sum(n for label, n in counts.items() if label != NoiseLabel.GROUNDED.value),
            by_label=tuple(sorted(counts.items())),
            unverified=unverified,
        )

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "noisy": self.noisy,
            "noise_ratio": self.ratio,
            "noise_percent": self.percent,
            "by_label": dict(self.by_label),
            "unverified": self.unverified,
        }

