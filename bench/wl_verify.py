"""`verify` workload: `hopcheck verify-benchmark --mode deterministic`.

A seeded corpus with a fixed mix of planted noise labels. Most instances
are HotpotQA-sized (2 gold passages, at most 10 triples, chains and
comparisons); a MuSiQue-sized tail has 4 gold passages over a circulant
graph of 12-14 entities with 3 edges per entity, so it is full of cycles
and every entity has the same number of simple paths. The noisy part of
that tail carries conflation-candidate pairs, each of which makes
`classify_noise` rebuild the graph and rerun the full path search.

The seed picks names, relations, which triples only gleaning finds and
the instance order; the mix of kinds is fixed, so every seed costs about
the same.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

from common import (
    PromptReader,
    WordMint,
    canonical_record,
    filler_text,
    read_jsonl,
    rng_for,
    usage,
    write_jsonl,
)

NAME = "verify"
WHY = (
    "kg_graph path search and per-pair conflation rebuilds dominate a dense noisy tail; "
    "the feedback loop and ledger are not used"
)

# (kind, count): 170 HotpotQA-sized instances, 30 dense ones, 20 of them noisy.
MIX = (
    ("chain", 35),
    ("chain_alias", 15),
    ("chain3", 20),
    ("cmp_order", 20),
    ("cmp_yes", 10),
    ("missing", 22),
    ("conflation", 18),
    ("wrong_chain", 12),
    ("wrong_bool", 8),
    ("ambiguous", 10),
    ("dense_grounded", 10),
    ("dense_conflation", 6),
    ("dense_missing", 14),
)
LABEL = {
    "chain": "Grounded",
    "chain_alias": "Grounded",
    "chain3": "Grounded",
    "cmp_order": "Grounded",
    "cmp_yes": "Grounded",
    "missing": "MissingEvidence",
    "conflation": "EntityConflation",
    "wrong_chain": "WrongAnswer",
    "wrong_bool": "WrongAnswer",
    "ambiguous": "Ambiguous",
    "dense_grounded": "Grounded",
    "dense_conflation": "EntityConflation",
    "dense_missing": "MissingEvidence",
}
WARM_ITEMS = 8
DENSE_DECOY_PAIRS = {"dense_conflation": 2, "dense_missing": 4}

RELATIONS = (
    "founded_by", "owned_by", "managed_by", "member of", "headquartered in",
    "located in", "directed by", "written by", "part of", "married to",
    "published by", "sponsored by", "created by", "partner of", "trained by",
)
FILLER_RELATIONS = ("occupation", "known for", "affiliated with", "award", "genre")
DATES = ("3 May 1931", "1947-02-11", "12 July 1958", "1962-09-30", "21 October 1970", "1984")
VAGUE_TIMES = ("Late Golden Period", "Early Iron Era", "Second Harvest Age", "Old Lantern Days")


class _Parts:
    """Collects one instance's gold passages and planted alias pairs."""

    def __init__(self, rng, mint: WordMint, passage_count: list[int]):
        self.rng = rng
        self.mint = mint
        self.passages: list[dict] = []
        self.aliases: list[list[str]] = []
        self._passage_count = passage_count  # corpus-wide, shared by all instances

    def passage(self, title: str, triples: list[list[str]]) -> None:
        # Two gold passages in five hold one triple that only gleaning finds.
        hidden = []
        if self._passage_count[0] % 5 < 2:
            hidden = [triples[self.rng.randrange(len(triples))]]
        self._passage_count[0] += 1
        sentences = " ".join(f"{h} {r.replace('_', ' ')} {t}." for h, r, t in triples)
        body = f"{sentences} {filler_text(self.rng, 30)}"
        self.passages.append({
            "title": title,
            "body": body,
            "extract": [t for t in triples if t not in hidden],
            "hidden": hidden,
        })

    def fillers(self, subject: str, count: int) -> list[list[str]]:
        return [
            [subject, self.rng.choice(FILLER_RELATIONS), self.mint.name(1)]
            for _ in range(count)
        ]

    def rel(self) -> str:
        return self.rng.choice(RELATIONS)


def _hotpot(kind: str, b: _Parts) -> tuple[str, list[str], list[str]]:
    """Returns (question, gold answers, question entities)."""
    m, rng = b.mint, b.rng
    if kind in ("chain", "chain_alias", "missing", "conflation"):
        e, answer = m.name(), m.name()
        if kind == "conflation":
            shared = [m.word(), m.word()]
            bridge_a = " ".join(shared + [m.word()])
            bridge_b = " ".join(shared + [m.word()])
        else:
            bridge_a = bridge_b = m.name()
        if kind == "missing":
            bridge_b = m.name()
        second_subject = bridge_b
        if kind == "chain_alias":
            # The second passage writes the bridge entity by an alias the
            # resolver must merge; the two share only one token.
            second_subject = f"{bridge_b.split()[0][0]}. {bridge_b.split()[1]}"
            b.aliases.append([bridge_b, second_subject])
        r1, r2 = b.rel(), b.rel()
        b.passage(e, [[e, r1, bridge_a]] + b.fillers(e, rng.randint(1, 3)))
        b.passage(bridge_b, [[second_subject, r2, answer]] + b.fillers(second_subject, rng.randint(1, 3)))
        question = f"What is {r2.replace('_', ' ')} the entity that {e} is {r1.replace('_', ' ')}?"
        return question, [answer], [e]
    if kind == "chain3":
        e, mid1, mid2, answer = m.name(), m.name(), m.name(), m.name()
        b.passage(e, [[e, b.rel(), mid1]] + b.fillers(e, rng.randint(1, 2)))
        b.passage(mid1, [[mid1, b.rel(), mid2], [mid2, b.rel(), answer]] + b.fillers(mid2, rng.randint(1, 2)))
        return f"Which entity is reached from {e} in three steps?", [answer], [e]
    if kind == "cmp_order":
        x, y = m.name(), m.name()
        dx, dy = rng.sample(DATES, 2)
        b.passage(x, [[x, "date of birth", dx], [x, "occupation", m.name(1)]] + b.fillers(x, rng.randint(0, 2)))
        b.passage(y, [[y, "birth date", dy], [y, "profession", m.name(1)]] + b.fillers(y, rng.randint(0, 2)))
        return f"Who was born first, {x} or {y}?", [x], [x, y]
    if kind in ("cmp_yes", "wrong_bool"):
        x, y, place = m.name(), m.name(), m.name()
        other = m.name() if kind == "wrong_bool" else place
        b.passage(x, [[x, "born in", place]] + b.fillers(x, rng.randint(1, 3)))
        b.passage(y, [[y, "place of birth", other]] + b.fillers(y, rng.randint(1, 3)))
        return f"Were {x} and {y} born in the same place?", ["yes"], [x, y]
    if kind == "wrong_chain":
        x, founder, birthplace, gold = m.name(), m.name(), m.name(), m.name()
        b.passage(x, [[x, "founded_by", founder]] + b.fillers(x, rng.randint(1, 3)))
        b.passage(founder, [[founder, "born in", birthplace]] + b.fillers(founder, rng.randint(0, 2)))
        return f"In which city was the founder of {x} born?", [gold], [x]
    if kind == "ambiguous":
        x, y = m.name(), m.name()
        tx, ty = rng.sample(VAGUE_TIMES, 2)
        b.passage(x, [[x, "inception", tx], [x, "located in", m.name(1)]] + b.fillers(x, rng.randint(0, 2)))
        b.passage(y, [[y, "inception", ty], [y, "location", m.name(1)]] + b.fillers(y, rng.randint(0, 2)))
        return f"Which was established earlier, {x} or {y}?", [x], [x, y]
    raise ValueError(kind)


def _dense(kind: str, b: _Parts, size: int) -> tuple[str, list[str], list[str]]:
    m, rng = b.mint, b.rng
    labels = [m.name() for _ in range(size)]
    decoys = DENSE_DECOY_PAIRS.get(kind, 0)
    # Decoy pairs: two dense nodes whose labels share two tokens, so
    # classify_noise tries merging them; merging never reaches the answer.
    spots = rng.sample(range(1, size), 2 * decoys + 1)
    for i in range(decoys):
        shared = [m.word(), m.word()]
        labels[spots[2 * i]] = " ".join(shared + [m.word()])
        labels[spots[2 * i + 1]] = " ".join(shared + [m.word()])
    edges = [
        [labels[i], b.rel(), labels[(i + d) % size]]
        for i in range(size)
        for d in (1, 2, 3)
    ]
    rng.shuffle(edges)
    extra: list[list[str]] = []
    if kind == "dense_grounded":
        answer = labels[size // 2]
    else:
        answer = m.name()
        extra.append([answer, b.rel(), m.name()])
        if kind == "dense_conflation":
            shared = [m.word(), m.word()]
            labels_bridge = " ".join(shared + [m.word()])
            old = labels[spots[-1]]
            labels[spots[-1]] = labels_bridge
            edges = [[labels_bridge if x == old else x for x in e] for e in edges]
            extra.append([" ".join(shared + [m.word()]), b.rel(), answer])
    # One alias written in a later passage; the resolver merges it back.
    alias_of = labels[spots[-1] if kind != "dense_conflation" else 0]
    alias = f"{alias_of.split()[0][0]}. {alias_of.split()[-1]}"
    b.aliases.append([alias_of, alias])
    chunks = [edges[i::4] for i in range(4)]
    chunks[3] = [[alias if x == alias_of else x for x in e] for e in chunks[3]]
    chunks[3].extend(extra)
    for chunk in chunks:
        b.passage(chunk[0][0], chunk)
    question = f"Which entity does {labels[0]} lead to through its partners?"
    return question, [answer], [labels[0]]


def build(seed: int) -> dict:
    kinds = [kind for kind, count in MIX for _ in range(count)]
    rng_for(seed, NAME, "order").shuffle(kinds)
    instances, plan = [], {}
    dense_sizes = (12, 13, 14)
    dense_seen = 0
    passage_count = [0]
    for n, kind in enumerate(kinds):
        iid = f"v{seed}-{n:04d}"
        rng = rng_for(seed, NAME, n)
        b = _Parts(rng, WordMint(rng), passage_count)
        if kind.startswith("dense"):
            question, golds, entities = _dense(kind, b, dense_sizes[dense_seen % 3])
            dense_seen += 1
        else:
            question, golds, entities = _hotpot(kind, b)
        gold = [(p["title"], p["body"], True) for p in b.passages]
        distractors = [
            (b.mint.name(), filler_text(rng, 40), False) for _ in range(10 - len(gold))
        ]
        passages = gold + distractors
        rng.shuffle(passages)
        instances.append(canonical_record(iid, question, passages, golds, "hotpotqa", entities))
        plan[iid] = {
            "kind": kind,
            "label": LABEL[kind],
            "passages": {p["body"]: p for p in b.passages},
            "aliases": b.aliases,
        }
    return {"instances": instances, "plan": plan}


def write_inputs(corpus: dict, work: Path) -> None:
    write_jsonl(corpus["instances"], work / "instances.jsonl")
    write_jsonl(corpus["instances"][:WARM_ITEMS], work / "instances_warm.jsonl")


def commands(work: Path, out: Path, warm: bool = False) -> list[list[str]]:
    src = "instances_warm.jsonl" if warm else "instances.jsonl"
    return [[
        "verify-benchmark", "--in", str(work / src), "--mode", "deterministic",
        "--config", str(work / "config.json"), "--out", str(out / "verify"),
    ]]


def items_per_pass(corpus: dict) -> int:
    return len(corpus["instances"])


def _json_reply(rows, style: int) -> str:
    body = json.dumps(rows, ensure_ascii=False)
    if style == 1:
        return f"```json\n{body}\n```"
    if style == 2:
        return f"Here are the triples:\n{body}"
    return body


def make_responder(corpus: dict):
    passages = {}
    aliases = []
    for entry in corpus["plan"].values():
        passages.update(entry["passages"])
        aliases.extend(entry["aliases"])
    reader = PromptReader(("triple_extraction", "gleaning", "entity_resolution"))

    def respond(prompt: str, model_id: str) -> tuple[str, dict]:
        del model_id
        name, values = reader.read(prompt)
        style = len(prompt) % 3
        if name == "triple_extraction":
            rows = list(passages[values["body"]]["extract"])
            if style == 2:
                rows.append(["He", "related to", rows[0][2] if rows else "Nobody"])
            return _json_reply(rows, style), usage()
        if name == "gleaning":
            existing = json.loads(values["existing_triples"])
            new = [t for t in passages[values["body"]]["hidden"] if t not in existing]
            return _json_reply(existing[:1] + new, style), usage()
        entities = set(json.loads(values["entities"]))
        groups = [pair for pair in aliases if set(pair) <= entities]
        groups.append(["President", "president"])
        return _json_reply(groups, style), usage()

    return respond


def check(corpus: dict, out: Path) -> list[str]:
    """Failure messages, one per failed item."""
    plan = corpus["plan"]
    run_dir = out / "verify"
    failures: list[str] = []
    try:
        reports = {r["instance_id"]: r for r in read_jsonl(run_dir / "reports.jsonl")}
        stats = json.loads((run_dir / "noise_stats.json").read_text("utf-8"))
    except (OSError, ValueError) as exc:
        return [f"verify outputs unreadable: {exc}"] * len(plan)
    planted = Counter(entry["label"] for entry in plan.values())
    if stats.get("by_label") != dict(sorted(planted.items())):
        return [f"noise_stats histogram {stats.get('by_label')} != planted {dict(planted)}"] * len(plan)
    for iid, entry in plan.items():
        report = reports.get(iid)
        if report is None:
            failures.append(f"{iid}: no report")
            continue
        if report["noise_label"] != entry["label"]:
            failures.append(f"{iid} ({entry['kind']}): label {report['noise_label']} != {entry['label']}")
            continue
        if entry["label"] == "Grounded":
            try:
                kg_rows = read_jsonl(run_dir / "kg" / f"{iid}.jsonl")
            except (OSError, ValueError) as exc:
                failures.append(f"{iid}: kg file unreadable: {exc}")
                continue
            edges = {(e["head"], e["relation"], e["tail"]) for e in kg_rows}
            path = report["verdict"]["reasoning_path"]
            if not path or any(tuple(t) not in edges for t in path):
                failures.append(f"{iid}: reasoning_path edge missing from its KG file")
    return failures
