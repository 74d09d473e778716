"""Localized evidence subgraph: triple storage, alias merging, path discovery.

The graph is built from per-passage triples plus alias groups, with
endpoints rewritten to canonical names via union-find and text
normalization. Path discovery is a bounded breadth-first search for either a
sequential chain from a question entity to the answer or a parallel
comparison structure; its absence marks the instance as noise.
LocalizedKG is immutable after build and safe to share across threads.
"""

from __future__ import annotations

import itertools
import json
import re
from collections.abc import Iterable
from dataclasses import dataclass, field, replace
from enum import Enum
from importlib import resources

from .textnorm import normalize

MAX_HOPS = 6  # benchmark questions are <=4 hops; bound guarantees termination

_STOPWORDS = frozenset(
    "of in on at by to the a an is was are were for from did do does and or "
    "his her its their what which where when who whose whom how".split()
)


# Keys that name no entity: the empty key of "The" or "?", and pronouns.
# As a node key, any of them would join unrelated triples.
NON_ENTITY_KEYS = frozenset(
    "he she it they them him her his hers its their theirs this that these "
    "those i we you who whom which someone something".split()
) | {""}


class KeyMemo(dict):
    """text -> normalize(text), normalizing each text once.

    A memo serves one verified instance or one build_kg call and is then
    dropped; nothing is cached across instances. It also holds the search
    work on the graph searched last through it (see _derived).
    """

    graph: LocalizedKG | None = None
    derived: dict[tuple, object]

    def __missing__(self, text: str) -> str:
        key = self[text] = normalize(text)
        return key


def _key(text: str, keys: KeyMemo | None) -> str:
    """normalize(text), through the caller's memo if it has one."""
    return normalize(text) if keys is None else keys[text]


def _content_words(key: str) -> frozenset[str]:
    return frozenset(key.split()) - _STOPWORDS


def content_tokens(text: str, keys: KeyMemo | None = None) -> frozenset[str]:
    return _content_words(_key(text, keys))


def relation_key(relation: str, keys: KeyMemo | None = None) -> str:
    """Predicate key: words joined by "_" and words joined by spaces name
    the same predicate."""
    return _key(relation.replace("_", " "), keys)


def _predicate_form(predicate: str, keys: KeyMemo | None = None) -> str:
    """The relation key's content words, sorted."""
    return " ".join(sorted(t for t in relation_key(predicate, keys).split() if t not in _STOPWORDS))


_PREDICATE_CLASS: dict[str, int] = {
    _predicate_form(form): class_id
    for class_id, group in enumerate(
        json.loads(resources.files("hopcheck.assets").joinpath("predicate_synonyms.json").read_text("utf-8"))["groups"]
    )
    for form in group
}


def predicate_class(predicate: str, keys: KeyMemo | None = None) -> str:
    """Equivalence class key for semantic predicate matching."""
    form = _predicate_form(predicate, keys)
    class_id = _PREDICATE_CLASS.get(form)
    return f"syn:{class_id}" if class_id is not None else f"lit:{form}"


def primary_answer(gold_answers: tuple[str, ...], keys: KeyMemo | None = None) -> str:
    """The first gold answer that normalizes non-empty, else the first one."""
    return next((g for g in gold_answers if _key(g, keys)), gold_answers[0])


def answer_matches(answer: str, node_label: str, keys: KeyMemo | None = None) -> bool:
    """Normalized containment match, token-aligned in either direction.

    Benchmark answers vary in granularity: gold "Karachi, Pakistan"
    matches the node "Karachi".
    """
    return _tokens_match(_key(answer, keys).split(), _key(node_label, keys).split())


def _tokens_match(a: list[str], n: list[str]) -> bool:
    if not a or not n:
        return False
    if a == n:
        return True
    shorter, longer = (a, n) if len(a) <= len(n) else (n, a)
    return any(longer[i : i + len(shorter)] == shorter for i in range(len(longer) - len(shorter) + 1))


@dataclass(frozen=True)
class Triple:
    head: str
    relation: str
    tail: str
    source_passage: int = 0

    def __post_init__(self) -> None:
        if not (self.head.strip() and self.relation.strip() and self.tail.strip()):
            raise ValueError("triple slots must be non-empty")

    def as_list(self) -> list[str]:
        return [self.head, self.relation, self.tail]


@dataclass(frozen=True)
class AliasGroup:
    members: frozenset[str]
    canonical: str

    def __post_init__(self) -> None:
        if self.canonical not in self.members:
            raise ValueError("canonical must be one of the members")
        if len(self.members) < 2:
            raise ValueError("explicit alias groups need at least 2 members")


class OverlappingAliasGroupsError(ValueError):
    def __init__(self, entity: str):
        super().__init__(f"entity {entity!r} appears in more than one alias group")
        self.entity = entity


@dataclass(frozen=True)
class Edge:
    head: str  # canonical labels
    relation: str
    tail: str
    sources: tuple[int, ...]

    def triple(self) -> Triple:
        return Triple(self.head, self.relation, self.tail, self.sources[0])


@dataclass(frozen=True)
class LocalizedKG:
    resolution: tuple[AliasGroup, ...]
    nodes: dict[str, str] = field(default_factory=dict)  # key -> display label
    edges: tuple[Edge, ...] = ()
    adjacency: dict[str, tuple[tuple[str, str, str], ...]] = field(default_factory=dict)
    # adjacency[key] = ((neighbor_key, relation, edge_id), ...) both directions
    aliases: dict[str, str] = field(default_factory=dict)  # member key -> group canonical label

    @property
    def triples(self) -> tuple[Triple, ...]:
        """The canonical, deduplicated triples: one per edge and source passage."""
        return tuple(Triple(e.head, e.relation, e.tail, src) for e in self.edges for src in e.sources)

    def degree(self, key: str) -> int:
        return len({n for n, _, _ in self.adjacency.get(key, ())})


class PathPattern(str, Enum):
    SEQUENTIAL = "Sequential"
    PARALLEL = "Parallel"
    MIXED = "Mixed"


@dataclass(frozen=True)
class PathVerdict:
    is_valid: bool
    reasoning_path: tuple[Triple, ...]
    pattern: PathPattern
    explanation: str

    def to_dict(self) -> dict:
        return {
            "is_valid": self.is_valid,
            "reasoning_path": [t.as_list() for t in self.reasoning_path],
            "pattern": self.pattern.value,
            "explanation": self.explanation,
        }


class NoiseLabel(str, Enum):
    GROUNDED = "Grounded"
    MISSING_EVIDENCE = "MissingEvidence"
    ENTITY_CONFLATION = "EntityConflation"
    WRONG_ANSWER = "WrongAnswer"
    AMBIGUOUS = "Ambiguous"


def build_kg(
    triples: list[Triple], groups: list[AliasGroup], *, keys: KeyMemo | None = None
) -> LocalizedKG:
    """Canonicalize endpoints, merge aliases, deduplicate edges.

    Surfaces are keyed through `keys`, the caller's per-instance memo, or
    a fresh one for this build; edges are deduplicated by relation_key. A
    triple with an endpoint that resolves to one of NON_ENTITY_KEYS is
    dropped, and an alias-group member with such a key is ignored, so no
    group can gather every "The" or "he" into its entity. Idempotent:
    rebuilding from the output triples with the same groups is a fixed
    point.
    """
    keys = KeyMemo() if keys is None else keys
    aliases: dict[str, str] = {}
    for group in groups:
        group_key = keys[group.canonical]
        for member in group.members:
            key = keys[member]
            if key in NON_ENTITY_KEYS:
                continue
            if key in aliases and keys[aliases[key]] != group_key:
                raise OverlappingAliasGroupsError(member)
            aliases[key] = group.canonical

    labels: dict[str, str] = {}

    def resolve(surface: str) -> tuple[str, str]:
        key = keys[surface]
        if key in aliases:
            surface = aliases[key]
            key = keys[surface]
        return key, surface

    # (head key, relation key, tail key) -> (head label, relation, tail label, sources)
    dedup: dict[tuple[str, str, str], tuple[str, str, str, set[int]]] = {}
    adjacency: dict[str, list[tuple[str, str, str]]] = {}
    for t in triples:
        hk, hl = resolve(t.head)
        tk, tl = resolve(t.tail)
        if hk in NON_ENTITY_KEYS or tk in NON_ENTITY_KEYS:
            continue
        hl = labels.setdefault(hk, hl)
        tl = labels.setdefault(tk, tl)
        dedup_key = (hk, relation_key(t.relation, keys), tk)
        if dedup_key not in dedup:
            edge_id = str(len(dedup))
            adjacency.setdefault(hk, []).append((tk, t.relation, edge_id))
            adjacency.setdefault(tk, []).append((hk, t.relation, edge_id))
            dedup[dedup_key] = (hl, t.relation, tl, set())
        dedup[dedup_key][3].add(t.source_passage)

    edges = tuple(Edge(head, rel, tail, tuple(sorted(srcs))) for head, rel, tail, srcs in dedup.values())
    return LocalizedKG(
        resolution=tuple(groups),
        nodes=labels,
        edges=edges,
        adjacency={k: tuple(sorted(v)) for k, v in adjacency.items()},
        aliases=aliases,
    )


def _derived(kg: LocalizedKG, keys: KeyMemo, key: tuple, compute):
    """compute() for `key` on kg, computed once while kg is the graph the
    memo searches.

    The search and the noise label ask an instance's graph the same
    questions several times: the matched entities, the nodes matching
    each answer, the breadth-first trees and the comparison branch sets.
    Each answer depends only on the graph and the key. The memo keeps
    them for one graph at a time, which is all the callers need: the
    instance's graph is searched until the noise label moves on to merged
    graphs, each of which is searched once.
    """
    if keys.graph is not kg:
        keys.graph, keys.derived = kg, {}
    derived = keys.derived
    if key not in derived:
        derived[key] = compute()
    return derived[key]


def _node_key(kg: LocalizedKG, surface: str, keys: KeyMemo) -> str:
    """The key of the node a surface names in kg, through its aliases."""
    key = keys[surface]
    return keys[kg.aliases[key]] if key in kg.aliases else key


def _match_question_entities(kg: LocalizedKG, question_entities: set[str], keys: KeyMemo) -> list[str]:
    """Question entities map to nodes by normalized equality (aliases included)."""

    def match() -> list[str]:
        matched = {_node_key(kg, entity, keys) for entity in question_entities}
        return sorted(matched.intersection(kg.adjacency))

    return _derived(kg, keys, ("entities", frozenset(question_entities)), match)


def _answer_node_keys(kg: LocalizedKG, answer: str, keys: KeyMemo) -> set[str]:
    """Nodes whose label matches the answer. build_kg keys each node by its
    normalized label, so only the answer is normalized here."""

    def match() -> set[str]:
        tokens = keys[answer].split()
        return {k for k in kg.adjacency if _tokens_match(tokens, k.split())}

    return _derived(kg, keys, ("answer", answer), match)


def _hop_counts(kg: LocalizedKG, sources: Iterable[str]) -> dict[str, int]:
    """Edges from the nearest source to every node at most MAX_HOPS away."""
    hops = dict.fromkeys(sources, 0)
    frontier = list(hops)
    for depth in range(1, MAX_HOPS + 1):
        reached = []
        for node in frontier:
            for neighbor, _rel, _edge_id in kg.adjacency.get(node, ()):
                if neighbor not in hops:
                    hops[neighbor] = depth
                    reached.append(neighbor)
        frontier = reached
    return hops


def _shortest_paths(
    kg: LocalizedKG, start: str, avoid: frozenset[str] = frozenset()
) -> dict[str, tuple[tuple[str, ...], tuple[str, ...]]]:
    """Best path of at most MAX_HOPS edges from start to every node it
    reaches without entering `avoid`: {node: (node sequence, edge-id
    sequence)}, start included with the empty path.

    Breadth-first over the sorted adjacency with the frontier kept in
    discovery order, so each layer is ordered by its nodes' paths and the
    first path found to a node is simple, shortest, and among those the
    smallest by node sequence, then by adjacency order of its edges.
    """
    paths = {start: ((start,), ())}
    frontier = [start]
    for _ in range(MAX_HOPS):
        reached = []
        for node in frontier:
            nodes, edge_ids = paths[node]
            for neighbor, _rel, edge_id in kg.adjacency.get(node, ()):
                if neighbor not in paths and neighbor not in avoid:
                    paths[neighbor] = (nodes + (neighbor,), edge_ids + (edge_id,))
                    reached.append(neighbor)
        frontier = reached
    return paths


def _tree(kg: LocalizedKG, keys: KeyMemo, start: str) -> dict[str, tuple[tuple[str, ...], tuple[str, ...]]]:
    """_shortest_paths(kg, start): the chains from a matched entity, which
    the search, the contradicting-chain check and the conflation bound all
    read."""
    return _derived(kg, keys, ("tree", start), lambda: _shortest_paths(kg, start))


def _path_triples(kg: LocalizedKG, edge_ids: tuple[str, ...]) -> tuple[Triple, ...]:
    return tuple(kg.edges[int(i)].triple() for i in edge_ids)


_NUMBER_RE = re.compile(r"^-?[\d,]+(?:\.\d+)?$")
_MONTHS = {
    m: i + 1
    for i, m in enumerate(
        "january february march april may june july august september october november december".split()
    )
}


def parse_orderable(label: str) -> tuple | None:
    """Parse a node label as a comparable date or number, if possible."""
    text = label.strip()
    iso = re.match(r"^(\d{4})-(\d{1,2})-(\d{1,2})$", text)
    if iso:
        return ("date", int(iso.group(1)), int(iso.group(2)), int(iso.group(3)))
    if _NUMBER_RE.match(text):
        return ("num", float(text.replace(",", "")))
    tokens = re.findall(r"[A-Za-z]+|\d+", text.lower())
    year = month = day = None
    for tok in tokens:
        if tok in _MONTHS:
            month = _MONTHS[tok]
        elif tok.isdigit():
            if len(tok) == 4:
                year = int(tok)
            elif int(tok) <= 31 and day is None:
                day = int(tok)
    if year is not None:
        return ("date", year, month or 0, day or 0)
    return None


def _is_pure_temporal(label: str) -> bool:
    stripped = re.sub(r"[\s,./-]", "", label)
    return bool(stripped) and stripped.replace("s", "").isdigit()


@dataclass(frozen=True)
class _Branch:
    terminal_key: str
    edge_ids: tuple[str, ...]


def _parallel_assignments(kg: LocalizedKG, entity_keys: list[str], keys: KeyMemo) -> list[list[list[_Branch]]]:
    """Per predicate class covered by every compared entity: each entity's
    best branch to each terminal whose last edge is in that class,
    smallest terminal first.

    A branch is a simple path of at most MAX_HOPS edges; the best is the
    smallest by (hops, node sequence). Paths through another compared
    entity are excluded: a chain that reaches the attribute via the other
    side of the comparison is not independent evidence for this side.
    """
    per_entity = []
    for e in entity_keys:
        avoid = frozenset(entity_keys) - {e}
        best: dict[str, dict[str, tuple]] = {}
        for terminal in _shortest_paths(kg, e, avoid):
            if terminal == e:
                continue
            # Best prefix to each neighbour that does not pass the terminal.
            prefixes = _shortest_paths(kg, e, avoid | {terminal})
            for neighbor, relation, edge_id in kg.adjacency[terminal]:
                if neighbor not in prefixes or len(prefixes[neighbor][1]) >= MAX_HOPS:
                    continue
                nodes, edge_ids = prefixes[neighbor]
                by_terminal = best.setdefault(predicate_class(relation, keys), {})
                key = (len(edge_ids), nodes)
                if terminal not in by_terminal or key < by_terminal[terminal][0]:
                    by_terminal[terminal] = (key, _Branch(terminal, edge_ids + (edge_id,)))
        per_entity.append(best)
    classes = set.intersection(*(set(best) for best in per_entity))
    return [
        [[best[c][t][1] for t in sorted(best[c])] for best in per_entity]
        for c in sorted(classes)
    ]


def find_grounded_path(
    kg: LocalizedKG, question_entities: set[str], answer: str, *, keys: KeyMemo | None = None
) -> PathVerdict:
    """Deterministic grounded-path discovery.

    Sequential: shortest simple chain (<=6 hops) from a question entity
    to a node matching the answer; ties broken by lexicographic
    canonical-node order. Parallel: a comparison structure where every
    compared entity reaches an attribute through semantically matching
    predicates and the attribute values decide the answer (equality for
    yes/no, date/number ordering otherwise). Undecidable comparisons are
    reported invalid with the Parallel pattern and an "ambiguous"
    explanation. `keys` is the caller's per-instance memo, if it has one.
    """
    if not question_entities:
        raise ValueError("question_entities must be non-empty")
    keys = KeyMemo() if keys is None else keys
    if not keys[answer]:
        raise ValueError("answer text normalizes to empty")

    entity_keys = _match_question_entities(kg, question_entities, keys)
    answer_keys = _answer_node_keys(kg, answer, keys)
    verdict = _search(kg, question_entities, entity_keys, answer, answer_keys, keys)
    if verdict is not None:
        return verdict
    if not entity_keys:
        reason = "no question entity matches a graph node"
    elif not answer_keys and keys[answer] not in ("yes", "no"):
        reason = "no graph node matches the answer"
    else:
        reason = "no continuous chain or comparison structure reaches the answer"
    return PathVerdict(
        is_valid=False, reasoning_path=(), pattern=PathPattern.SEQUENTIAL, explanation=reason
    )


def ungrounded_reason(
    kg: LocalizedKG,
    path: tuple[Triple, ...],
    question_entities: set[str],
    answer: str,
    *,
    keys: KeyMemo,
) -> str | None:
    """Why a model's reasoning path is not grounded in kg; None when it is.

    Each triple's endpoints resolve through `keys` and kg.aliases to
    nodes, and kg must join them by an edge under the triple's
    relation_key, in either direction. Together the triples must touch a
    matched question entity and a node matching the answer, or two
    matched question entities for a yes/no answer.
    """
    touched: set[str] = set()
    for t in path:
        head, tail = _node_key(kg, t.head, keys), _node_key(kg, t.tail, keys)
        relation = relation_key(t.relation, keys)
        if not any(
            n == tail and relation_key(r, keys) == relation for n, r, _ in kg.adjacency.get(head, ())
        ):
            return f"triple {json.dumps(t.as_list(), ensure_ascii=False)} is not in the graph"
        touched.update((head, tail))
    entities = touched.intersection(_match_question_entities(kg, question_entities, keys))
    if keys[answer] in ("yes", "no"):
        if len(entities) < 2:
            return "the path does not touch two question entities"
    elif not entities or touched.isdisjoint(_answer_node_keys(kg, answer, keys)):
        return "the path does not touch both a question entity and an answer node"
    return None


def _search(
    kg: LocalizedKG,
    question_entities: set[str],
    entity_keys: list[str],
    answer: str,
    answer_keys: set[str],
    keys: KeyMemo,
) -> PathVerdict | None:
    """The shortest chain's verdict, else a decided comparison's, else the
    ambiguous one; None when there is no chain and no comparison."""
    hits = []
    for start in entity_keys:
        tree = _tree(kg, keys, start)
        hits += [tree[node] for node in answer_keys if node != start and node in tree]
    if hits:
        best = min(hits, key=lambda p: (len(p[1]), p[0]))
        return PathVerdict(
            is_valid=True,
            reasoning_path=_path_triples(kg, best[1]),
            pattern=PathPattern.SEQUENTIAL,
            explanation=(
                f"Connected chain of {len(best[1])} triple(s) from a question "
                f"entity to a node matching the answer."
            ),
        )

    if not _comparison_possible(question_entities, entity_keys, answer, keys):
        return None
    answer_norm = keys[answer]
    boolean = answer_norm in ("yes", "no")
    # The same for every answer, so a flipped yes/no search reuses it.
    assignments = _derived(
        kg, keys, ("branches", tuple(entity_keys)), lambda: _parallel_assignments(kg, entity_keys, keys)
    )
    ambiguous = False
    for branch_sets in assignments:
        if boolean:
            if answer_norm == "yes":
                chosen = _choose_all_equal(branch_sets)
            else:
                chosen = _choose_not_all_equal(branch_sets)
            if chosen is not None:
                return _parallel_verdict(kg, chosen, "equality comparison of attribute values")
        else:
            chosen = _choose_ordered_distinct(kg, branch_sets)
            if chosen is None:
                ambiguous = True
            else:
                return _parallel_verdict(
                    kg, chosen, "date/number ordering of the compared attribute values"
                )
    if ambiguous:
        return PathVerdict(
            is_valid=False,
            reasoning_path=(),
            pattern=PathPattern.PARALLEL,
            explanation="ambiguous: comparison attributes found but values are not orderable",
        )
    return None


def _comparison_possible(question_entities: set[str], entity_keys: list[str], answer: str, keys: KeyMemo) -> bool:
    """A Parallel verdict needs at least 2 matched entities and a yes/no
    answer or one that matches a question entity."""
    return len(entity_keys) >= 2 and (
        keys[answer] in ("yes", "no") or any(answer_matches(answer, e, keys) for e in question_entities)
    )


def _choose_all_equal(branch_sets: list[list[_Branch]]) -> list[_Branch] | None:
    """Branches whose terminal values all coincide ("yes" comparisons)."""
    common = set.intersection(*[{b.terminal_key for b in bs} for bs in branch_sets])
    if not common:
        return None
    target = sorted(common)[0]
    return [next(b for b in bs if b.terminal_key == target) for bs in branch_sets]


def _choose_not_all_equal(branch_sets: list[list[_Branch]]) -> list[_Branch] | None:
    """Branches whose terminal values are not all identical ("no" comparisons).

    Feasible exactly when the union of reachable terminal values has
    at least two members.
    """
    union = {b.terminal_key for bs in branch_sets for b in bs}
    if len(union) < 2:
        return None
    picks = [bs[0] for bs in branch_sets]
    if len({p.terminal_key for p in picks}) > 1:
        return picks
    for i, bs in enumerate(branch_sets):
        alt = next((b for b in bs if b.terminal_key != picks[i].terminal_key), None)
        if alt is not None:
            picks[i] = alt
            return picks
    return None


def _choose_ordered_distinct(
    kg: LocalizedKG, branch_sets: list[list[_Branch]]
) -> list[_Branch] | None:
    """Pick one branch per entity with pairwise-distinct orderable values.

    Exhaustive over distinct terminal values per entity, so it finds an
    assignment whenever one exists.
    """
    orderable_sets: list[list[tuple[tuple, _Branch]]] = []
    for bs in branch_sets:
        values = []
        for b in bs:
            value = parse_orderable(kg.nodes[b.terminal_key])
            if value is not None:
                values.append((value, b))
        if not values:
            return None
        orderable_sets.append(values)
    for combo in itertools.product(*orderable_sets):
        values = [v for v, _ in combo]
        if all(values[i] != values[j] for i in range(len(values)) for j in range(i + 1, len(values))):
            return [b for _, b in combo]
    return None


def _parallel_verdict(kg: LocalizedKG, branches: list[_Branch], how: str) -> PathVerdict:
    path: list[Triple] = []
    for b in branches:
        path.extend(_path_triples(kg, b.edge_ids))
    return PathVerdict(
        is_valid=True,
        reasoning_path=tuple(path),
        pattern=PathPattern.PARALLEL,
        explanation=f"Parallel comparison: {how}.",
    )


def _complete_contradicting_chain(
    kg: LocalizedKG, entity_keys: list[str], question: str, answer: str, keys: KeyMemo
) -> bool:
    """A chain from a question entity ends at a leaf whose final relation
    echoes the question but whose value contradicts the gold answer.

    All of a leaf's edges run to its one neighbour, so once the leaf is
    reached, each of its edges is the last edge of some chain. A node's
    key is its label normalized, so the leaf's key is matched against the
    answer.
    """
    q_tokens = content_tokens(question, keys)
    answer_tokens = keys[answer].split()
    wants_place = bool(re.search(r"\bwhere\b|\bplace\b|\bcity\b", question.lower()))
    wants_time = bool(re.search(r"\bwhen\b|\byear\b|\bdate\b", question.lower()))
    reached = {node for start in entity_keys for node in _tree(kg, keys, start) if node != start}
    for terminal in reached:
        if kg.degree(terminal) > 1:
            continue
        # q_tokens holds no stopwords, so the relation's need no filtering.
        if not any(
            q_tokens.intersection(relation_key(relation, keys).split())
            for _, relation, _ in kg.adjacency[terminal]
        ):
            continue
        if _tokens_match(answer_tokens, terminal.split()):
            continue
        label = kg.nodes[terminal]
        if wants_place and _is_pure_temporal(label):
            continue
        if wants_time and parse_orderable(label) is None:
            continue
        return True
    return False


def _conflation_candidates(kg: LocalizedKG) -> list[tuple[str, str]]:
    """Node pairs whose labels share two content tokens. A node's key is
    its label normalized, so the tokens come from the keys."""
    keys = sorted(kg.adjacency)
    tokens = {k: _content_words(k) for k in keys}
    return [(a, b) for i, a in enumerate(keys) for b in keys[i + 1 :] if len(tokens[a] & tokens[b]) >= 2]


def _bridging_candidates(
    kg: LocalizedKG,
    question_entities: set[str],
    entity_keys: list[str],
    answer: str,
    answer_keys: set[str],
    keys: KeyMemo,
) -> list[tuple[str, str]]:
    """The conflation candidates whose merged graph can pass
    find_grounded_path for this answer; every other candidate's cannot.

    Merging b into a adds no question-entity node and no answer node: an
    entity that matched b matches the merged node, and the merged node
    takes a's label, so it matches the answer only if a did.

    When kg itself passes for this answer (possible in llm and
    cross-check modes, where the verdict is the model's), every candidate
    is kept: merging a far pair leaves the chain or comparison intact, so
    its merged graph passes too, while merging a near one can break it.

    Otherwise a chain or comparison branch of the merged graph that kg
    lacks must touch the merged node, and every one starts at a matched
    entity and has at most MAX_HOPS edges. The part before it first
    touches the merged node is a path in kg to a neighbour of a or b, so
    a or b is within MAX_HOPS of a matched entity; for any other pair,
    every chain and branch of the merged graph is one of kg's. When a
    Parallel verdict is possible, a pair is kept only if a or b is within
    MAX_HOPS of a matched entity. Otherwise only
    a chain can pass, and it runs on from the merged node toward a's or
    b's side to the answer, so it is at least
    min(dE[a], dE[b]) + min(dA[a], dA[b]) edges long, where dE and dA are
    hop counts in kg from the matched entities and from the answer nodes.
    A pair is kept only if that sum is at most MAX_HOPS.
    """
    pairs = _conflation_candidates(kg)
    if not pairs:
        return pairs
    verdict = _search(kg, question_entities, entity_keys, answer, answer_keys, keys)
    if verdict is not None and verdict.is_valid:
        return pairs
    from_entities = _hop_counts(kg, entity_keys)
    if _comparison_possible(question_entities, entity_keys, answer, keys):
        return [(a, b) for a, b in pairs if a in from_entities or b in from_entities]
    from_answer = _hop_counts(kg, answer_keys)
    far = MAX_HOPS + 1

    def nearest(hops: dict[str, int], a: str, b: str) -> int:
        return min(hops.get(a, far), hops.get(b, far))

    return [(a, b) for a, b in pairs if nearest(from_entities, a, b) + nearest(from_answer, a, b) <= MAX_HOPS]


def _merged_kg(kg: LocalizedKG, a: str, b: str, keys: KeyMemo) -> LocalizedKG:
    """kg with nodes a and b merged under a's label.

    kg.triples are already canonical and every surface in them is in
    `keys`, so the rebuild normalizes nothing and only the merged pair
    resolves anew; parent aliases that named a or b now name the merged
    node.
    """
    label = kg.nodes[a]
    merged = build_kg(list(kg.triples), [AliasGroup(frozenset({label, kg.nodes[b]}), label)], keys=keys)
    aliases = {m: label if keys[c] in (a, b) else c for m, c in kg.aliases.items()}
    return replace(merged, aliases={**aliases, **merged.aliases})


def classify_noise(
    verdict: PathVerdict,
    kg: LocalizedKG,
    question: str,
    question_entities: set[str],
    gold_answers: tuple[str, ...],
    *,
    keys: KeyMemo | None = None,
) -> NoiseLabel:
    """Assign a noise label to an unverifiable instance.

    Grounded iff the verdict is valid; WrongAnswer when a complete chain
    (or a completed comparison) contradicts the gold answer;
    EntityConflation when merging two lexically similar nodes would make
    the instance verifiable; Ambiguous for undecidable comparisons;
    MissingEvidence otherwise. `keys` is the caller's per-instance memo,
    if it has one; merged graphs are built and searched through it.
    """
    if verdict.is_valid:
        return NoiseLabel.GROUNDED

    keys = KeyMemo() if keys is None else keys
    answer = primary_answer(gold_answers, keys)
    entity_keys = _match_question_entities(kg, question_entities, keys)
    answer_keys = _answer_node_keys(kg, answer, keys)

    # A boolean comparison that completed but with the opposite outcome.
    answer_norm = keys[answer]
    if answer_norm in ("yes", "no"):
        flipped = "no" if answer_norm == "yes" else "yes"
        if find_grounded_path(kg, question_entities, flipped, keys=keys).is_valid:
            return NoiseLabel.WRONG_ANSWER

    gold_in_graph = bool(answer_keys) or any(
        _answer_node_keys(kg, g, keys) for g in gold_answers if g != answer
    )
    if (
        entity_keys
        and not gold_in_graph
        and _complete_contradicting_chain(kg, entity_keys, question, answer, keys)
    ):
        return NoiseLabel.WRONG_ANSWER

    if gold_in_graph:
        for a, b in _bridging_candidates(kg, question_entities, entity_keys, answer, answer_keys, keys):
            merged = _merged_kg(kg, a, b, keys)
            if find_grounded_path(merged, question_entities, answer, keys=keys).is_valid:
                return NoiseLabel.ENTITY_CONFLATION

    # The only invalid Parallel verdict the search returns is the ambiguous one.
    if verdict.pattern is PathPattern.PARALLEL:
        return NoiseLabel.AMBIGUOUS

    return NoiseLabel.MISSING_EVIDENCE
