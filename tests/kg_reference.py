"""Reference for the grounded-path search: exhaustive simple-path enumeration.

Keeps the depth-first enumerator that listed every simple path of up to
MAX_HOPS edges, and the sequential, comparison, contradicting-chain and
noise-label decisions built on it, as the search was before it became a
breadth-first search. Exponential in the graph size, so only for small
graphs. Shares only the types and the definitional primitives with
`hopcheck.kg_graph`; the differential test compares whole verdicts and
labels, so paths, tie-breaks and explanations must all agree.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

from hopcheck.kg_graph import (
    MAX_HOPS,
    AliasGroup,
    LocalizedKG,
    NoiseLabel,
    PathPattern,
    PathVerdict,
    Triple,
    answer_matches,
    build_kg,
    content_tokens,
    parse_orderable,
    predicate_class,
)
from hopcheck.textnorm import normalize


def _match_question_entities(kg: LocalizedKG, question_entities: set[str]) -> list[str]:
    """Question entities map to nodes by normalized equality (aliases included)."""
    matched = set()
    for entity in question_entities:
        key = normalize(entity)
        if key in kg.aliases:
            key = normalize(kg.aliases[key])
        if key in kg.adjacency:
            matched.add(key)
    return sorted(matched)


def _answer_node_keys(kg: LocalizedKG, answer: str) -> set[str]:
    return {k for k, label in kg.nodes.items() if k in kg.adjacency and answer_matches(answer, label)}


def _simple_paths(
    kg: LocalizedKG, start: str, max_hops: int = MAX_HOPS
) -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
    """All simple paths from start: (node sequence, edge-id sequence).

    Deterministic: depth first, expanding neighbors in sorted adjacency
    order.
    """
    out: list[tuple[tuple[str, ...], tuple[str, ...]]] = []

    def walk(node: str, nodes: tuple[str, ...], edge_ids: tuple[str, ...]) -> None:
        if len(edge_ids) >= max_hops:
            return
        for neighbor, _rel, edge_id in kg.adjacency.get(node, ()):
            if neighbor in nodes:
                continue
            path = (nodes + (neighbor,), edge_ids + (edge_id,))
            out.append(path)
            walk(neighbor, *path)

    walk(start, (start,), ())
    return out


def _path_triples(kg: LocalizedKG, edge_ids: tuple[str, ...]) -> tuple[Triple, ...]:
    return tuple(kg.edges[int(i)].triple() for i in edge_ids)


def _is_pure_temporal(label: str) -> bool:
    stripped = re.sub(r"[\s,./-]", "", label)
    return bool(stripped) and stripped.replace("s", "").isdigit()


@dataclass(frozen=True)
class _Branch:
    pred_class: str
    terminal_key: str
    edge_ids: tuple[str, ...]
    nodes: tuple[str, ...]


def _branches(kg: LocalizedKG, entity_key: str, other_entities: frozenset[str]) -> list[_Branch]:
    """Attribute branches from one compared entity.

    Paths through another compared entity are excluded: a chain that
    reaches the attribute via the other side of the comparison is not
    independent evidence for this side.
    """
    result = []
    for nodes, edge_ids in _simple_paths(kg, entity_key):
        if any(n in other_entities for n in nodes[1:]):
            continue
        last_edge = kg.edges[int(edge_ids[-1])]
        result.append(
            _Branch(
                pred_class=predicate_class(last_edge.relation),
                terminal_key=nodes[-1],
                edge_ids=edge_ids,
                nodes=nodes,
            )
        )
    return result


def _parallel_assignments(
    kg: LocalizedKG, entity_keys: list[str]
) -> list[dict[str, list[_Branch]]]:
    """Per predicate class: each entity's branches ending in that class.

    Only classes covered by every compared entity qualify.
    """
    per_entity = {
        e: _branches(kg, e, frozenset(entity_keys) - {e}) for e in entity_keys
    }
    classes = None
    for branches in per_entity.values():
        cls = {b.pred_class for b in branches}
        classes = cls if classes is None else classes & cls
    if not classes:
        return []
    out = []
    for pred_class in sorted(classes):
        out.append(
            {e: [b for b in per_entity[e] if b.pred_class == pred_class] for e in entity_keys}
        )
    return out


def find_grounded_path(
    kg: LocalizedKG, question_entities: set[str], answer: str
) -> PathVerdict:
    """Deterministic grounded-path discovery.

    Sequential: shortest simple chain (<=6 hops) from a question entity
    to a node matching the answer; ties broken by lexicographic
    canonical-node order. Parallel: a comparison structure where every
    compared entity reaches an attribute through semantically matching
    predicates and the attribute values decide the answer (equality for
    yes/no, date/number ordering otherwise). Undecidable comparisons are
    reported invalid with an "ambiguous" explanation marker.
    """
    if not question_entities:
        raise ValueError("question_entities must be non-empty")
    if not normalize(answer):
        raise ValueError("answer text normalizes to empty")

    entity_keys = _match_question_entities(kg, question_entities)
    answer_keys = _answer_node_keys(kg, answer)

    # Sequential: the (hops, node sequence)-smallest hit; among equal ones,
    # the first enumerated.
    if entity_keys and answer_keys:
        all_paths: list[tuple[tuple[str, ...], tuple[str, ...]]] = []
        for start in entity_keys:
            all_paths.extend(
                p for p in _simple_paths(kg, start) if p[0][-1] in answer_keys
            )
        if all_paths:
            best = min(all_paths, key=lambda p: (len(p[1]), p[0]))
            return PathVerdict(
                is_valid=True,
                reasoning_path=_path_triples(kg, best[1]),
                pattern=PathPattern.SEQUENTIAL,
                explanation=(
                    f"Connected chain of {len(best[1])} triple(s) from a question "
                    f"entity to a node matching the answer."
                ),
            )

    ambiguous = False
    answer_norm = normalize(answer)
    if len(entity_keys) >= 2:
        boolean = answer_norm in ("yes", "no")
        answer_is_entity = any(answer_matches(answer, e) for e in question_entities)
        for assignment in _parallel_assignments(kg, entity_keys):
            branch_sets = [assignment[e] for e in entity_keys]
            if boolean:
                if answer_norm == "yes":
                    chosen = _choose_all_equal(branch_sets)
                else:
                    chosen = _choose_not_all_equal(branch_sets)
                if chosen is not None:
                    return _parallel_verdict(kg, chosen, "equality comparison of attribute values")
            elif answer_is_entity:
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
    if not entity_keys:
        reason = "no question entity matches a graph node"
    elif not answer_keys and answer_norm not in ("yes", "no"):
        reason = "no graph node matches the answer"
    else:
        reason = "no continuous chain or comparison structure reaches the answer"
    return PathVerdict(
        is_valid=False, reasoning_path=(), pattern=PathPattern.SEQUENTIAL, explanation=reason
    )


def _dedup_by_terminal(branch_sets: list[list[_Branch]]) -> list[list[_Branch]]:
    """One representative branch per terminal node, smallest terminal first."""
    out = []
    for bs in branch_sets:
        by_terminal: dict[str, _Branch] = {}
        for b in sorted(bs, key=lambda b: (b.terminal_key, len(b.edge_ids), b.nodes)):
            by_terminal.setdefault(b.terminal_key, b)
        out.append([by_terminal[k] for k in sorted(by_terminal)])
    return out


def _choose_all_equal(branch_sets: list[list[_Branch]]) -> list[_Branch] | None:
    """Branches whose terminal values all coincide ("yes" comparisons)."""
    common = set.intersection(*[{b.terminal_key for b in bs} for bs in branch_sets])
    if not common:
        return None
    target = sorted(common)[0]
    reps = _dedup_by_terminal(branch_sets)
    return [next(b for b in bs if b.terminal_key == target) for bs in reps]


def _choose_not_all_equal(branch_sets: list[list[_Branch]]) -> list[_Branch] | None:
    """Branches whose terminal values are not all identical ("no" comparisons).

    Feasible exactly when the union of reachable terminal values has
    at least two members.
    """
    reps = _dedup_by_terminal(branch_sets)
    union = {b.terminal_key for bs in reps for b in bs}
    if len(union) < 2:
        return None
    picks = [bs[0] for bs in reps]
    if len({p.terminal_key for p in picks}) > 1:
        return picks
    for i, bs in enumerate(reps):
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
    for bs in _dedup_by_terminal(branch_sets):
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
    kg: LocalizedKG, entity_keys: list[str], question: str, answer: str
) -> bool:
    """A chain from a question entity ends at a leaf whose final relation
    echoes the question but whose value contradicts the gold answer."""
    q_tokens = content_tokens(question)
    wants_place = bool(re.search(r"\bwhere\b|\bplace\b|\bcity\b", question.lower()))
    wants_time = bool(re.search(r"\bwhen\b|\byear\b|\bdate\b", question.lower()))
    for start in entity_keys:
        for nodes, edge_ids in _simple_paths(kg, start):
            terminal = nodes[-1]
            if kg.degree(terminal) > 1:
                continue
            last_edge = kg.edges[int(edge_ids[-1])]
            pred_tokens = content_tokens(last_edge.relation.replace("_", " "))
            if not (pred_tokens & q_tokens):
                continue
            label = kg.nodes[terminal]
            if answer_matches(answer, label):
                continue
            if wants_place and _is_pure_temporal(label):
                continue
            if wants_time and parse_orderable(label) is None:
                continue
            return True
    return False


def _conflation_candidates(kg: LocalizedKG) -> list[tuple[str, str]]:
    keys = sorted(k for k in kg.adjacency)
    pairs = []
    for i, a in enumerate(keys):
        for b in keys[i + 1 :]:
            if len(content_tokens(kg.nodes[a]) & content_tokens(kg.nodes[b])) >= 2:
                pairs.append((a, b))
    return pairs


def _merged_kg(kg: LocalizedKG, a: str, b: str) -> LocalizedKG:
    group = AliasGroup(members=frozenset({kg.nodes[a], kg.nodes[b]}), canonical=kg.nodes[a])
    groups = list(kg.resolution)
    merged_members = set(group.members)
    kept = []
    for g in groups:
        if g.members & merged_members:
            merged_members |= g.members
        else:
            kept.append(g)
    kept.append(AliasGroup(members=frozenset(merged_members), canonical=kg.nodes[a]))
    return build_kg(list(kg.triples), kept)


def classify_noise(
    verdict: PathVerdict,
    kg: LocalizedKG,
    question: str,
    question_entities: set[str],
    gold_answers: tuple[str, ...],
) -> NoiseLabel:
    """Assign a noise label to an unverifiable instance.

    Grounded iff the verdict is valid; WrongAnswer when a complete chain
    (or a completed comparison) contradicts the gold answer;
    EntityConflation when merging two lexically similar nodes would make
    the instance verifiable; Ambiguous for undecidable comparisons;
    MissingEvidence otherwise.
    """
    if verdict.is_valid:
        return NoiseLabel.GROUNDED

    answer = gold_answers[0]
    entity_keys = _match_question_entities(kg, question_entities)

    # A boolean comparison that completed but with the opposite outcome.
    answer_norm = normalize(answer)
    if answer_norm in ("yes", "no"):
        flipped = "no" if answer_norm == "yes" else "yes"
        if find_grounded_path(kg, question_entities, flipped).is_valid:
            return NoiseLabel.WRONG_ANSWER

    gold_in_graph = any(_answer_node_keys(kg, g) for g in gold_answers)
    if (
        entity_keys
        and not gold_in_graph
        and _complete_contradicting_chain(kg, entity_keys, question, answer)
    ):
        return NoiseLabel.WRONG_ANSWER

    if gold_in_graph:
        for a, b in _conflation_candidates(kg):
            merged = _merged_kg(kg, a, b)
            if find_grounded_path(merged, question_entities, answer).is_valid:
                return NoiseLabel.ENTITY_CONFLATION

    if verdict.explanation.startswith("ambiguous"):
        return NoiseLabel.AMBIGUOUS

    return NoiseLabel.MISSING_EVIDENCE
