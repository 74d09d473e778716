"""Brute-force path-discovery oracle, independent of the search under test.

Reimplements the grounded-path validity rules by exhaustive enumeration
over a networkx multigraph. Shares only the definitional primitives
(text normalization, the predicate synonym table, answer containment,
orderable-value parsing) with the production code; all path enumeration
and decision logic here is written from the rules, not from the
implementation.
"""

from __future__ import annotations

import itertools

import networkx as nx

from hopcheck.kg_graph import (
    MAX_HOPS,
    LocalizedKG,
    answer_matches,
    parse_orderable,
    predicate_class,
)
from hopcheck.textnorm import normalize


def _graph_of(kg: LocalizedKG) -> nx.MultiGraph:
    g = nx.MultiGraph()
    g.add_nodes_from(kg.adjacency)
    for i, e in enumerate(kg.edges):
        g.add_edge(normalize(e.head), normalize(e.tail), key=str(i), relation=e.relation)
    return g


def _matched_entities(kg: LocalizedKG, question_entities: set[str]) -> set[str]:
    member = {}
    for grp in kg.resolution:
        for m in grp.members:
            member[normalize(m)] = normalize(grp.canonical)
    matched = set()
    for ent in question_entities:
        key = member.get(normalize(ent), normalize(ent))
        if key in kg.adjacency:
            matched.add(key)
    return matched


def _branches_of(g: nx.MultiGraph, start: str, others: set[str]):
    """(last-edge predicate class, terminal node) for every simple path of
    1..MAX_HOPS edges from start that avoids the other compared entities."""
    out = set()
    for target in g.nodes:
        if target == start:
            continue
        for edge_path in nx.all_simple_edge_paths(g, start, target, cutoff=MAX_HOPS):
            nodes = [start]
            for u, v, _k in edge_path:
                nodes.append(v if nodes[-1] == u else u)
            if any(n in others for n in nodes[1:]):
                continue
            _u, _v, key = edge_path[-1]
            relation = g.edges[edge_path[-1]]["relation"]
            out.add((predicate_class(relation), nodes[-1]))
    return out


def oracle_is_valid(kg: LocalizedKG, question_entities: set[str], answer: str) -> bool:
    g = _graph_of(kg)
    matched = _matched_entities(kg, question_entities)
    answer_nodes = {k for k in g.nodes if answer_matches(answer, kg.nodes[k])}

    # Sequential: any simple chain of 1..MAX_HOPS edges from a matched
    # entity to an answer-matching node.
    for s in matched:
        for t in answer_nodes:
            if s == t:
                continue
            if any(True for _ in nx.all_simple_edge_paths(g, s, t, cutoff=MAX_HOPS)):
                return True

    if len(matched) < 2:
        return False
    entity_list = sorted(matched)
    branch_sets = [_branches_of(g, e, matched - {e}) for e in entity_list]
    shared_classes = set.intersection(*[{c for c, _t in bs} for bs in branch_sets]) if all(
        branch_sets
    ) else set()
    if not shared_classes:
        return False

    answer_norm = normalize(answer)
    if answer_norm in ("yes", "no"):
        for cls in shared_classes:
            terminal_sets = [{t for c, t in bs if c == cls} for bs in branch_sets]
            if answer_norm == "yes":
                if set.intersection(*terminal_sets):
                    return True
            else:
                if len(set.union(*terminal_sets)) >= 2:
                    return True
        return False

    if not any(answer_matches(answer, e) for e in question_entities):
        return False
    for cls in shared_classes:
        value_sets = []
        for bs in branch_sets:
            values = {
                parse_orderable(kg.nodes[t])
                for c, t in bs
                if c == cls and parse_orderable(kg.nodes[t]) is not None
            }
            value_sets.append(values)
        if not all(value_sets):
            continue
        for combo in itertools.product(*value_sets):
            if all(
                combo[i] != combo[j]
                for i in range(len(combo))
                for j in range(i + 1, len(combo))
            ):
                return True
    return False
