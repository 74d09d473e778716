"""Seeded random KG/question/answer generator for oracle-equivalence tests."""

from __future__ import annotations

import random

from hopcheck.kg_graph import MAX_HOPS, AliasGroup, LocalizedKG, Triple, build_kg

ENTITY_LABELS = [
    "alpha corp",
    "beta studios",
    "gamma delta",
    "mount fuji",
    "blue river",
    "john smith",
    "jane doe",
    "green album",
    "red tower",
    "paris",
    "ontario canada",
    "silver lake",
]
VALUE_LABELS = [
    "10 April 1930",
    "December 18, 1946",
    "1957",
    "2009-05-01",
    "42",
    "1,234",
    "8 July 2018",
    "31 March 1963",
]
PREDICATES = [
    "born in",
    "directed_by",
    "nationality",
    "birth date",
    "date of birth",
    "death date",
    "located in",
    "spouse",
    "works for",
    "strange relation",
    "painted_by",
]


def random_case(rng: random.Random) -> tuple[LocalizedKG, set[str], str]:
    labels = rng.sample(ENTITY_LABELS, rng.randint(2, 8))
    labels += rng.sample(VALUE_LABELS, rng.randint(0, 4))
    labels = labels[:12]
    triples = []
    for _ in range(rng.randint(1, 20)):
        head, tail = rng.choice(labels), rng.choice(labels)
        if head == tail:
            continue
        triples.append(Triple(head, rng.choice(PREDICATES), tail, rng.randint(1, 10)))
    if not triples:
        triples.append(Triple(labels[0], rng.choice(PREDICATES), labels[-1], 1))

    groups = []
    alias = None
    if rng.random() < 0.3:
        base = rng.choice(labels)
        alias = base + " aka"
        groups = [AliasGroup(frozenset({base, alias}), base)]
    kg = build_kg(triples, groups)

    entities = set(rng.sample(labels, k=rng.randint(1, min(3, len(labels)))))
    if rng.random() < 0.2:
        entities.add("some unmatched entity")
    if alias and rng.random() < 0.5:
        entities.add(alias)

    answer_pool = labels + ["yes", "no", "missing answer", rng.choice(labels).split()[0]]
    answer = rng.choice(answer_pool)
    return kg, entities, answer


# Stems shared by several node labels: every pair of labels on one stem
# shares two content tokens, so it is a conflation candidate.
CONFLATION_STEMS = ["lorenzo costa", "river stone", "saint mary"]
CONFLATION_SUFFIXES = ["", " elder", " younger", " church", " bridge"]
ATTRIBUTE_LABELS = ["french", "italian", "1957", "10 April 1930", "December 18, 1946", "2009-05-01"]
COMPARISON_PREDICATES = [
    "birth date",
    "date of birth",
    "nationality",
    "citizenship",
    "directed by",
    "director",
    "spouse",
    "located in",
    "place of death",
]
QUESTIONS = [
    "Where was {} born?",
    "When was {} born?",
    "What is the nationality of {}?",
    "Who directed {}?",
    "Where is {} located?",
    "What is the death date of {}?",
    "Which city was the place of death of {}?",
    "Are {} and the other of the same nationality?",
]


def conflation_case(rng: random.Random) -> tuple[LocalizedKG, set[str], str]:
    """Small graph whose labels share stems, linked by comparison predicates,
    with yes/no, compared-entity or attribute answers."""
    labels = []
    for stem in rng.sample(CONFLATION_STEMS, rng.randint(1, 2)):
        labels += [stem + s for s in rng.sample(CONFLATION_SUFFIXES, rng.randint(2, 4))]
    labels += rng.sample(ATTRIBUTE_LABELS, rng.randint(1, 3))
    triples = []
    for _ in range(rng.randint(2, 12)):
        head, tail = rng.sample(labels, 2)
        triples.append(Triple(head, rng.choice(COMPARISON_PREDICATES), tail, rng.randint(1, 4)))
    kg = build_kg(triples, [])
    entities = set(rng.sample(labels, k=rng.choice([1, 2, 2, 3])))
    roll = rng.random()
    if roll < 0.4:
        answer = rng.choice(["yes", "no"])
    elif roll < 0.7:
        answer = rng.choice(sorted(entities))
    else:
        answer = rng.choice(labels)
    return kg, entities, answer


FAR_CLUSTER_VALUES = ["german", "1888"]


def parallel_far_case(rng: random.Random) -> tuple[LocalizedKG, set[str], str]:
    """A comparison of "north tower" and "south gate" with a yes/no or
    compared-entity answer, so a Parallel verdict is possible.

    "north tower" reaches its attribute only through a look-alike pair: a
    chain of 1 to MAX_HOPS + 2 edges ends at "silver gate one", and its
    twin "silver gate two" holds the attribute, so merging the pair gives
    a branch one edge longer than the chain. A cluster of look-alike
    nodes lies more than MAX_HOPS edges from both compared entities: on
    its own, or at the end of a longer chain from one of them.
    """
    first, second = "north tower", "south gate"
    own, other = rng.sample(ATTRIBUTE_LABELS, 2)
    chain = [first, *[f"waypoint {i}" for i in range(1, rng.randint(1, MAX_HOPS + 2))], "silver gate one"]
    triples = [Triple(a, "next to", b, 1) for a, b in zip(chain, chain[1:])]
    predicate = rng.choice(COMPARISON_PREDICATES)
    triples += [
        Triple("silver gate two", predicate, own, 2),
        Triple(second, predicate if rng.random() < 0.7 else rng.choice(COMPARISON_PREDICATES), other, 3),
    ]
    stem = rng.choice(CONFLATION_STEMS)
    cluster = [stem + s for s in rng.sample(CONFLATION_SUFFIXES, rng.randint(2, 4))]
    triples += [
        Triple(a, "linked to", b, 4) for i, a in enumerate(cluster) for b in cluster[i + 1 :] if rng.random() < 0.5
    ]
    triples += [Triple(c, rng.choice(COMPARISON_PREDICATES), rng.choice(FAR_CLUSTER_VALUES), 4) for c in cluster]
    if rng.random() < 0.5:
        start = rng.choice((first, second))
        road = [start, *[f"milestone {i}" for i in range(1, rng.randint(MAX_HOPS + 1, MAX_HOPS + 2))], cluster[0]]
        triples += [Triple(a, "next to", b, 5) for a, b in zip(road, road[1:])]
    kg = build_kg(triples, [])
    answer = rng.choice(["yes", "no", first, second])
    return kg, {first, second}, answer


def question_and_golds(
    rng: random.Random, entities: set[str], answer: str, kg: LocalizedKG
) -> tuple[str, tuple[str, ...]]:
    """A question about one of the entities, and gold answers led by `answer`,
    sometimes followed by another node label."""
    question = rng.choice(QUESTIONS).format(rng.choice(sorted(entities)))
    golds = (answer,)
    if rng.random() < 0.3:
        golds += (rng.choice(sorted(kg.nodes.values())),)
    return question, golds
