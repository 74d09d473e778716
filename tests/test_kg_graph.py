import random
import time
from collections import Counter

import pytest

from hopcheck import kg_graph
from hopcheck.data_model import read_jsonl, write_jsonl
from hopcheck.kg_graph import (
    MAX_HOPS,
    AliasGroup,
    KeyMemo,
    LocalizedKG,
    NoiseLabel,
    OverlappingAliasGroupsError,
    PathPattern,
    PathVerdict,
    Triple,
    answer_matches,
    build_kg,
    classify_noise,
    find_grounded_path,
    parse_orderable,
    predicate_class,
    ungrounded_reason,
)
from hopcheck.textnorm import normalize
import kg_reference
from kg_random import conflation_case, parallel_far_case, question_and_golds, random_case
from path_oracle import oracle_is_valid


def predicates_match(a, b):
    return predicate_class(a) == predicate_class(b)


def _kg(rows, groups=()):
    return build_kg([Triple(*r) for r in rows], list(groups))


def test_answer_matches_token_containment():
    assert answer_matches("Karachi, Pakistan", "Karachi")
    assert answer_matches("Karachi", "Karachi, Pakistan")
    assert answer_matches("The African Queen", "african queen")
    assert answer_matches("York", "New York City")  # contiguous token subsequence
    assert not answer_matches("New Jersey", "New York City")
    assert not answer_matches("", "x")
    assert not answer_matches("x", "the")  # normalizes to empty


def test_predicate_classes():
    assert predicates_match("birth date", "date of birth")
    assert predicates_match("born_in", "place of birth")
    assert predicates_match("birthdate", "date of birth")
    assert not predicates_match("place of birth", "date of birth")
    assert predicates_match("Directed by", "directed_by")
    assert not predicates_match("birth date", "death date")
    assert predicate_class("strange relation") == predicate_class("relation strange")
    assert predicate_class("strange relation").startswith("lit:")


def test_parse_orderable():
    assert parse_orderable("2009-05-01") == ("date", 2009, 5, 1)
    assert parse_orderable("10 April 1930") == ("date", 1930, 4, 10)
    assert parse_orderable("December 18, 1946") == ("date", 1946, 12, 18)
    assert parse_orderable("1957") == ("num", 1957.0)
    assert parse_orderable("1,234") == ("num", 1234.0)
    assert parse_orderable("-3.5") == ("num", -3.5)
    assert parse_orderable("Karachi") is None
    assert parse_orderable("born in 1930") == ("date", 1930, 0, 0)


def test_build_kg_dedup_and_idempotence():
    rows = [
        ("Ada", "spouse", "B", 1),
        ("ada", "Spouse", "b", 2),  # same edge, different case / source
        ("Ada", "spouse", "B", 1),  # exact duplicate
    ]
    kg = _kg(rows)
    assert len(kg.edges) == 1
    assert kg.edges[0].sources == (1, 2)
    rebuilt = build_kg(list(kg.triples), list(kg.resolution))
    assert rebuilt.edges == kg.edges
    assert rebuilt.nodes == kg.nodes


def test_build_kg_one_edge_per_relation_key():
    # Gleaning and predicate_class read "_" as a space; so does the edge dedup.
    kg = _kg([("Acme Works", "founded_by", "John Smith", 1), ("Acme Works", "founded by", "John Smith", 2)])
    assert [(e.relation, e.sources) for e in kg.edges] == [("founded_by", (1, 2))]
    assert len(kg.adjacency[normalize("Acme Works")]) == 1


def test_build_kg_joins_no_triples_through_an_empty_key():
    # "The" and "?" both normalize to "": as one node, it would link Alpha
    # Corp to Beta Inc through an edge nobody extracted.
    kg = build_kg([Triple("Alpha Corp", "owns", "The", 1), Triple("?", "founded", "Beta Inc", 2)], [])
    assert kg.edges == () and kg.nodes == {} and kg.adjacency == {}
    assert not find_grounded_path(kg, {"Alpha Corp"}, "Beta Inc").is_valid


@pytest.mark.parametrize("pronoun", ["He", "it", "Someone"])
def test_build_kg_drops_pronoun_endpoints(pronoun):
    kg = _kg(
        [("Alpha Corp", "owns", pronoun, 1), (pronoun, "founded", "Beta Inc", 2), ("Alpha Corp", "owns", "Beta Inc", 3)]
    )
    assert [e.triple() for e in kg.edges] == [Triple("Alpha Corp", "owns", "Beta Inc", 3)]
    assert sorted(kg.nodes) == ["alpha corp", "beta inc"]


def test_build_kg_ignores_alias_members_that_name_no_entity():
    # A group holding "The" and "he" must not turn every such endpoint into
    # its entity, which would link Alpha Corp to Gamma Ltd.
    group = AliasGroup(frozenset({"The", "he", "Alpha Corp"}), "Alpha Corp")
    kg = build_kg([Triple("The", "owns", "Beta Inc", 1), Triple("he", "founded", "Gamma Ltd", 2)], [group])
    assert kg.edges == () and kg.nodes == {}
    assert set(kg.aliases) == {normalize("Alpha Corp")}
    assert not find_grounded_path(kg, {"Alpha Corp"}, "Gamma Ltd").is_valid


def test_build_kg_alias_merging():
    group = AliasGroup(frozenset({"Paul Mercurio", "Paul Joseph"}), "Paul Mercurio")
    kg = _kg(
        [("Paul Joseph", "judge on", "Dancing Stars", 1), ("Paul Mercurio", "born in", "Sydney", 2)],
        [group],
    )
    assert normalize("Paul Joseph") not in kg.adjacency
    assert kg.degree(normalize("Paul Mercurio")) == 2


def test_build_kg_normalizes_each_alias_free_string_once(monkeypatch):
    calls = []

    def counting_normalize(text):
        calls.append(text)
        return normalize(text)

    monkeypatch.setattr(kg_graph, "normalize", counting_normalize)
    triples = [Triple(f"head {i}", f"relation {i}", f"tail {i}", i) for i in range(25)]
    kg = build_kg(triples, [])
    assert len(kg.edges) == 25
    assert len(calls) == 3 * len(triples)


def test_merged_kg_equals_rebuild_from_merged_alias_groups():
    """Merging a conflation pair equals the reference's full rebuild through
    every alias group, field by field, on the differential test's cases."""
    pairs = 0
    for generate, seed in ((random_case, 11), (conflation_case, 12)):
        rng = random.Random(seed)
        for _ in range(1500):
            kg, entities, answer = generate(rng)
            question_and_golds(rng, entities, answer, kg)
            for a, b in kg_graph._conflation_candidates(kg):
                got = kg_graph._merged_kg(kg, a, b, kg_graph.KeyMemo())
                want = kg_reference._merged_kg(kg, a, b)
                for name in ("nodes", "edges", "adjacency", "aliases", "triples"):
                    assert getattr(got, name) == getattr(want, name), (name, a, b, kg.edges)
                pairs += 1
    assert pairs > 5000


def test_overlapping_alias_groups_rejected():
    g1 = AliasGroup(frozenset({"Ada", "B"}), "Ada")
    g2 = AliasGroup(frozenset({"B", "C"}), "C")
    with pytest.raises(OverlappingAliasGroupsError):
        _kg([("Ada", "r", "C", 1)], [g1, g2])


def test_alias_group_invariants():
    with pytest.raises(ValueError):
        AliasGroup(frozenset({"Ada", "B"}), "C")
    with pytest.raises(ValueError):
        AliasGroup(frozenset({"Ada"}), "Ada")
    with pytest.raises(ValueError):
        Triple("", "r", "t")


def test_sequential_chain_found_and_shortest_preferred():
    kg = _kg(
        [
            ("Beena Sarwar", "works for", "Jang group", 1),
            ("Jang group", "published by", "Daily Jang", 2),
            ("Daily Jang", "located in", "Karachi", 2),
            ("Beena Sarwar", "born in", "Karachi", 3),
        ]
    )
    verdict = find_grounded_path(kg, {"Beena Sarwar"}, "Karachi, Pakistan")
    assert verdict.is_valid
    assert verdict.pattern is PathPattern.SEQUENTIAL
    assert len(verdict.reasoning_path) == 1  # direct edge beats the 3-hop chain


def test_sequential_respects_hop_budget():
    rows = [(f"n{i}", "linked to", f"n{i+1}", 1) for i in range(MAX_HOPS + 2)]
    kg = _kg(rows)
    assert find_grounded_path(kg, {"n0"}, f"n{MAX_HOPS}").is_valid
    assert not find_grounded_path(kg, {"n0"}, f"n{MAX_HOPS + 2}").is_valid


def test_no_entity_match_explains_itself():
    kg = _kg([("Ada", "r", "B", 1)])
    verdict = find_grounded_path(kg, {"unrelated"}, "B")
    assert not verdict.is_valid
    assert "question entity" in verdict.explanation
    with pytest.raises(ValueError):
        find_grounded_path(kg, set(), "B")
    with pytest.raises(ValueError):
        find_grounded_path(kg, {"Ada"}, "the")


def test_parallel_ordering_comparison():
    kg = _kg(
        [
            ("Film One", "directed by", "Old Director", 1),
            ("Old Director", "birth date", "10 April 1930", 1),
            ("Film Two", "directed by", "Young Director", 2),
            ("Young Director", "date of birth", "December 18, 1946", 2),
        ]
    )
    verdict = find_grounded_path(kg, {"Film One", "Film Two"}, "Film One")
    assert verdict.is_valid
    assert verdict.pattern is PathPattern.PARALLEL
    terminals = {t.tail for t in verdict.reasoning_path if parse_orderable(t.tail)}
    assert terminals == {"10 April 1930", "December 18, 1946"}


def test_parallel_ordering_unorderable_is_ambiguous():
    kg = _kg(
        [
            ("Film One", "directed by", "Old Director", 1),
            ("Film Two", "directed by", "Young Director", 2),
        ]
    )
    verdict = find_grounded_path(kg, {"Film One", "Film Two"}, "Film One")
    assert not verdict.is_valid
    assert verdict.explanation.startswith("ambiguous")
    label = classify_noise(verdict, kg, "Which film's director is older?", {"Film One", "Film Two"}, ("Film One",))
    assert label is NoiseLabel.AMBIGUOUS


def test_parallel_boolean_yes_and_no():
    same = _kg(
        [("Ada", "nationality", "French", 1), ("B", "country of citizenship", "French", 2)]
    )
    assert find_grounded_path(same, {"Ada", "B"}, "yes").is_valid
    assert not find_grounded_path(same, {"Ada", "B"}, "no").is_valid

    diff = _kg(
        [("Ada", "nationality", "French", 1), ("B", "nationality", "German", 2)]
    )
    assert find_grounded_path(diff, {"Ada", "B"}, "no").is_valid
    assert not find_grounded_path(diff, {"Ada", "B"}, "yes").is_valid


def test_boolean_flip_is_wrong_answer():
    kg = _kg([("Ada", "nationality", "French", 1), ("B", "nationality", "French", 2)])
    verdict = find_grounded_path(kg, {"Ada", "B"}, "no")
    label = classify_noise(verdict, kg, "Are Ada and B of the same nationality?", {"Ada", "B"}, ("no",))
    assert label is NoiseLabel.WRONG_ANSWER


def test_contradicting_chain_is_wrong_answer():
    kg = _kg([("Erich Korngold", "place of death", "Hollywood", 1)])
    verdict = find_grounded_path(kg, {"Erich Korngold"}, "Vienna")
    label = classify_noise(
        verdict, kg, "What was Erich Korngold's place of death?", {"Erich Korngold"}, ("Vienna",)
    )
    assert label is NoiseLabel.WRONG_ANSWER


def test_conflation_repairable_by_merge():
    kg = _kg(
        [
            ("Lorenzo Costa", "born in", "Ferrara", 1),
            ("Lorenzo Costa the Elder", "place of death", "Mantua", 2),
        ]
    )
    verdict = find_grounded_path(kg, {"Lorenzo Costa"}, "Mantua")
    assert not verdict.is_valid
    label = classify_noise(
        verdict, kg, "Where did Lorenzo Costa die?", {"Lorenzo Costa"}, ("Mantua",)
    )
    assert label is NoiseLabel.ENTITY_CONFLATION


def test_conflation_skips_gold_answer_that_normalizes_empty():
    kg = _kg(
        [
            ("Lorenzo Costa", "born in", "Ferrara", 1),
            ("Lorenzo Costa the Elder", "place of death", "Mantua", 2),
        ]
    )
    verdict = find_grounded_path(kg, {"Lorenzo Costa"}, "Mantua")
    label = classify_noise(
        verdict, kg, "Where did Lorenzo Costa die?", {"Lorenzo Costa"}, ("The", "Mantua")
    )
    assert label is NoiseLabel.ENTITY_CONFLATION


def test_missing_evidence_default():
    kg = _kg([("Ada", "spouse", "B", 1)])
    verdict = find_grounded_path(kg, {"Ada"}, "Stockholm")
    label = classify_noise(verdict, kg, "Where was Ada born?", {"Ada"}, ("Stockholm",))
    assert label is NoiseLabel.MISSING_EVIDENCE


def test_grounded_label():
    kg = _kg([("Ada", "born in", "Oslo", 1)])
    verdict = find_grounded_path(kg, {"Ada"}, "Oslo")
    assert classify_noise(verdict, kg, "Where was Ada born?", {"Ada"}, ("Oslo",)) is NoiseLabel.GROUNDED


def test_verdict_serialization():
    kg = _kg([("Ada", "born in", "Oslo", 1)])
    verdict = find_grounded_path(kg, {"Ada"}, "Oslo")
    d = verdict.to_dict()
    assert d["is_valid"] is True
    assert d["reasoning_path"] == [["Ada", "born in", "Oslo"]]
    assert d["pattern"] == "Sequential"


def test_kg_jsonl_round_trip_is_stable(tmp_path):
    kg = _kg([("Ada", "r", "B", 1), ("B", "s", "C", 2)])
    path = tmp_path / "kg.jsonl"
    write_jsonl(path, map(vars, kg.edges))
    rebuilt = build_kg(list(kg.triples), list(kg.resolution))
    assert read_jsonl(path) == [
        {"head": e.head, "relation": e.relation, "tail": e.tail, "sources": list(e.sources)}
        for e in rebuilt.edges
    ]


def test_oracle_spot_check_200_random_graphs():
    rng = random.Random(99)
    for _ in range(200):
        kg, entities, answer = random_case(rng)
        got = find_grounded_path(kg, entities, answer).is_valid
        want = oracle_is_valid(kg, entities, answer)
        assert got == want, (entities, answer, kg.edges)


def test_search_matches_exhaustive_reference():
    """Whole verdicts and noise labels equal those of the exhaustive
    simple-path search, paths and tie-breaks included."""
    labels = Counter()
    parallel = 0
    for generate, seed in ((random_case, 11), (conflation_case, 12)):
        rng = random.Random(seed)
        for _ in range(1500):
            kg, entities, answer = generate(rng)
            question, golds = question_and_golds(rng, entities, answer, kg)
            assert all(normalize(g) for g in golds)
            want = kg_reference.find_grounded_path(kg, entities, answer)
            got = find_grounded_path(kg, entities, answer)
            assert got.to_dict() == want.to_dict(), (entities, answer, kg.edges)
            label = classify_noise(got, kg, question, entities, golds)
            assert label is kg_reference.classify_noise(want, kg, question, entities, golds), (
                question, entities, golds, kg.edges
            )
            labels[label] += 1
            parallel += got.is_valid and got.pattern is PathPattern.PARALLEL
    assert set(labels) == set(NoiseLabel)
    assert parallel > 0


def test_comparison_branch_respects_max_hops():
    # "Film One" reaches 1957 and q6 along two chains of MAX_HOPS edges; the
    # "birth date" edge joining their ends would make a branch one hop too long.
    p_chain = ["Film One", *[f"p{i}" for i in range(1, MAX_HOPS)], "1957"]
    q_chain = ["Film One", *[f"q{i}" for i in range(1, MAX_HOPS + 1)]]
    rows = [(a, "knows", b, 1) for chain in (p_chain, q_chain) for a, b in zip(chain, chain[1:])]
    rows += [(q_chain[-1], "birth date", "1957", 1), ("Film Two", "birth date", "1960", 1)]
    kg = _kg(rows)
    entities = {"Film One", "Film Two"}
    verdict = find_grounded_path(kg, entities, "Film One")
    assert not verdict.is_valid
    assert verdict.to_dict() == kg_reference.find_grounded_path(kg, entities, "Film One").to_dict()


def _river_stone_rows(words):
    """`river stone <word>` nodes joined pairwise at probability 0.3: every
    pair of those labels is a conflation candidate."""
    rng = random.Random(20)
    labels = [f"river stone {w}" for w in words]
    rows = [
        (a, "linked to", b, 1) for i, a in enumerate(labels) for b in labels[i + 1 :] if rng.random() < 0.3
    ]
    return rows, labels


def _river_stone_kg(words):
    """The river stone cluster and the answer on a separate edge, so none of
    the cluster is near the answer."""
    rows, labels = _river_stone_rows(words)
    return _kg(rows + [("lonely tower", "located in", "far city", 1)]), labels


def _classify_river_stone(kg, labels):
    verdict = find_grounded_path(kg, {labels[0]}, "far city")
    return classify_noise(verdict, kg, f"Where is {labels[0]}?", {labels[0]}, ("far city",))


RIVER_STONE_WORDS = (
    "alpha bravo charlie delta echo foxtrot golf hotel india juliet "
    "kilo lima mike november oscar papa quebec romeo sierra tango"
).split()


def test_classify_noise_bounded_on_dense_shared_label_graph():
    # Every pair of the 20 labels is a conflation candidate, and the graph
    # has far more simple paths than an exhaustive search can list quickly.
    kg, labels = _river_stone_kg(RIVER_STONE_WORDS)
    start = time.perf_counter()
    assert _classify_river_stone(kg, labels) is NoiseLabel.MISSING_EVIDENCE
    assert time.perf_counter() - start < 5.0


def test_classify_noise_bounded_on_60_node_shared_label_graph():
    # 1,770 candidate pairs; rebuilding the graph for each one takes about 30 s.
    kg, labels = _river_stone_kg([f"w{i}" for i in range(60)])
    start = time.perf_counter()
    assert _classify_river_stone(kg, labels) is NoiseLabel.MISSING_EVIDENCE
    assert time.perf_counter() - start < 1.0


@pytest.fixture
def merges(monkeypatch):
    """The (a, b) pairs classify_noise rebuilds the graph for."""
    calls = []
    merged_kg = kg_graph._merged_kg

    def counting(kg, a, b, keys):
        calls.append((a, b))
        return merged_kg(kg, a, b, keys)

    monkeypatch.setattr(kg_graph, "_merged_kg", counting)
    return calls


def test_conflation_rebuilds_no_pair_when_the_answer_is_on_a_separate_edge(merges):
    kg, labels = _river_stone_kg(RIVER_STONE_WORDS)
    assert len(kg_graph._conflation_candidates(kg)) == 190
    assert _classify_river_stone(kg, labels) is NoiseLabel.MISSING_EVIDENCE
    assert merges == []


def test_conflation_rebuilds_only_the_bridging_pair(merges):
    # A ring with chords, as in the bench's dense items: two decoy pairs on
    # the ring, and one ring node whose look-alike off the ring leads to the
    # answer.
    ring = [f"hub {i}" for i in range(12)]
    ring[3], ring[8] = "amber field north", "amber field south"
    ring[5], ring[10] = "cobalt reef east", "cobalt reef west"
    ring[7] = "silver gate one"
    rows = [(ring[i], "partner of", ring[(i + d) % 12], 1) for i in range(12) for d in (1, 2, 3)]
    rows += [("silver gate two", "sponsored by", "far city", 2), ("far city", "part of", "old port", 2)]
    kg = _kg(rows)
    assert len(kg_graph._conflation_candidates(kg)) == 3
    verdict = find_grounded_path(kg, {ring[0]}, "far city")
    assert not verdict.is_valid
    label = classify_noise(verdict, kg, f"Which city does {ring[0]} lead to?", {ring[0]}, ("far city",))
    assert label is NoiseLabel.ENTITY_CONFLATION
    assert merges == [(normalize("silver gate one"), normalize("silver gate two"))]


@pytest.mark.parametrize(
    "tail_hops, expected, rebuilds",
    [(MAX_HOPS - 3, NoiseLabel.ENTITY_CONFLATION, 1), (MAX_HOPS - 2, NoiseLabel.MISSING_EVIDENCE, 0)],
)
def test_conflation_bridge_respects_max_hops(merges, tail_hops, expected, rebuilds):
    # The merged chain is 3 + tail_hops edges long.
    head = ["start", "left 1", "left 2", "silver gate one"]
    tail = ["silver gate two", *[f"right {i}" for i in range(1, tail_hops)], "far city"]
    kg = _kg([(a, "next to", b, 1) for chain in (head, tail) for a, b in zip(chain, chain[1:])])
    verdict = find_grounded_path(kg, {"start"}, "far city")
    assert classify_noise(verdict, kg, "Where does start lead?", {"start"}, ("far city",)) is expected
    assert len(merges) == rebuilds


def test_forced_invalid_verdict_over_an_existing_chain_rebuilds_far_pairs(merges):
    # "J. Smith" resolves to the answer node, and the other question entity
    # reaches that node: the graph verifies, so merging the far pair
    # verifies too, though neither node of it is near the chain.
    kg = _kg(
        [("Acme Works", "founded by", "John Smith", 1), ("amber field north", "next to", "amber field south", 2)],
        [AliasGroup(frozenset({"John Smith", "J. Smith"}), "John Smith")],
    )
    entities, golds = {"J. Smith", "Acme Works"}, ("John Smith",)
    assert find_grounded_path(kg, entities, golds[0]).is_valid
    forced = PathVerdict(False, (), PathPattern.SEQUENTIAL, "forced")
    question = "Who founded Acme Works?"
    label = classify_noise(forced, kg, question, entities, golds)
    assert label is kg_reference.classify_noise(forced, kg, question, entities, golds)
    assert label is NoiseLabel.ENTITY_CONFLATION
    assert len(merges) == 1


def test_comparison_beside_a_far_60_node_cluster_rebuilds_no_pair(merges):
    # A comparison verdict is possible, but no river stone node is within
    # MAX_HOPS of either mill, so none of the 1,770 pairs is rebuilt;
    # rebuilding each one took about 7 s.
    rows, _ = _river_stone_rows([f"w{i}" for i in range(60)])
    kg = _kg(rows + [("old mill", "built in", "1700", 2), ("new mill", "located in", "Oslo", 3)])
    entities, golds = {"old mill", "new mill"}, ("old mill",)
    start = time.perf_counter()
    verdict = find_grounded_path(kg, entities, golds[0])
    label = classify_noise(verdict, kg, "Which is older, old mill or new mill?", entities, golds)
    assert time.perf_counter() - start < 1.0
    assert label is NoiseLabel.MISSING_EVIDENCE
    assert merges == []


@pytest.mark.parametrize(
    "chain_hops, expected, rebuilds",
    [
        (MAX_HOPS - 1, NoiseLabel.ENTITY_CONFLATION, 1),
        (MAX_HOPS, NoiseLabel.MISSING_EVIDENCE, 1),
        (MAX_HOPS + 1, NoiseLabel.MISSING_EVIDENCE, 0),
    ],
)
def test_comparison_conflation_respects_max_hops(merges, chain_hops, expected, rebuilds):
    # "old mill" reaches "silver gate one" along chain_hops edges, and its
    # look-alike holds the build date: the merged branch is one edge longer.
    chain = ["old mill", *[f"waypoint {i}" for i in range(1, chain_hops)], "silver gate one"]
    rows = [(a, "next to", b, 1) for a, b in zip(chain, chain[1:])]
    kg = _kg(rows + [("silver gate two", "built in", "1700", 2), ("new mill", "built in", "1800", 3)])
    entities, golds = {"old mill", "new mill"}, ("old mill",)
    verdict = find_grounded_path(kg, entities, golds[0])
    question = "Which is older, old mill or new mill?"
    label = classify_noise(verdict, kg, question, entities, golds)
    assert label is expected
    assert label is kg_reference.classify_noise(verdict, kg, question, entities, golds)
    assert len(merges) == rebuilds


def test_comparisons_beside_far_clusters_match_exhaustive_reference():
    """Verdicts and labels equal the reference's where a comparison is
    possible and a look-alike pair lies near, at or beyond MAX_HOPS of the
    compared entities, for the search's verdict and for a forced invalid
    one; a bound that drops near pairs fails here."""
    labels = Counter()
    rng = random.Random(13)
    for _ in range(500):
        kg, entities, answer = parallel_far_case(rng)
        question, golds = question_and_golds(rng, entities, answer, kg)
        want = kg_reference.find_grounded_path(kg, entities, answer)
        got = find_grounded_path(kg, entities, answer)
        assert got.to_dict() == want.to_dict(), (entities, answer, kg.edges)
        label = classify_noise(got, kg, question, entities, golds)
        assert label is kg_reference.classify_noise(want, kg, question, entities, golds), (
            question, entities, golds, kg.edges
        )
        labels[label] += 1
        forced = PathVerdict(False, (), PathPattern.SEQUENTIAL, "forced")
        assert classify_noise(forced, kg, question, entities, golds) is kg_reference.classify_noise(
            forced, kg, question, entities, golds
        ), (question, entities, golds, kg.edges)
    assert set(labels) == set(NoiseLabel)
    assert labels[NoiseLabel.ENTITY_CONFLATION] > 30


def test_forced_invalid_verdict_over_an_existing_comparison_rebuilds_far_pairs(merges):
    # Both mills have a build date, so the graph verifies; merging the far
    # pair leaves the comparison intact, so its merged graph verifies too.
    kg = _kg([
        ("old mill", "built in", "1700", 1),
        ("new mill", "built in", "1800", 2),
        ("amber field north", "next to", "amber field south", 3),
    ])
    entities, golds = {"old mill", "new mill"}, ("old mill",)
    assert find_grounded_path(kg, entities, golds[0]).pattern is PathPattern.PARALLEL
    forced = PathVerdict(False, (), PathPattern.SEQUENTIAL, "forced")
    question = "Which is older, old mill or new mill?"
    label = classify_noise(forced, kg, question, entities, golds)
    assert label is kg_reference.classify_noise(forced, kg, question, entities, golds)
    assert label is NoiseLabel.ENTITY_CONFLATION
    assert len(merges) == 1


def test_forced_invalid_verdicts_match_exhaustive_reference():
    """In llm and cross-check modes classify_noise gets a model's verdict,
    which can be invalid although the graph verifies; the labels must still
    equal the reference's for the same verdict."""
    labels = Counter()
    repaired_valid = 0
    for generate, seed in ((random_case, 11), (conflation_case, 12)):
        rng = random.Random(seed)
        for _ in range(1500):
            kg, entities, answer = generate(rng)
            question, golds = question_and_golds(rng, entities, answer, kg)
            valid = find_grounded_path(kg, entities, answer).is_valid
            for pattern in (PathPattern.SEQUENTIAL, PathPattern.MIXED):
                forced = PathVerdict(False, (), pattern, "forced")
                label = classify_noise(forced, kg, question, entities, golds)
                assert label is kg_reference.classify_noise(forced, kg, question, entities, golds), (
                    pattern, question, entities, golds, kg.edges
                )
                labels[label] += 1
                repaired_valid += valid and label is NoiseLabel.ENTITY_CONFLATION
    assert {NoiseLabel.ENTITY_CONFLATION, NoiseLabel.MISSING_EVIDENCE, NoiseLabel.WRONG_ANSWER} <= set(labels)
    assert repaired_valid > 0


def test_yes_no_model_path_must_touch_two_question_entities():
    kg = build_kg([Triple("Ann", "born in", "Oslo", 1), Triple("Bo", "born_in", "Oslo", 2)], [])
    entities, keys = {"Ann", "Bo"}, KeyMemo()
    both = (Triple("Ann", "born_in", "Oslo"), Triple("Oslo", "born in", "Bo"))
    assert ungrounded_reason(kg, both, entities, "yes", keys=keys) is None
    assert ungrounded_reason(kg, both[:1], entities, "yes", keys=keys) == (
        "the path does not touch two question entities"
    )
