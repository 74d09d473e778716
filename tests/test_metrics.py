import json
import random

import pytest

from hopcheck.data_model import JudgeVerdict
from hopcheck.llm_client import ChatResponse, ScriptedBackend
from hopcheck.metrics import exact_match, judge, score_answer, token_f1


def fifo(*texts):
    return ScriptedBackend(script=[ChatResponse(text=t) for t in texts])


def test_exact_match_normalized():
    assert exact_match("The African Queen", ["african queen"]) == 1
    assert exact_match("Karachi.", ["Karachi"]) == 1
    assert exact_match("Karachi, Pakistan", ["Karachi"]) == 0
    assert exact_match("paris", ["London", "Paris"]) == 1
    with pytest.raises(ValueError):
        exact_match("x", [])


def test_token_f1_partial_overlap():
    # 1 shared token, |pred| = 2, |gold| = 1: P = 1/2, R = 1 -> F1 = 2/3
    assert token_f1("Karachi, Pakistan", ["Karachi"]) == pytest.approx(2 / 3)
    assert token_f1("exact same", ["exact same"]) == 1.0
    assert token_f1("10611", ["7531"]) == 0.0  # distinct numerals share nothing
    assert token_f1("", [""]) == 1.0
    assert token_f1("", ["x"]) == 0.0
    assert token_f1("x", [""]) == 0.0
    assert token_f1("b c", ["a b", "b c d"]) == pytest.approx(0.8)  # max over golds


def test_em_implies_f1_random_property():
    rng = random.Random(11)
    words = ["alpha", "beta", "gamma", "The", "delta,", "42"]
    for _ in range(1000):
        pred = " ".join(rng.choices(words, k=rng.randint(1, 5)))
        golds = [" ".join(rng.choices(words, k=rng.randint(1, 5))) for _ in range(2)]
        em = exact_match(pred, golds)
        f1 = token_f1(pred, golds)
        assert 0.0 <= f1 <= 1.0
        if em == 1:
            assert f1 == 1.0


def test_judge_byte_equal_short_circuit():
    backend = fifo()  # would raise if called
    verdict, reasoning = judge(backend, "q", "Paris", ["Paris"])
    assert verdict is JudgeVerdict.CORRECT
    assert backend.calls == 0


def test_judge_scripted_verdicts():
    backend = fifo(json.dumps({"is_correct": True, "reasoning": "same city"}))
    verdict, reasoning = judge(backend, "q", "paris", ["Paris, France"])
    assert verdict is JudgeVerdict.CORRECT and backend.calls == 1
    assert reasoning == "same city"

    verdict, _ = judge(
        fifo(json.dumps({"is_correct": "no", "reasoning": "different"})),
        "q", "London", ["Paris"],
    )
    assert verdict is JudgeVerdict.WRONG

    # The verdict words prompts/judge.txt asks for.
    verdict, reasoning = judge(
        fifo(json.dumps({"is_correct": "correct", "reasoning": "alias"})),
        "q", "NYC", ["New York City"],
    )
    assert verdict is JudgeVerdict.CORRECT and reasoning == "alias"

    verdict, _ = judge(
        fifo(json.dumps({"is_correct": " Wrong ", "reasoning": "other city"})),
        "q", "Boston", ["New York City"],
    )
    assert verdict is JudgeVerdict.WRONG

    verdict, reasoning = judge(fifo("I refuse to answer in JSON"), "q", "x", ["y"])
    assert verdict is JudgeVerdict.UNJUDGED

    verdict, _ = judge(
        fifo(json.dumps({"is_correct": False, "reasoning": "other city"})),
        "q", "Boston", ["New York City"],
    )
    assert verdict is JudgeVerdict.WRONG

    # Only a JSON boolean or a verdict word counts; no other value is cast.
    for raw in ("perhaps", None, 0, 1, 1.5, [1], [], {}):
        backend = fifo(json.dumps({"is_correct": raw}))
        verdict, reasoning = judge(backend, "q", "x", ["y"])
        assert verdict is JudgeVerdict.UNJUDGED and backend.calls == 1, raw
        assert reasoning == f"unrecognized is_correct value {raw!r}"

    # An empty script raises TransportError: the row is Unjudged, not lost.
    backend = fifo()
    verdict, reasoning = judge(backend, "q", "x", ["y"])
    assert verdict is JudgeVerdict.UNJUDGED and backend.calls == 1
    assert reasoning.startswith("backend failed: ")


def test_score_answer_with_and_without_judge():
    v = score_answer("Karachi, Pakistan", ["Karachi"])
    assert v.em == 0
    assert v.f1 == pytest.approx(2 / 3)
    assert v.judge is JudgeVerdict.UNJUDGED

    backend = fifo(json.dumps({"is_correct": True, "reasoning": "same"}))
    v = score_answer("Karachi, Pakistan", ["Karachi"], backend=backend, question="Where?")
    assert v.judge is JudgeVerdict.CORRECT
