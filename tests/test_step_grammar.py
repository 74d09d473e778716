import random

import pytest

from hopcheck.step_grammar import (
    ParsedStep,
    ReasoningStep,
    StepErrorCode,
    StepFormatError,
    StepKind,
    Trajectory,
    parse_step,
    render_step,
    render_trajectory,
)

_SAFE_WORDS = [
    "the", "film", "was", "directed", "by", "someone", "notable",
    "and", "released", "during", "that", "decade", "according",
    "to", "available", "records", "which", "confirms", "it",
]


def random_valid_step(rng: random.Random, index: int) -> ReasoningStep:
    kind = rng.choice(list(StepKind))
    if kind is StepKind.FINAL_ANSWER:
        answer = " ".join(rng.sample(_SAFE_WORDS, rng.randint(1, 4)))
        return ReasoningStep(index, kind, f"####ANSWER: {answer}", answer_value=answer)
    words = rng.sample(_SAFE_WORDS, rng.randint(3, 10))
    if kind is StepKind.ATTRIBUTION:
        cited = rng.randint(1, 10)
        words.insert(rng.randrange(len(words) + 1), f"passage {cited}")
        return ReasoningStep(index, kind, " ".join(words), cited_passage=cited)
    return ReasoningStep(index, kind, " ".join(words))


def test_render_parse_round_trip_many():
    rng = random.Random(20260823)
    for _ in range(2000):
        step = random_valid_step(rng, rng.randint(1, 9))
        parsed = parse_step(render_step(step), step.index)
        assert parsed.step == step
        assert parsed.extra_lines == ()
        assert render_step(parsed.step) == render_step(step)


def test_parse_tolerates_leading_prose_and_whitespace():
    parsed = parse_step("Sure, here is the step:\n  Step 2: cites passage 4 (Attribution)", 2)
    assert parsed.step.cited_passage == 4
    assert parsed.step.kind is StepKind.ATTRIBUTION


def test_parse_takes_first_step_and_flags_extras():
    raw = "Step 1: fact from passage 3 (Attribution)\nStep 2: too eager (Logical)"
    parsed = parse_step(raw, 1)
    assert parsed.step.index == 1
    assert parsed.extra_lines == ("Step 2: too eager (Logical)",)


def test_parse_joins_wrapped_lines():
    raw = "Step 1: a fact that wraps\nonto the next line from passage 2 (Attribution)"
    parsed = parse_step(raw, 1)
    assert "onto the next line" in parsed.step.text


@pytest.mark.parametrize(
    "raw, expected_index, code",
    [
        ("just some prose with no marker", 1, StepErrorCode.MISSING_PREFIX),
        ("Step 3: off by two (Logical)", 1, StepErrorCode.INDEX_MISMATCH),
        ("Step 1: no tag at the end", 1, StepErrorCode.MISSING_TAG),
        ("Step 1: no citation here (Attribution)", 1, StepErrorCode.NO_CITATION),
        ("Step 1: passage 2 and passage 5 (Attribution)", 1, StepErrorCode.MULTI_CITATION),
        ("Step 1: the answer is Paris (Final Answer)", 1, StepErrorCode.MISSING_ANSWER_MARKER),
        ("Step 1: ####ANSWER: (Final Answer)", 1, StepErrorCode.MISSING_ANSWER_MARKER),
        ("Step 1:  (Logical)", 1, StepErrorCode.EMPTY_BODY),
    ],
)
def test_each_format_error_code(raw, expected_index, code):
    with pytest.raises(StepFormatError) as exc:
        parse_step(raw, expected_index)
    assert exc.value.code == code


def test_repeated_citation_of_same_passage_is_single():
    parsed = parse_step("Step 1: passage 4 says X, and passage 4 also says Y (Attribution)", 1)
    assert parsed.step.cited_passage == 4


def test_final_answer_body_normalized():
    parsed = parse_step("Step 6: therefore ####ANSWER: Paris (Final Answer)", 6)
    assert parsed.step.answer_value == "Paris"
    assert parsed.step.text == "####ANSWER: Paris"
    assert render_step(parsed.step) == "Step 6: ####ANSWER: Paris (Final Answer)"


def test_reasoning_step_invariants():
    with pytest.raises(ValueError):
        ReasoningStep(0, StepKind.LOGICAL, "x")
    with pytest.raises(ValueError):
        ReasoningStep(1, StepKind.LOGICAL, "  ")
    with pytest.raises(ValueError):
        ReasoningStep(1, StepKind.ATTRIBUTION, "x")  # no citation
    with pytest.raises(ValueError):
        ReasoningStep(1, StepKind.LOGICAL, "x", cited_passage=2)
    with pytest.raises(ValueError):
        ReasoningStep(1, StepKind.FINAL_ANSWER, "x")  # no answer value
    with pytest.raises(ValueError):
        ReasoningStep(1, StepKind.LOGICAL, "x", answer_value="y")


def _steps(*kinds: StepKind) -> tuple[ReasoningStep, ...]:
    out = []
    for i, kind in enumerate(kinds, start=1):
        if kind is StepKind.ATTRIBUTION:
            out.append(ReasoningStep(i, kind, "fact from passage 1", cited_passage=1))
        elif kind is StepKind.FINAL_ANSWER:
            out.append(ReasoningStep(i, kind, "####ANSWER: x", answer_value="x"))
        else:
            out.append(ReasoningStep(i, kind, "inference"))
    return tuple(out)


def test_trajectory_invariants():
    steps = _steps(StepKind.ATTRIBUTION, StepKind.LOGICAL, StepKind.FINAL_ANSWER)
    traj = Trajectory("q1", steps)
    assert traj.terminated
    assert traj.answer == "x"
    assert traj.prefix(2) == steps[:2]
    assert not Trajectory("q1", steps[:2]).terminated

    with pytest.raises(ValueError):
        Trajectory("q1", (ReasoningStep(2, StepKind.LOGICAL, "starts at two"),))
    with pytest.raises(ValueError):
        Trajectory("q1", (steps[0], ReasoningStep(3, StepKind.LOGICAL, "gap")))

    final_mid = (
        ReasoningStep(1, StepKind.FINAL_ANSWER, "####ANSWER: x", answer_value="x"),
        ReasoningStep(2, StepKind.LOGICAL, "after the end"),
    )
    with pytest.raises(ValueError):
        Trajectory("q1", final_mid)


def test_append_step_sequencing():
    # The loop extends a trajectory by building a new one from the old
    # steps plus the accepted step; the Trajectory checks do the sequencing.
    traj = Trajectory("q1", _steps(StepKind.LOGICAL))
    assert not traj.terminated
    with pytest.raises(ValueError):
        Trajectory("q1", traj.steps + (ReasoningStep(3, StepKind.LOGICAL, "skips"),))
    traj = Trajectory(
        "q1", traj.steps + (ReasoningStep(2, StepKind.FINAL_ANSWER, "####ANSWER: x", answer_value="x"),)
    )
    assert traj.terminated
    with pytest.raises(ValueError):
        Trajectory("q1", traj.steps + (ReasoningStep(3, StepKind.LOGICAL, "too late"),))


def test_render_trajectory():
    assert render_trajectory(()) == "(none)"
    steps = _steps(StepKind.ATTRIBUTION, StepKind.LOGICAL)
    rendered = render_trajectory(steps)
    assert rendered.splitlines() == [render_step(s) for s in steps]
