import itertools

import pytest

from hopcheck.step_grammar import ReasoningStep, StepKind
from hopcheck.taxonomy import (
    ErrorCategory,
    ErrorType,
    Feedback,
    InadmissibleFeedbackError,
    admissible_errors,
    parse_error_type,
    validate_feedback,
)

from taxonomy_reference import reference_evaluate


def _step(kind: StepKind) -> ReasoningStep:
    if kind is StepKind.ATTRIBUTION:
        return ReasoningStep(1, kind, "fact from passage 2", cited_passage=2)
    if kind is StepKind.FINAL_ANSWER:
        return ReasoningStep(1, kind, "####ANSWER: x", answer_value="x")
    return ReasoningStep(1, kind, "inference")


def test_eleven_types_with_exact_labels():
    assert {et.value for et in ErrorType} == {
        "Overthinking",
        "Inefficiency",
        "Off-topic",
        "Redundancy",
        "Unsupported",
        "Premature Attribution",
        "Information Miss",
        "Contradictory",
        "Logical Fallacy",
        "Wrong Conclusion",
        "Correct",
    }


def test_categories():
    assert ErrorType.OVERTHINKING.category is ErrorCategory.PROCEDURAL
    assert ErrorType.OFF_TOPIC.category is ErrorCategory.PROCEDURAL
    assert ErrorType.UNSUPPORTED.category is ErrorCategory.ATTRIBUTION
    assert ErrorType.CONTRADICTORY.category is ErrorCategory.ATTRIBUTION
    assert ErrorType.LOGICAL_FALLACY.category is ErrorCategory.LOGICAL
    assert ErrorType.WRONG_CONCLUSION.category is ErrorCategory.FINAL_ANSWER
    assert ErrorType.CORRECT.category is ErrorCategory.NONE


def test_parse_error_type_aliases_and_case():
    assert parse_error_type("Correct (No Error)") is ErrorType.CORRECT
    assert parse_error_type("no error") is ErrorType.CORRECT
    assert parse_error_type("off topic") is ErrorType.OFF_TOPIC
    assert parse_error_type("OFFTOPIC") is ErrorType.OFF_TOPIC
    assert parse_error_type(" premature attribution ") is ErrorType.PREMATURE_ATTRIBUTION
    for et in ErrorType:
        for label in (et.value, et.value.upper(), et.value.lower(), f"\t {et.value}  \n"):
            assert parse_error_type(label) is et, label
    for label in ("totally novel error", "", "Off_topic", "Correct Error"):
        with pytest.raises(ValueError, match="unknown error type label"):
            parse_error_type(label)


def test_admissible_sets_and_order():
    assert admissible_errors(StepKind.FINAL_ANSWER) == (
        ErrorType.WRONG_CONCLUSION,
        ErrorType.CORRECT,
    )
    assert admissible_errors(StepKind.ATTRIBUTION) == (
        ErrorType.OVERTHINKING,
        ErrorType.OFF_TOPIC,
        ErrorType.REDUNDANCY,
        ErrorType.INEFFICIENCY,
        ErrorType.CONTRADICTORY,
        ErrorType.UNSUPPORTED,
        ErrorType.INFORMATION_MISS,
        ErrorType.PREMATURE_ATTRIBUTION,
        ErrorType.CORRECT,
    )
    assert admissible_errors(StepKind.LOGICAL) == (
        ErrorType.OVERTHINKING,
        ErrorType.OFF_TOPIC,
        ErrorType.REDUNDANCY,
        ErrorType.INEFFICIENCY,
        ErrorType.LOGICAL_FALLACY,
        ErrorType.CORRECT,
    )


def test_validate_feedback_admissibility():
    fb = Feedback(ErrorType.LOGICAL_FALLACY, "d", "g")
    validate_feedback(fb, _step(StepKind.LOGICAL))
    with pytest.raises(InadmissibleFeedbackError):
        validate_feedback(fb, _step(StepKind.ATTRIBUTION))
    with pytest.raises(InadmissibleFeedbackError):
        validate_feedback(Feedback(ErrorType.UNSUPPORTED, "d", "g"), _step(StepKind.LOGICAL))
    with pytest.raises(InadmissibleFeedbackError):
        validate_feedback(
            Feedback(ErrorType.OVERTHINKING, "d", "g"), _step(StepKind.FINAL_ANSWER)
        )
    validate_feedback(Feedback(ErrorType.CORRECT, "d", "g"), _step(StepKind.FINAL_ANSWER))


def test_feedback_invariants_and_round_trip():
    with pytest.raises(ValueError):
        Feedback(ErrorType.CORRECT, "", "g")
    with pytest.raises(ValueError):
        Feedback(ErrorType.CORRECT, "d", "  ")
    fb = Feedback(ErrorType.INFORMATION_MISS, "missed a fact", "read passage 3")
    assert Feedback.from_dict(fb.to_dict()) == fb


@pytest.mark.parametrize("kind", list(StepKind))
def test_priority_exhaustive_over_failing_subsets(kind):
    """For every subset of failing checks, the verdict is the earliest
    failing type in protocol order, or Correct for the empty subset."""
    order = admissible_errors(kind)[:-1]
    step = _step(kind)
    for r in range(len(order) + 1):
        for failing in itertools.combinations(order, r):
            checks = {et: (lambda s, p, hit=(et in failing): hit) for et in order}
            verdict = reference_evaluate(checks, step)
            expected = next((et for et in order if et in failing), ErrorType.CORRECT)
            assert verdict.error_type is expected, (kind, failing)


def test_reference_evaluate_ignores_inadmissible_checks():
    checks = {ErrorType.WRONG_CONCLUSION: lambda s, p: True}
    verdict = reference_evaluate(checks, _step(StepKind.LOGICAL))
    assert verdict.error_type is ErrorType.CORRECT


def test_reference_evaluate_passes_prefix():
    seen = []

    def check(step, prefix):
        seen.append(tuple(prefix))
        return False

    prefix = (_step(StepKind.ATTRIBUTION),)
    reference_evaluate({ErrorType.REDUNDANCY: check}, _step(StepKind.LOGICAL), prefix)
    assert seen == [prefix]
