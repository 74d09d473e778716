"""Reference evaluation engine for the phased evaluation protocol.

The real evaluator is an LLM. This engine applies caller-supplied check
predicates in the protocol's phase/priority order, so the priority logic
in `taxonomy.admissible_errors` is testable in isolation.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

from hopcheck.step_grammar import ReasoningStep
from hopcheck.taxonomy import ErrorType, Feedback, admissible_errors

CheckPredicate = Callable[[ReasoningStep, Sequence[ReasoningStep]], bool]


def reference_evaluate(
    checks: Mapping[ErrorType, CheckPredicate],
    step: ReasoningStep,
    prefix: Sequence[ReasoningStep] = (),
) -> Feedback:
    """Apply check predicates in protocol order; first failure wins.

    A predicate returning True means the step FAILS that check. Checks
    for types not admissible for the step kind are ignored; with no
    failing check the verdict is Correct.
    """
    for error_type in admissible_errors(step.kind):
        if error_type is ErrorType.CORRECT:
            break
        predicate = checks.get(error_type)
        if predicate is not None and predicate(step, prefix):
            return Feedback(
                error_type=error_type,
                diagnosis=f"Step {step.index} failed the {error_type.value} check.",
                guidance=f"Rewrite step {step.index} to avoid the {error_type.value} fault.",
            )
    return Feedback(
        error_type=ErrorType.CORRECT,
        diagnosis=f"Step {step.index} passed all checks.",
        guidance="Proceed with the next atomic reasoning step.",
    )
