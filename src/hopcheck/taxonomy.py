"""Error taxonomy, feedback records, and the phased evaluation protocol.

Ten mutually exclusive error types across four categories, plus Correct.
Candidate feedback is validated against the step kind's admissible set,
listed in the fixed phase/priority order of the evaluation protocol.
Everything here is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping

from .step_grammar import ReasoningStep, StepKind


class ErrorCategory(str, Enum):
    PROCEDURAL = "Procedural"
    ATTRIBUTION = "Attribution"
    LOGICAL = "Logical"
    FINAL_ANSWER = "Final Answer"
    NONE = "None"


class ErrorType(str, Enum):
    OVERTHINKING = "Overthinking"
    INEFFICIENCY = "Inefficiency"
    OFF_TOPIC = "Off-topic"
    REDUNDANCY = "Redundancy"
    UNSUPPORTED = "Unsupported"
    PREMATURE_ATTRIBUTION = "Premature Attribution"
    INFORMATION_MISS = "Information Miss"
    CONTRADICTORY = "Contradictory"
    LOGICAL_FALLACY = "Logical Fallacy"
    WRONG_CONCLUSION = "Wrong Conclusion"
    CORRECT = "Correct"

    @property
    def category(self) -> ErrorCategory:
        return _CATEGORY[self]


# Accepted spellings seen in model outputs, mapped onto the enum.
_ALIASES: dict[str, ErrorType] = {
    "correct (no error)": ErrorType.CORRECT,
    "no error": ErrorType.CORRECT,
    "off topic": ErrorType.OFF_TOPIC,
    "offtopic": ErrorType.OFF_TOPIC,
}


_BY_LABEL: dict[str, ErrorType] = _ALIASES | {et.value.lower(): et for et in ErrorType}


def parse_error_type(label: str) -> ErrorType:
    """The error type a label names, ignoring case and surrounding space."""
    et = _BY_LABEL.get(label.strip().lower())
    if et is None:
        raise ValueError(f"unknown error type label {label!r}")
    return et


# The evaluation protocol's phase order. Within the utility phase the
# check order is Overthinking, Off-topic, Redundancy, Inefficiency;
# within the validity phase (Attribution) Contradictory, Unsupported,
# Information Miss, Premature Attribution.
_UTILITY_ORDER = (
    ErrorType.OVERTHINKING,
    ErrorType.OFF_TOPIC,
    ErrorType.REDUNDANCY,
    ErrorType.INEFFICIENCY,
)
_ATTRIBUTION_VALIDITY_ORDER = (
    ErrorType.CONTRADICTORY,
    ErrorType.UNSUPPORTED,
    ErrorType.INFORMATION_MISS,
    ErrorType.PREMATURE_ATTRIBUTION,
)

# Each category's members are the phase lists above, so an error type's
# category and the step kinds that admit it cannot disagree.
_CATEGORY: dict[ErrorType, ErrorCategory] = {
    **dict.fromkeys(_UTILITY_ORDER, ErrorCategory.PROCEDURAL),
    **dict.fromkeys(_ATTRIBUTION_VALIDITY_ORDER, ErrorCategory.ATTRIBUTION),
    ErrorType.LOGICAL_FALLACY: ErrorCategory.LOGICAL,
    ErrorType.WRONG_CONCLUSION: ErrorCategory.FINAL_ANSWER,
    ErrorType.CORRECT: ErrorCategory.NONE,
}


def admissible_errors(kind: StepKind) -> tuple[ErrorType, ...]:
    """Admissible error types for a step kind, in protocol check order.

    Every list falls through to Correct.
    """
    if kind is StepKind.FINAL_ANSWER:
        return (ErrorType.WRONG_CONCLUSION, ErrorType.CORRECT)
    if kind is StepKind.ATTRIBUTION:
        return _UTILITY_ORDER + _ATTRIBUTION_VALIDITY_ORDER + (ErrorType.CORRECT,)
    return _UTILITY_ORDER + (ErrorType.LOGICAL_FALLACY, ErrorType.CORRECT)


@dataclass(frozen=True)
class Feedback:
    error_type: ErrorType
    diagnosis: str
    guidance: str

    def __post_init__(self) -> None:
        if not self.diagnosis.strip():
            raise ValueError("diagnosis must be non-empty")
        if not self.guidance.strip():
            raise ValueError("guidance must be non-empty")

    def to_dict(self) -> dict[str, str]:
        return {
            "error_type": self.error_type.value,
            "diagnosis": self.diagnosis,
            "guidance": self.guidance,
        }

    @classmethod
    def from_dict(cls, record: Mapping[str, str]) -> "Feedback":
        return cls(
            error_type=parse_error_type(record["error_type"]),
            diagnosis=record["diagnosis"],
            guidance=record["guidance"],
        )


class InadmissibleFeedbackError(ValueError):
    pass


def validate_feedback(fb: Feedback, step: ReasoningStep) -> None:
    """Reject feedback whose error type is inadmissible for the step kind."""
    allowed = admissible_errors(step.kind)
    if fb.error_type not in allowed:
        raise InadmissibleFeedbackError(
            f"error type {fb.error_type.value!r} is not admissible "
            f"for {step.kind.value} steps"
        )
