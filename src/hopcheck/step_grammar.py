"""Parser, serializer, and validator for atomic reasoning steps.

A trajectory is an ordered sequence of typed steps: fact extractions
citing exactly one passage (Attribution), inferences over prior steps
(Logical), and a single terminal answer submission (Final Answer).
All functions are pure over immutable values.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum


class StepKind(str, Enum):
    ATTRIBUTION = "Attribution"
    LOGICAL = "Logical"
    FINAL_ANSWER = "Final Answer"


class StepErrorCode(str, Enum):
    MISSING_PREFIX = "missing_step_prefix"
    INDEX_MISMATCH = "index_mismatch"
    MISSING_TAG = "missing_or_unknown_tag"
    NO_CITATION = "attribution_without_citation"
    MULTI_CITATION = "attribution_with_multiple_citations"
    MISSING_ANSWER_MARKER = "final_answer_without_marker"
    EMPTY_BODY = "empty_step_body"


class StepFormatError(ValueError):
    """A generator output that does not parse; retryable by the loop."""

    def __init__(self, code: StepErrorCode, message: str):
        super().__init__(f"{code.value}: {message}")
        self.code = code


@dataclass(frozen=True)
class ReasoningStep:
    index: int
    kind: StepKind
    text: str  # body without the "Step K:" prefix or the kind suffix
    cited_passage: int | None = None
    answer_value: str | None = None

    def __post_init__(self) -> None:
        if self.index < 1:
            raise ValueError("step index must be positive")
        if not self.text.strip():
            raise ValueError("step body must be non-empty")
        if self.kind is StepKind.ATTRIBUTION and self.cited_passage is None:
            raise ValueError("Attribution steps must cite exactly one passage")
        if self.kind is not StepKind.ATTRIBUTION and self.cited_passage is not None:
            raise ValueError("only Attribution steps carry a citation")
        if self.kind is StepKind.FINAL_ANSWER and self.answer_value is None:
            raise ValueError("Final Answer steps must carry an answer value")
        if self.kind is not StepKind.FINAL_ANSWER and self.answer_value is not None:
            raise ValueError("only Final Answer steps carry an answer value")


@dataclass(frozen=True)
class Trajectory:
    instance_id: str
    steps: tuple[ReasoningStep, ...] = ()

    def __post_init__(self) -> None:
        for pos, step in enumerate(self.steps, start=1):
            if step.index != pos:
                raise ValueError(f"step indices must run 1..n without gaps (got {step.index} at {pos})")
        finals = [s for s in self.steps if s.kind is StepKind.FINAL_ANSWER]
        if len(finals) > 1:
            raise ValueError("at most one Final Answer step")
        if finals and self.steps[-1].kind is not StepKind.FINAL_ANSWER:
            raise ValueError("Final Answer must be the last step")

    @property
    def terminated(self) -> bool:
        return bool(self.steps) and self.steps[-1].kind is StepKind.FINAL_ANSWER

    def prefix(self, length: int) -> tuple[ReasoningStep, ...]:
        return self.steps[:length]

    @property
    def answer(self) -> str | None:
        if self.terminated:
            return self.steps[-1].answer_value
        return None


_STEP_PREFIX_RE = re.compile(r"^[ \t]*Step\s+(\d+)\s*:\s*", re.IGNORECASE | re.MULTILINE)
_SUFFIX_RE = re.compile(r"\(\s*(Attribution|Logical|Final Answer)\s*\)\s*$", re.IGNORECASE)
_CITATION_RE = re.compile(r"\bpassages?\s+(\d+)\b", re.IGNORECASE)
_ANSWER_RE = re.compile(r"####\s*ANSWER\s*:\s*(.*)$", re.IGNORECASE | re.DOTALL)

_KIND_BY_TAG = {
    "attribution": StepKind.ATTRIBUTION,
    "logical": StepKind.LOGICAL,
    "final answer": StepKind.FINAL_ANSWER,
}


@dataclass(frozen=True)
class ParsedStep:
    step: ReasoningStep
    extra_lines: tuple[str, ...] = ()  # trailing "Step K:" lines beyond the first


def parse_step(raw: str, expected_index: int) -> ParsedStep:
    """Parse one generator completion into a step.

    When the completion contains several "Step K:" lines, the first
    well-formed one is taken and the remainder flagged in extra_lines.
    """
    text = raw.strip()
    match = _STEP_PREFIX_RE.search(text)
    if match is None:
        raise StepFormatError(StepErrorCode.MISSING_PREFIX, "no 'Step K:' prefix found")
    # Drop any prose before the first step line, then isolate the first step.
    text = text[match.start():]
    lines = text.splitlines()
    first: list[str] = [lines[0]]
    extras: list[str] = []
    for line in lines[1:]:
        if _STEP_PREFIX_RE.match(line):
            extras.append(line.strip())
        elif not extras:
            first.append(line)
    step_text = " ".join(part.strip() for part in first if part.strip())

    match = _STEP_PREFIX_RE.match(step_text)
    assert match is not None
    index = int(match.group(1))
    if index != expected_index:
        raise StepFormatError(
            StepErrorCode.INDEX_MISMATCH,
            f"expected Step {expected_index}, got Step {index}",
        )
    body = step_text[match.end():].strip()

    suffix = _SUFFIX_RE.search(body)
    if suffix is None:
        raise StepFormatError(StepErrorCode.MISSING_TAG, "step must end with a kind tag")
    kind = _KIND_BY_TAG[suffix.group(1).lower()]
    body = body[: suffix.start()].strip()
    if not body:
        raise StepFormatError(StepErrorCode.EMPTY_BODY, "step body is empty")

    cited: int | None = None
    answer: str | None = None
    if kind is StepKind.ATTRIBUTION:
        numbers = {int(n) for n in _CITATION_RE.findall(body)}
        if not numbers:
            raise StepFormatError(StepErrorCode.NO_CITATION, "Attribution step cites no passage")
        if len(numbers) > 1:
            raise StepFormatError(
                StepErrorCode.MULTI_CITATION,
                f"Attribution step cites multiple passages: {sorted(numbers)}",
            )
        cited = numbers.pop()
    elif kind is StepKind.FINAL_ANSWER:
        ans = _ANSWER_RE.search(body)
        if ans is None:
            raise StepFormatError(
                StepErrorCode.MISSING_ANSWER_MARKER, "Final Answer step lacks ####ANSWER:"
            )
        answer = ans.group(1).strip()
        if not answer:
            raise StepFormatError(StepErrorCode.MISSING_ANSWER_MARKER, "empty answer value")
        body = f"####ANSWER: {answer}"

    step = ReasoningStep(
        index=index, kind=kind, text=body, cited_passage=cited, answer_value=answer
    )
    return ParsedStep(step=step, extra_lines=tuple(extras))


def render_step(step: ReasoningStep) -> str:
    """Inverse of parse_step on valid steps: parse(render(s)).step == s."""
    if step.kind is StepKind.FINAL_ANSWER:
        return f"Step {step.index}: ####ANSWER: {step.answer_value} (Final Answer)"
    return f"Step {step.index}: {step.text} ({step.kind.value})"


def render_trajectory(steps: tuple[ReasoningStep, ...]) -> str:
    return "\n".join(render_step(s) for s in steps) if steps else "(none)"
