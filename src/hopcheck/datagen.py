"""Training-data synthesis: plans, ideal trajectories, error injection.

A plan decomposes the question into tagged atomic instructions; the
ideal trajectory executes the plan over gold passages; taxonomy-guided
injection corrupts exactly one step to build negative examples; refined
hard cases are imported from external transcripts and validated the
same way. The dataset builder enforces provenance and quota invariants
and emits a manifest with the count histograms.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

from .data_model import Dataset, QAInstance
from .feedback_loop import render_passages
from .llm_client import Backend, ParseFailure, TransportError, ask, parse_json_list
from .step_grammar import (
    ReasoningStep,
    StepFormatError,
    StepKind,
    Trajectory,
    parse_step,
    render_step,
    render_trajectory,
)
from .taxonomy import ErrorType, Feedback, admissible_errors


class DatagenError(ValueError):
    pass


class PlanError(DatagenError):
    pass


class QuotaInfeasibleError(DatagenError):
    pass


@dataclass(frozen=True)
class PlanStep:
    index: int
    text: str
    kind: StepKind

    def __post_init__(self) -> None:
        if self.kind is StepKind.FINAL_ANSWER:
            raise PlanError("plans contain only Attribution and Logical steps")


@dataclass(frozen=True)
class ReasoningPlan:
    steps: tuple[PlanStep, ...]

    def __post_init__(self) -> None:
        if not self.steps:
            raise PlanError("empty plan")
        if self.steps[-1].kind is not StepKind.LOGICAL:
            raise PlanError("plans must end with a (Logical) step")

    def render(self) -> str:
        return "\n".join(
            f"Step {s.index}: {s.text} ({s.kind.value})" for s in self.steps
        )


_PLAN_STEP_RE = re.compile(r"Step\s+(\d+)\s*:", re.IGNORECASE)
_PLAN_TAG_RE = re.compile(r"\(\s*(Attribution|Logical)\s*\)\s*[,\]]?\s*$", re.IGNORECASE)
# Attribution plan steps must not fetch an entity and its attribute at once.
_NON_ATOMIC_RE = re.compile(r"\b(?:and|as well as)\s+(?:his|her|its|their)\b", re.IGNORECASE)


def parse_plan(text: str) -> ReasoningPlan:
    """Parse the bracketed `[Step 1: ..., Step 2: ...]` plan format."""
    body = text.strip()
    start, end = body.find("["), body.rfind("]")
    if start < 0 or end <= start:
        raise PlanError("plan is not a bracketed list")
    body = body[start + 1 : end]
    matches = list(_PLAN_STEP_RE.finditer(body))
    if not matches:
        raise PlanError("no plan steps found")
    steps: list[PlanStep] = []
    for pos, match in enumerate(matches):
        stop = matches[pos + 1].start() if pos + 1 < len(matches) else len(body)
        chunk = body[match.end() : stop].strip().rstrip(",").strip()
        tag = _PLAN_TAG_RE.search(chunk)
        if tag is None:
            raise PlanError(f"plan step {pos + 1} lacks an (Attribution)/(Logical) tag")
        kind = StepKind.ATTRIBUTION if tag.group(1).lower() == "attribution" else StepKind.LOGICAL
        step_text = chunk[: tag.start()].strip()
        if not step_text:
            raise PlanError(f"plan step {pos + 1} is empty")
        if kind is StepKind.ATTRIBUTION and _NON_ATOMIC_RE.search(step_text):
            raise PlanError(
                f"plan step {pos + 1} combines an entity lookup with an attribute lookup"
            )
        index = int(match.group(1))
        if index != pos + 1:
            raise PlanError(f"plan step numbering broken at position {pos + 1}")
        steps.append(PlanStep(index=index, text=step_text, kind=kind))
    return ReasoningPlan(steps=tuple(steps))


_PLAN_PROMPT_BY_DATASET = {
    Dataset.TWOWIKI: "plan_2wiki",
    Dataset.HOTPOTQA: "plan_hotpotqa",
    Dataset.MUSIQUE: "plan_musique",
}


def generate_plan(
    backend: Backend,
    question: str,
    dataset: Dataset,
    decomposition: str = "",
    model_id: str = "default",
) -> ReasoningPlan:
    _, resp = ask(
        backend, _PLAN_PROMPT_BY_DATASET.get(dataset, "plan_hotpotqa"), model_id,
        question=question,
        decomposition=decomposition or "(none provided)",
    )
    return parse_plan(resp.text)


def _step_text_of(item: dict) -> str | None:
    for key in ("step", "text", "reasoning", "reasoning_step"):
        value = item.get(key)
        if isinstance(value, str) and value.strip():
            return value
    return None


def generate_ideal(
    backend: Backend,
    instance: QAInstance,
    plan: ReasoningPlan,
    model_id: str = "default",
) -> Trajectory:
    """Execute the plan into a validated trajectory.

    One step per plan step, kinds matching, every Attribution citation
    pointing at a gold passage.
    """
    _, resp = ask(
        backend, "ideal_reasoning", model_id,
        question=instance.question,
        passages=render_passages(instance),
        plan=plan.render(),
    )
    parsed = parse_json_list(resp.text)
    if isinstance(parsed, ParseFailure):
        raise DatagenError(f"ideal reasoning not parseable: {parsed.reason}")
    if len(parsed) != len(plan.steps):
        raise DatagenError(
            f"expected {len(plan.steps)} steps, model produced {len(parsed)}"
        )
    gold_indices = {p.index for p in instance.gold_passages}
    steps: list[ReasoningStep] = []
    for i, item in enumerate(parsed, start=1):
        if not isinstance(item, dict):
            raise DatagenError(f"step {i} is not an object")
        raw = _step_text_of(item)
        if raw is None:
            raise DatagenError(f"step {i} carries no step text")
        try:
            step = parse_step(raw, expected_index=i).step
        except StepFormatError as exc:
            raise DatagenError(f"step {i} malformed: {exc}") from exc
        plan_kind = plan.steps[i - 1].kind
        if step.kind is not plan_kind:
            raise DatagenError(
                f"step {i} kind {step.kind.value} does not match plan ({plan_kind.value})"
            )
        if step.kind is StepKind.ATTRIBUTION:
            if step.cited_passage not in gold_indices:
                raise DatagenError(
                    f"step {i} cites passage {step.cited_passage}, which is not gold"
                )
            support = item.get("supporting_index")
            if isinstance(support, int) and support != step.cited_passage:
                raise DatagenError(
                    f"step {i} supporting_index {support} disagrees with the citation"
                )
        steps.append(step)
    return Trajectory(instance_id=instance.id, steps=tuple(steps))


# One-line definitions handed to the injection teacher, phrased after the
# taxonomy's category descriptions.
ERROR_DEFINITIONS: dict[ErrorType, str] = {
    ErrorType.OVERTHINKING: "Performs work after the answer is already derivable from prior steps.",
    ErrorType.INEFFICIENCY: "Performs an action that does not correspond to a single valid operation toward the answer.",
    ErrorType.OFF_TOPIC: "Pursues information unrelated to what the question asks.",
    ErrorType.REDUNDANCY: "Restates a fact already established by a previous step.",
    ErrorType.UNSUPPORTED: "States a claim the cited passage does not contain.",
    ErrorType.PREMATURE_ATTRIBUTION: "Cites a fact whose required preceding step has not been established yet.",
    ErrorType.INFORMATION_MISS: "Extracts from the cited passage but omits the part needed to answer.",
    ErrorType.CONTRADICTORY: "States the opposite of what the cited passage says.",
    ErrorType.LOGICAL_FALLACY: "Draws a conclusion that does not follow from the established facts.",
    ErrorType.WRONG_CONCLUSION: "Submits a final answer inconsistent with the established reasoning.",
}


class Provenance(str, Enum):
    IDEAL = "Ideal"
    INJECTED = "Injected"
    REFINED = "Refined"


@dataclass(frozen=True)
class TrainingExample:
    instance: QAInstance
    prior_steps: tuple[ReasoningStep, ...]
    current_step: ReasoningStep
    target: Feedback
    provenance: Provenance

    def __post_init__(self) -> None:
        if len(self.prior_steps) != self.current_step.index - 1:
            raise ValueError(
                f"step {self.current_step.index} needs {self.current_step.index - 1} "
                f"previous steps, got {len(self.prior_steps)}"
            )
        if self.provenance is Provenance.IDEAL and self.target.error_type is not ErrorType.CORRECT:
            raise ValueError("Ideal examples must target Correct")
        if self.provenance is Provenance.INJECTED and self.target.error_type is ErrorType.CORRECT:
            raise ValueError("Injected examples cannot target Correct")
        if self.target.error_type is not ErrorType.CORRECT:
            if self.target.error_type not in admissible_errors(self.current_step.kind):
                raise ValueError(
                    f"{self.target.error_type.value} is inadmissible for "
                    f"{self.current_step.kind.value} steps"
                )

    @property
    def injected_error(self) -> ErrorType | None:
        return self.target.error_type if self.provenance is Provenance.INJECTED else None

    @property
    def error_position(self) -> int:
        return self.current_step.index

    def to_dict(self) -> dict:
        return {
            "question": self.instance.question,
            "passages": render_passages(self.instance),
            "previous_steps": render_trajectory(self.prior_steps),
            "current_step": render_step(self.current_step),
            "feedback": self.target.to_dict(),
            "provenance": self.provenance.value,
            "instance_id": self.instance.id,
            "dataset": self.instance.dataset.value,
            "injected_error": self.injected_error.value if self.injected_error else None,
            "error_position": self.error_position,
        }


def inject_error(
    backend: Backend,
    instance: QAInstance,
    trajectory: Trajectory,
    target_step: int,
    error: ErrorType,
    model_id: str = "default",
) -> TrainingExample:
    """Replace one correct step with a teacher-written erroneous one."""
    if error is ErrorType.CORRECT:
        raise DatagenError("cannot inject Correct")
    if not 1 <= target_step <= len(trajectory.steps):
        raise DatagenError(f"target step {target_step} out of range")
    original = trajectory.steps[target_step - 1]
    if error not in admissible_errors(original.kind):
        raise DatagenError(
            f"{error.value} is inadmissible for {original.kind.value} steps"
        )
    _, resp = ask(
        backend, "error_injection", model_id,
        error_type=error.value,
        error_definition=ERROR_DEFINITIONS[error],
        question=instance.question,
        passages=render_passages(instance),
        ideal_steps=render_trajectory(trajectory.steps),
        target_step=str(target_step),
    )
    try:
        corrupted = parse_step(resp.text, expected_index=target_step).step
    except StepFormatError as exc:
        raise DatagenError(f"teacher output not a single step: {exc}") from exc
    if corrupted.kind is not original.kind:
        raise DatagenError(
            f"teacher changed the step kind ({original.kind.value} -> {corrupted.kind.value})"
        )
    if corrupted == original:
        raise DatagenError("teacher returned the original step unchanged")
    target = Feedback(
        error_type=error,
        diagnosis=f"Step {target_step} commits a {error.value} error: {ERROR_DEFINITIONS[error]}",
        guidance=f"Redo step {target_step} as a single correct operation toward the answer.",
    )
    return TrainingExample(
        instance=instance,
        prior_steps=trajectory.prefix(target_step - 1),
        current_step=corrupted,
        target=target,
        provenance=Provenance.INJECTED,
    )


def ideal_example(
    instance: QAInstance, trajectory: Trajectory, position: int
) -> TrainingExample:
    step = trajectory.steps[position - 1]
    target = Feedback(
        error_type=ErrorType.CORRECT,
        diagnosis=f"Step {position} is a correct atomic operation grounded in the evidence.",
        guidance="Proceed with the next atomic reasoning step.",
    )
    return TrainingExample(
        instance=instance,
        prior_steps=trajectory.prefix(position - 1),
        current_step=step,
        target=target,
        provenance=Provenance.IDEAL,
    )


def import_refined(
    record: dict, instances: dict[str, QAInstance]
) -> TrainingExample:
    """Validate one externally supplied hard-case transcript record.

    Required fields: instance_id, position, step (rendered), feedback
    {error_type, diagnosis, guidance}, previous_steps (rendered, one per
    step before position; optional at position 1). A value of the wrong
    JSON type is reported like any other invalid field.
    """
    try:
        instance = instances[record["instance_id"]]
        position = record["position"]
        if type(position) is not int:  # bool is an int subclass, and no JSON integer
            raise TypeError(f"position {position!r} is not an integer")
        step = parse_step(record["step"], expected_index=position).step
        target = Feedback.from_dict(record["feedback"])
        prior = tuple(
            parse_step(line, expected_index=i).step
            for i, line in enumerate(record.get("previous_steps", []), start=1)
        )
        return TrainingExample(
            instance=instance,
            prior_steps=prior,
            current_step=step,
            target=target,
            provenance=Provenance.REFINED,
        )
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise DatagenError(f"refined record invalid: {exc}") from exc


# Procedural-heavy shape of the injected-error mix. Wrong Conclusion is
# excluded because ideal trajectories end with a Logical comparison
# step, not an answer submission.
DEFAULT_ERROR_QUOTAS: tuple[tuple[ErrorType, float], ...] = (
    (ErrorType.REDUNDANCY, 0.18),
    (ErrorType.INEFFICIENCY, 0.16),
    (ErrorType.OFF_TOPIC, 0.14),
    (ErrorType.OVERTHINKING, 0.12),
    (ErrorType.UNSUPPORTED, 0.12),
    (ErrorType.CONTRADICTORY, 0.10),
    (ErrorType.INFORMATION_MISS, 0.08),
    (ErrorType.PREMATURE_ATTRIBUTION, 0.06),
    (ErrorType.LOGICAL_FALLACY, 0.04),
)


@dataclass(frozen=True)
class DatasetConfig:
    total: int
    ideal_fraction: float = 0.34  # ideal-vs-injected mix of the synthesized split

    def __post_init__(self) -> None:
        if self.total < 1:
            raise ValueError("total must be >= 1")
        if not 0.0 <= self.ideal_fraction <= 1.0:
            raise ValueError("ideal_fraction must be in [0, 1]")


MAX_POSITION = 5  # error positions cycle through 1..MAX_POSITION


def _largest_remainder(weights: list[float], total: int) -> list[int]:
    scale = sum(weights)
    raw = [w / scale * total for w in weights]
    counts = [int(r) for r in raw]
    remainder = total - sum(counts)
    order = sorted(range(len(raw)), key=lambda i: raw[i] - counts[i], reverse=True)
    for i in order[:remainder]:
        counts[i] += 1
    return counts


def build_dataset(
    backend: Backend,
    pool: list[tuple[QAInstance, Trajectory]],
    config: DatasetConfig,
    refined: list[TrainingExample] | None = None,
    model_id: str = "default",
) -> tuple[list[TrainingExample], dict]:
    """Synthesize the training set and its manifest; the `refined`
    examples (see import_refined) follow the synthesized ones.

    Positions cycle deterministically through 1..MAX_POSITION (clipped
    to each trajectory's length) so every position bucket is covered;
    injection targets additionally require an admissible step kind.
    """
    if not pool:
        raise QuotaInfeasibleError("empty verified-instance pool")
    n_ideal = round(config.total * config.ideal_fraction)
    counts = _largest_remainder([w for _, w in DEFAULT_ERROR_QUOTAS], config.total - n_ideal)
    quotas = [(error, needed) for (error, _), needed in zip(DEFAULT_ERROR_QUOTAS, counts) if needed]
    # Once every quota error fits some step of the pool, each pass over the
    # pool finds it a target, so the injection loop below always ends.
    kinds = {step.kind for _, traj in pool for step in traj.steps}
    for error, _ in quotas:
        if not any(error in admissible_errors(kind) for kind in kinds):
            raise QuotaInfeasibleError(f"no step in the pool admits {error.value}")

    examples: list[TrainingExample] = []
    cursor = 0
    for i in range(n_ideal):
        instance, traj = pool[cursor % len(pool)]
        cursor += 1
        position = min((i % MAX_POSITION) + 1, len(traj.steps))
        examples.append(ideal_example(instance, traj, position))

    pos_cycle = 0
    for error, needed in quotas:
        produced = 0
        while produced < needed:
            instance, traj = pool[cursor % len(pool)]
            cursor += 1
            wanted = (pos_cycle % MAX_POSITION) + 1
            pos_cycle += 1
            # Scan from the wanted position for a step that admits this error.
            target = None
            for offset in range(len(traj.steps)):
                candidate = ((wanted - 1 + offset) % len(traj.steps)) + 1
                step = traj.steps[candidate - 1]
                if error in admissible_errors(step.kind):
                    target = candidate
                    break
            if target is None:
                continue
            try:
                examples.append(inject_error(backend, instance, traj, target, error, model_id))
            except (DatagenError, TransportError) as exc:
                raise DatagenError(f"instance {instance.id}: {exc}") from exc
            produced += 1

    examples.extend(refined or [])
    manifest = build_manifest(examples)
    return examples, manifest


def build_manifest(examples: list[TrainingExample]) -> dict:
    by_provenance: dict[str, int] = {}
    by_error: dict[str, int] = {}
    by_position: dict[str, int] = {}
    unique_questions: dict[str, set[str]] = {}
    for ex in examples:
        by_provenance[ex.provenance.value] = by_provenance.get(ex.provenance.value, 0) + 1
        by_error[ex.target.error_type.value] = by_error.get(ex.target.error_type.value, 0) + 1
        key = str(ex.error_position)
        by_position[key] = by_position.get(key, 0) + 1
        unique_questions.setdefault(ex.instance.dataset.value, set()).add(ex.instance.question)
    return {
        "total": len(examples),
        "by_provenance": dict(sorted(by_provenance.items())),
        "error_type_histogram": dict(sorted(by_error.items())),
        "error_position_histogram": {
            k: by_position[k] for k in sorted(by_position, key=int)
        },
        "unique_questions_by_dataset": {
            k: len(v) for k, v in sorted(unique_questions.items())
        },
        "unique_questions_total": len({q for v in unique_questions.values() for q in v}),
    }
