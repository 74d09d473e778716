"""Generator/evaluator feedback loop with bounded retries and a token ledger.

For each step slot the generator proposes one atomic step; in feedback
modes the evaluator returns (error type, diagnosis, guidance) and
erroneous steps are retried with the feedback injected, at most N times
per slot. The loop runs at most K accepted slots; unterminated runs are
closed by a single forced final-answer call. Prompt-token reuse is
tracked per role as running integer totals, from which each run builds
one immutable CacheLedger for its record.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .data_model import FeedbackMode, QAInstance
from .llm_client import (
    Backend,
    ParseFailure,
    TransportError,
    ask,
    parse_structured_verdict,
)
from .step_grammar import (
    ReasoningStep,
    StepFormatError,
    StepKind,
    Trajectory,
    _ANSWER_RE,
    _STEP_PREFIX_RE,
    _SUFFIX_RE,
    parse_step,
    render_step,
    render_trajectory,
)
from .taxonomy import (
    ErrorType,
    Feedback,
    InadmissibleFeedbackError,
    parse_error_type,
    validate_feedback,
)
from .textnorm import rough_token_count, splits_token


@dataclass(frozen=True)
class LoopConfig:
    max_steps: int = 10  # K: accepted-step budget
    max_retries: int = 3  # N: per-slot retry budget
    mode: FeedbackMode = FeedbackMode.EXTERNAL_FEEDBACK
    generator_model: str = "generator"
    evaluator_model: str = "evaluator"

    def __post_init__(self) -> None:
        if self.max_steps < 1:
            raise ValueError("max_steps (K) must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries (N) must be >= 0")


EVENT_KINDS = (
    "step_proposed",
    "feedback_given",
    "step_accepted",
    "step_rejected",
    "retry_exhausted",
    "answer_forced",
    "terminated",
)


@dataclass(frozen=True)
class LoopEvent:
    kind: str
    slot: int  # accepted-step slot, 1-based; 0 for run-level events
    attempt: int = 0  # attempt index within the slot, 0-based
    detail: str = ""
    error_type: str = ""

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {self.kind!r}")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "slot": self.slot,
            "attempt": self.attempt,
            "detail": self.detail,
            "error_type": self.error_type,
        }


@dataclass(frozen=True)
class RoleLedger:
    total_prompt_tokens: int = 0
    cached_prompt_tokens: int = 0
    completion_tokens: int = 0
    calls: int = 0
    estimated_calls: int = 0  # calls whose counts came from the fallback estimator

    def __post_init__(self) -> None:
        if min(self.total_prompt_tokens, self.cached_prompt_tokens, self.completion_tokens) < 0:
            raise ValueError("token counts must be >= 0")
        if self.cached_prompt_tokens > self.total_prompt_tokens:
            raise ValueError("cached cannot exceed total prompt tokens")

    def __add__(self, other: "RoleLedger") -> "RoleLedger":
        return RoleLedger(
            total_prompt_tokens=self.total_prompt_tokens + other.total_prompt_tokens,
            cached_prompt_tokens=self.cached_prompt_tokens + other.cached_prompt_tokens,
            completion_tokens=self.completion_tokens + other.completion_tokens,
            calls=self.calls + other.calls,
            estimated_calls=self.estimated_calls + other.estimated_calls,
        )

    @property
    def computed_prompt_tokens(self) -> int:
        return self.total_prompt_tokens - self.cached_prompt_tokens

    @property
    def savings(self) -> float:
        if self.total_prompt_tokens == 0:
            return 0.0
        return self.cached_prompt_tokens / self.total_prompt_tokens

    @property
    def savings_percent(self) -> float:
        return round(100.0 * self.savings, 1)

    def to_dict(self) -> dict:
        return {
            "total_prompt_tokens": self.total_prompt_tokens,
            "cached_prompt_tokens": self.cached_prompt_tokens,
            "computed_prompt_tokens": self.computed_prompt_tokens,
            "completion_tokens": self.completion_tokens,
            "calls": self.calls,
            "estimated_calls": self.estimated_calls,
            "savings_percent": self.savings_percent,
            "savings_undefined": self.total_prompt_tokens == 0,
        }


@dataclass(frozen=True)
class CacheLedger:
    generator: RoleLedger = field(default_factory=RoleLedger)
    evaluator: RoleLedger = field(default_factory=RoleLedger)

    @property
    def overall(self) -> RoleLedger:
        return self.generator + self.evaluator

    def merge(self, other: "CacheLedger") -> "CacheLedger":
        return CacheLedger(self.generator + other.generator, self.evaluator + other.evaluator)

    def to_dict(self) -> dict:
        return {
            "generator": self.generator.to_dict(),
            "evaluator": self.evaluator.to_dict(),
            "overall": self.overall.to_dict(),
        }


def update_ledger(
    totals: list[int],
    usage,
    prefix_estimate: int,
    prompt_estimate: int = 0,
) -> None:
    """Add one call into a role's running totals, a list of integers in
    RoleLedger field order; the totals only grow.

    Backend-reported counts win; otherwise the fixed fallback estimator
    fills in total (prompt_estimate) and cached (prefix_estimate)
    tokens, and the call is marked estimated. Cached tokens never exceed
    the call's total.
    """
    if min(prefix_estimate, prompt_estimate) < 0:
        raise ValueError("estimates must be >= 0")
    estimated = usage.prompt_tokens == 0
    if estimated:
        total = prompt_estimate
        cached = min(prefix_estimate, total)
    else:
        total = usage.prompt_tokens
        cached = (
            usage.cached_prompt_tokens
            if usage.cached_prompt_tokens > 0
            else min(prefix_estimate, total)
        )
    totals[0] += total
    totals[1] += cached
    totals[2] += usage.completion_tokens
    totals[3] += 1
    totals[4] += estimated


@dataclass(frozen=True)
class RunRecord:
    config: LoopConfig
    trajectory: Trajectory
    events: tuple[LoopEvent, ...]
    ledger: CacheLedger
    flags: tuple[str, ...] = ()

    @property
    def answer(self) -> str | None:
        """The detail of the run's terminated event; None when the run
        never terminated."""
        return next((e.detail for e in reversed(self.events) if e.kind == "terminated"), None)

    @property
    def instance_id(self) -> str:
        return self.trajectory.instance_id

    @property
    def generator_calls(self) -> int:
        return self.ledger.generator.calls

    @property
    def evaluator_calls(self) -> int:
        return self.ledger.evaluator.calls

    @property
    def aborted(self) -> bool:
        """A backend call failed hard and the run stopped where it was."""
        return any(flag.startswith("aborted:") for flag in self.flags)

    @property
    def retries(self) -> int:
        return sum(1 for e in self.events if e.kind == "step_rejected")

    def to_dict(self) -> dict:
        return {
            "instance_id": self.instance_id,
            "mode": self.config.mode.value,
            "k": self.config.max_steps,
            "n": self.config.max_retries,
            "steps": [
                {
                    "index": s.index,
                    "kind": s.kind.value,
                    "text": s.text,
                    "cited_passage": s.cited_passage,
                    "answer_value": s.answer_value,
                }
                for s in self.trajectory.steps
            ],
            "answer": self.answer,
            "events": [e.to_dict() for e in self.events],
            "ledger": self.ledger.to_dict(),
            "generator_calls": self.generator_calls,
            "evaluator_calls": self.evaluator_calls,
            "flags": list(self.flags),
            "aborted": self.aborted,
        }


def render_passages(instance: QAInstance) -> str:
    return "\n\n".join(
        f"Passage {p.index} ({p.title}): {p.body}" for p in instance.passages
    )


def _render_feedback(fb: Feedback | None) -> str:
    if fb is None:
        return "(none)"
    return (
        f"Error Type: {fb.error_type.value}\n"
        f"Diagnosis: {fb.diagnosis}\n"
        f"Guidance: {fb.guidance}"
    )


def _format_feedback_for(code_message: str, slot: int) -> Feedback:
    # A malformed step maps onto Inefficiency: it performs no valid
    # single KG operation.
    return Feedback(
        error_type=ErrorType.INEFFICIENCY,
        diagnosis=f"Step {slot} is not a well-formed atomic step: {code_message}.",
        guidance=(
            f"Emit exactly one step in the form 'Step {slot}: <content> (<kind>)' "
            "with one citation for Attribution steps and the ####ANSWER: marker "
            "for the Final Answer step."
        ),
    )


def _citation_feedback(cited: int, passage_count: int, slot: int) -> Feedback:
    # A citation of a passage the instance does not have backs nothing: an
    # Attribution fault, which the loop finds without asking the evaluator.
    return Feedback(
        error_type=ErrorType.UNSUPPORTED,
        diagnosis=(
            f"Step {slot} cites passage {cited}, but the passages are numbered 1 to {passage_count}."
        ),
        guidance=f"Cite the one passage, numbered 1 to {passage_count}, that states the fact.",
    )


def _common_prefix_len(a: str, b: str) -> int:
    """Length of the longest common prefix of a and b.

    A binary search whose probes are C-level slice comparisons. Since
    a[:lo] == b[:lo] holds throughout, each probe compares only the
    undecided span, so the whole search reads O(len) characters.
    """
    lo, hi = 0, min(len(a), len(b))
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if a[lo:mid] == b[lo:mid]:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _synthesize_step(raw: str, slot: int) -> ReasoningStep:
    """A Logical step from a completion no retry could parse; its own
    "Step K:" prefix and kind tag are dropped, as render_step adds both."""
    text = _SUFFIX_RE.sub("", _STEP_PREFIX_RE.sub("", " ".join(raw.split()), count=1)).strip()
    return ReasoningStep(index=slot, kind=StepKind.LOGICAL, text=text or "(empty generator output)")


class _LedgerTracker:
    """Run-scope ledger: per-role running totals that update_ledger adds
    each call into; `ledger` builds the run's CacheLedger from them.

    When the backend reports no usage, a call's total prompt tokens are
    estimated as rough_token_count(prompt) and its cached tokens as the
    rough_token_count of the longest character prefix the prompt shares
    with the role's previous prompt. A reported prompt_tokens replaces
    the total estimate, and a reported cached_prompt_tokens the cached
    one. Both estimates are computed incrementally: each role keeps its
    previous prompt and that prompt's token count, and the split identity
    of textnorm.splits_token lets only the text after the shared prefix
    be tokenized. Counts update_ledger will not read are mostly skipped;
    a call that needs a prefix count whose base was skipped counts its
    shared prefix directly.
    """

    def __init__(self) -> None:
        self._totals = {"generator": [0] * 5, "evaluator": [0] * 5}
        # role -> (previous prompt, its token count or None if it was skipped)
        self._last: dict[str, tuple[str, int | None]] = {}

    @property
    def ledger(self) -> CacheLedger:
        return CacheLedger(
            RoleLedger(*self._totals["generator"]), RoleLedger(*self._totals["evaluator"])
        )

    def record(self, role: str, prompt: str, usage) -> None:
        estimated = usage.prompt_tokens == 0
        count: int | None = None
        prefix = 0
        if estimated or usage.cached_prompt_tokens == 0:
            previous, previous_count = self._last.get(role, ("", 0))
            i = _common_prefix_len(previous, prompt)
            if previous_count is None or 2 * i <= len(previous):
                prefix = rough_token_count(prompt[:i])
            else:  # the previous prompt's tail is the shorter text to count
                prefix = (
                    previous_count - rough_token_count(previous[i:]) + splits_token(previous, i)
                )
            # An unread total is still counted when its new tail is the
            # shorter part: the kept count spares the next call a direct
            # count of its shared prefix.
            if estimated or 2 * i > len(prompt):
                count = prefix + rough_token_count(prompt[i:]) - splits_token(prompt, i)
        update_ledger(self._totals[role], usage, prefix_estimate=prefix, prompt_estimate=count or 0)
        self._last[role] = (prompt, count)


def _evaluate(
    evaluator: Backend,
    model_id: str,
    instance: QAInstance,
    passages: str,
    previous_steps: str,
    step: ReasoningStep,
    tracker: _LedgerTracker,
) -> tuple[Feedback | None, str]:
    """One evaluator call on `step` after the rendered `previous_steps`;
    (feedback, flag). None feedback = unusable verdict."""
    prompt, resp = ask(
        evaluator, "evaluation", model_id,
        question=instance.question,
        passages=passages,
        previous_steps=previous_steps,
        step=render_step(step),
    )
    tracker.record("evaluator", prompt, resp.usage)
    obj = parse_structured_verdict(
        resp.text, required_keys=("error_type", "diagnosis", "guidance")
    )
    if isinstance(obj, ParseFailure):
        return None, f"evaluator_unparseable:{obj.reason}"
    try:
        fb = Feedback(
            error_type=parse_error_type(str(obj["error_type"])),
            diagnosis=str(obj["diagnosis"]) or "(empty)",
            guidance=str(obj["guidance"]) or "(empty)",
        )
        validate_feedback(fb, step)
    except (ValueError, InadmissibleFeedbackError) as exc:
        return None, f"evaluator_invalid:{exc}"
    return fb, ""


def _force_answer(
    generator: Backend,
    cfg: LoopConfig,
    instance: QAInstance,
    passages: str,
    traj: Trajectory,
    tracker: _LedgerTracker,
) -> str:
    prompt, resp = ask(
        generator, "final_answer", cfg.generator_model,
        question=instance.question,
        passages=passages,
        previous_steps=render_trajectory(traj.steps),
    )
    tracker.record("generator", prompt, resp.usage)
    match = _ANSWER_RE.search(resp.text)
    if match:
        value = match.group(1).strip()
        # Strip a trailing kind tag if the model copied the full step form.
        value = value.removesuffix("(Final Answer)").strip()
        if value:
            return value
    return " ".join(resp.text.split())


def run_instance(
    cfg: LoopConfig,
    instance: QAInstance,
    generator: Backend,
    evaluator: Backend | None = None,
) -> RunRecord:
    """Run the step-level loop on one instance.

    Slot accounting: K counts accepted steps; rejected attempts consume
    only the slot's retry budget. Retry exhaustion accepts the last
    attempt flagged rather than skipping, which would break the strict
    step numbering required by the step prompt. The trajectory is fixed
    within a slot, so it is rendered once per slot for every attempt and
    evaluation.

    Before any evaluator call, in every mode, the loop itself rejects a
    completion that does not parse as a step and an Attribution step
    citing a passage the instance does not have; neither is kept as the
    slot's last attempt. In self mode the generator judges its own steps,
    on its own backend and under its own model id.
    """
    self_feedback = cfg.mode is FeedbackMode.SELF_FEEDBACK
    if self_feedback or evaluator is None:
        evaluator = generator
    evaluator_model = cfg.generator_model if self_feedback else cfg.evaluator_model
    tracker = _LedgerTracker()
    passages = render_passages(instance)
    traj = Trajectory(instance_id=instance.id)
    events: list[LoopEvent] = []
    flags: list[str] = []

    try:
        for slot in range(1, cfg.max_steps + 1):
            if traj.terminated:
                break
            feedback: Feedback | None = None
            accepted: ReasoningStep | None = None
            last_step: ReasoningStep | None = None
            last_raw = ""
            previous_steps = render_trajectory(traj.steps)
            for attempt in range(cfg.max_retries + 1):
                prompt, resp = ask(
                    generator, "step_generation", cfg.generator_model,
                    question=instance.question,
                    passages=passages,
                    previous_steps=previous_steps,
                    feedback=_render_feedback(feedback),
                )
                tracker.record("generator", prompt, resp.usage)
                last_raw = resp.text
                events.append(LoopEvent("step_proposed", slot, attempt, detail=resp.text[:200]))
                try:
                    parsed = parse_step(resp.text, expected_index=slot)
                except StepFormatError as exc:
                    fb, rejection = _format_feedback_for(str(exc), slot), {"detail": exc.code.value}
                else:
                    step = parsed.step
                    if parsed.extra_lines:
                        flags.append(f"extra_step_lines_slot_{slot}")
                    fb, flag = None, ""
                    cited = step.cited_passage
                    if cited is not None and not 1 <= cited <= len(instance.passages):
                        fb = _citation_feedback(cited, len(instance.passages), slot)
                        rejection = {"detail": "cited_passage_out_of_range"}
                    else:
                        last_step = step
                        if cfg.mode is not FeedbackMode.NO_FEEDBACK:
                            fb, flag = _evaluate(
                                evaluator, evaluator_model, instance, passages, previous_steps,
                                step, tracker,
                            )
                        # An unusable evaluator verdict (no feedback, flagged)
                        # is accepted rather than burning retries on a fault
                        # the generator cannot fix.
                        if fb is None or fb.error_type is ErrorType.CORRECT:
                            if flag:
                                flags.append(flag)
                            accepted = step
                            events.append(LoopEvent("step_accepted", slot, attempt, detail=flag))
                            break
                        rejection = {"error_type": fb.error_type.value}
                feedback = fb
                events.append(
                    LoopEvent(
                        "feedback_given", slot, attempt,
                        detail=fb.diagnosis, error_type=fb.error_type.value,
                    )
                )
                events.append(LoopEvent("step_rejected", slot, attempt, **rejection))

            if accepted is None:
                events.append(LoopEvent("retry_exhausted", slot, cfg.max_retries))
                flags.append(f"retry_exhausted_slot_{slot}")
                accepted = last_step if last_step is not None else _synthesize_step(last_raw, slot)
            traj = Trajectory(traj.instance_id, traj.steps + (accepted,))

        answer = traj.answer
        if answer is None:
            answer = _force_answer(generator, cfg, instance, passages, traj, tracker)
            events.append(LoopEvent("answer_forced", len(traj.steps), detail=answer))
        events.append(LoopEvent("terminated", len(traj.steps), detail=answer))
    except TransportError as exc:  # backend hard failure: keep the partial record
        flags.append(f"aborted:{type(exc).__name__}")

    return RunRecord(
        config=cfg,
        trajectory=traj,
        events=tuple(events),
        ledger=tracker.ledger,
        flags=tuple(flags),
    )


def aggregate_runs(records: list[RunRecord]) -> dict:
    """Run counts and the merged ledger; every sum is over integers, so
    the aggregate does not depend on record order."""
    ledger = CacheLedger()
    for rec in records:
        ledger = ledger.merge(rec.ledger)
    return {
        "runs": len(records),
        "aborted": sum(1 for r in records if r.aborted),
        "retries": sum(r.retries for r in records),
        "generator_calls": sum(r.generator_calls for r in records),
        "evaluator_calls": sum(r.evaluator_calls for r in records),
        "ledger": ledger.to_dict(),
    }


def run_corpus(
    cfg: LoopConfig,
    instances: list[QAInstance],
    generator: Backend,
    evaluator: Backend | None = None,
    workers: int = 1,
) -> tuple[list[RunRecord], dict]:
    """Run every instance on a bounded worker pool; aggregate is
    order-independent and returned alongside the records (input order)."""
    if workers <= 1:
        records = [run_instance(cfg, inst, generator, evaluator) for inst in instances]
    else:
        # Imported here: single-worker runs never load the thread pool.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            records = list(
                pool.map(lambda inst: run_instance(cfg, inst, generator, evaluator), instances)
            )
    return records, aggregate_runs(records)
