import json
import random
import re
from dataclasses import astuple

import pytest
from hypothesis import given, settings, strategies as st

from hopcheck.data_model import (
    AnswerVerdict, Dataset, FeedbackMode, JudgeVerdict, Passage, QAInstance, write_jsonl,
)
from hopcheck.feedback_loop import (
    CacheLedger,
    LoopConfig,
    LoopEvent,
    RoleLedger,
    aggregate_runs,
    run_corpus,
    run_instance,
    _LedgerTracker,
    update_ledger,
)
from hopcheck.llm_client import ChatRequest, ChatResponse, ScriptedBackend, Usage
from hopcheck.metrics import score_delta, score_table
from hopcheck.step_grammar import StepKind
from hopcheck.textnorm import rough_token_count


def make_instance(iid="q1") -> QAInstance:
    passages = tuple(
        Passage(i, f"Title {i}", f"Body text for passage {i}.", i <= 2) for i in range(1, 11)
    )
    return QAInstance(iid, "Who did it?", passages, ("Paris",), Dataset.HOTPOTQA, 0)


def fifo(*texts):
    return ScriptedBackend(script=[ChatResponse(text=t) for t in texts])


def _correct():
    return json.dumps(
        {"error_type": "Correct", "diagnosis": "fine", "guidance": "continue"}
    )


def _prev_step_count(req: ChatRequest) -> int:
    # The template writes literal "Step K:"/"Step X:" so digits only come
    # from rendered previous steps.
    hits = re.findall(r"^Step (\d+):", req.messages[0].content, re.MULTILINE)
    return max((int(h) for h in hits), default=0)


def never_correct_evaluator(req: ChatRequest) -> ChatResponse:
    return ChatResponse(
        text=json.dumps(
            {"error_type": "Off-topic", "diagnosis": "always wrong", "guidance": "try again"}
        )
    )


def never_terminating_generator(req: ChatRequest) -> ChatResponse:
    nxt = _prev_step_count(req) + 1
    return ChatResponse(text=f"Step {nxt}: another inference about the question (Logical)")


def malformed_generator(req: ChatRequest) -> ChatResponse:
    return ChatResponse(text="I cannot structure my thoughts right now")


def test_happy_path_terminates_without_retries():
    cfg = LoopConfig(max_steps=10, max_retries=3, mode=FeedbackMode.EXTERNAL_FEEDBACK)
    generator = fifo(
        "Step 1: the suspect appears in passage 2 (Attribution)",
        "Step 2: the alibi appears in passage 1 (Attribution)",
        "Step 3: therefore the suspect did it (Logical)",
        "Step 4: ####ANSWER: Paris (Final Answer)",
    )
    evaluator = fifo(*[_correct()] * 4)
    rec = run_instance(cfg, make_instance(), generator, evaluator)
    assert rec.answer == "Paris"
    assert rec.trajectory.terminated
    assert rec.generator_calls == 4
    assert rec.evaluator_calls == 4
    assert rec.retries == 0
    assert not rec.aborted
    kinds = [e.kind for e in rec.events]
    assert kinds.count("step_accepted") == 4
    assert kinds[-1] == "terminated"


@pytest.mark.parametrize("k,n", [(7, 1), (10, 3), (13, 5)])
def test_budgets_never_correct_evaluator(k, n):
    cfg = LoopConfig(max_steps=k, max_retries=n)
    generator = ScriptedBackend(responder=never_terminating_generator)
    evaluator = ScriptedBackend(responder=never_correct_evaluator)
    rec = run_instance(cfg, make_instance(), generator, evaluator)
    assert rec.generator_calls <= k * (n + 1) + 1
    assert rec.evaluator_calls <= k * (n + 1)
    assert rec.generator_calls == k * (n + 1) + 1  # every slot exhausts + forced answer
    assert len(rec.trajectory.steps) == k
    assert rec.answer is not None
    assert sum(1 for e in rec.events if e.kind == "retry_exhausted") == k


@pytest.mark.parametrize("k,n", [(7, 1), (10, 3), (13, 5)])
def test_budgets_never_terminating_generator(k, n):
    cfg = LoopConfig(max_steps=k, max_retries=n)
    generator = ScriptedBackend(responder=never_terminating_generator)
    evaluator = ScriptedBackend(responder=lambda req: ChatResponse(text=_correct()))
    rec = run_instance(cfg, make_instance(), generator, evaluator)
    assert rec.generator_calls == k + 1  # K accepted steps + forced answer
    assert rec.evaluator_calls == k
    assert any(e.kind == "answer_forced" for e in rec.events)
    assert rec.answer is not None


@pytest.mark.parametrize("k,n", [(7, 1), (10, 3), (13, 5)])
def test_budgets_malformed_generator(k, n):
    cfg = LoopConfig(max_steps=k, max_retries=n)
    generator = ScriptedBackend(responder=malformed_generator)
    evaluator = ScriptedBackend(responder=lambda req: ChatResponse(text=_correct()))
    rec = run_instance(cfg, make_instance(), generator, evaluator)
    assert rec.generator_calls <= k * (n + 1) + 1
    assert rec.evaluator_calls <= k * (n + 1)
    assert rec.evaluator_calls == 0  # nothing parseable ever reaches the evaluator
    # every slot exhausts retries and accepts a synthesized step
    assert len(rec.trajectory.steps) == k
    assert all(s.kind is StepKind.LOGICAL for s in rec.trajectory.steps)
    assert all(f"retry_exhausted_slot_{s}" in rec.flags for s in range(1, k + 1))
    # malformed attempts produce synthetic procedural feedback
    fb_events = [e for e in rec.events if e.kind == "feedback_given"]
    assert fb_events and all(e.error_type == "Inefficiency" for e in fb_events)


@pytest.mark.parametrize("gen_fn,ev_fn", [
    (never_terminating_generator, never_correct_evaluator),
    (never_terminating_generator, lambda req: ChatResponse(text=_correct())),
    (malformed_generator, lambda req: ChatResponse(text=_correct())),
])
def test_call_counts_come_from_the_ledger(gen_fn, ev_fn):
    generator, evaluator = ScriptedBackend(responder=gen_fn), ScriptedBackend(responder=ev_fn)
    cfg = LoopConfig(max_steps=4, max_retries=2)
    rec = run_instance(cfg, make_instance(), generator, evaluator)
    assert rec.generator_calls == rec.ledger.generator.calls == generator.calls
    assert rec.evaluator_calls == rec.ledger.evaluator.calls == evaluator.calls


def test_retry_then_accept():
    cfg = LoopConfig(max_steps=3, max_retries=3)
    generator = fifo(
        "Step 1: guessing without looking (Logical)",
        "Step 1: the fact is in passage 2 (Attribution)",
        "Step 2: ####ANSWER: Paris (Final Answer)",
    )
    evaluator = fifo(
        json.dumps(
            {"error_type": "Unsupported", "diagnosis": "no source", "guidance": "cite"}
        ),
        _correct(),
        _correct(),
    )
    rec = run_instance(cfg, make_instance(), generator, evaluator)
    # inadmissible for Logical: Unsupported is attribution-only, so the
    # verdict is unusable and the step is accepted flagged
    assert any(f.startswith("evaluator_invalid") for f in rec.flags)

    evaluator = fifo(
        json.dumps(
            {"error_type": "Logical Fallacy", "diagnosis": "bad", "guidance": "cite first"}
        ),
        _correct(),
        _correct(),
    )
    generator = fifo(
        "Step 1: guessing without looking (Logical)",
        "Step 1: the fact is in passage 2 (Attribution)",
        "Step 2: ####ANSWER: Paris (Final Answer)",
    )
    rec = run_instance(cfg, make_instance(), generator, evaluator)
    assert rec.retries == 1
    assert rec.answer == "Paris"
    assert [s.kind for s in rec.trajectory.steps] == [StepKind.ATTRIBUTION, StepKind.FINAL_ANSWER]


def test_mode_none_skips_evaluator():
    cfg = LoopConfig(max_steps=5, max_retries=3, mode=FeedbackMode.NO_FEEDBACK)
    generator = fifo("Step 1: ####ANSWER: Paris (Final Answer)")
    evaluator = ScriptedBackend(script=[])  # would raise if called
    rec = run_instance(cfg, make_instance(), generator, evaluator)
    assert rec.answer == "Paris"
    assert rec.evaluator_calls == 0


def test_self_mode_forces_evaluator_model():
    # Self-feedback evaluates on the generator's backend under the
    # generator's model id, even with a separate evaluator configured.
    replies = iter(["Step 1: ####ANSWER: Paris (Final Answer)", _correct()])
    requests = []

    def generator(req):
        requests.append(req)
        return ChatResponse(text=next(replies))

    def evaluator(req):
        raise AssertionError("self mode sent a request to the evaluator backend")

    cfg = LoopConfig(
        max_steps=1, max_retries=0, mode=FeedbackMode.SELF_FEEDBACK,
        generator_model="m1", evaluator_model="m2",
    )
    rec = run_instance(
        cfg, make_instance(), ScriptedBackend(responder=generator), ScriptedBackend(responder=evaluator)
    )
    assert rec.answer == "Paris"
    assert rec.evaluator_calls == 1
    assert [r.model_id for r in requests] == ["m1", "m1"]
    assert "Precision Reasoning Evaluator" in requests[1].messages[0].content


@pytest.mark.parametrize("cited", [0, 11, 99])
@pytest.mark.parametrize("mode", list(FeedbackMode))
def test_out_of_range_citation_rejected_before_the_evaluator(mode, cited):
    bad = f"Step 1: the fact is in passage {cited} (Attribution)"
    good = "Step 1: the fact is in passage 2 (Attribution)"
    final = "Step 2: ####ANSWER: Paris (Final Answer)"
    generator, evaluator = {
        FeedbackMode.NO_FEEDBACK: (fifo(bad, good, final), fifo()),
        FeedbackMode.EXTERNAL_FEEDBACK: (fifo(bad, good, final), fifo(_correct(), _correct())),
        FeedbackMode.SELF_FEEDBACK: (fifo(bad, good, _correct(), final, _correct()), fifo()),
    }[mode]
    rec = run_instance(LoopConfig(max_steps=3, max_retries=1, mode=mode), make_instance(), generator, evaluator)
    assert not rec.aborted and rec.answer == "Paris"
    assert rec.evaluator_calls == (0 if mode is FeedbackMode.NO_FEEDBACK else 2)
    assert [(s.kind, s.cited_passage) for s in rec.trajectory.steps] == [
        (StepKind.ATTRIBUTION, 2), (StepKind.FINAL_ANSWER, None),
    ]
    given, rejected = [e for e in rec.events if e.kind in ("feedback_given", "step_rejected")]
    assert (given.kind, given.slot, given.attempt, given.error_type) == ("feedback_given", 1, 0, "Unsupported")
    assert f"cites passage {cited}," in given.detail
    assert (rejected.kind, rejected.slot, rejected.attempt, rejected.detail, rejected.error_type) == (
        "step_rejected", 1, 0, "cited_passage_out_of_range", ""
    )

    # The rejected step is not kept as the slot's last attempt.
    rec = run_instance(
        LoopConfig(max_steps=1, max_retries=0, mode=mode), make_instance(),
        fifo(bad, "####ANSWER: Paris"), fifo(),
    )
    assert not rec.aborted and rec.answer == "Paris"
    assert rec.trajectory.steps[0].kind is StepKind.LOGICAL
    assert rec.flags == ("retry_exhausted_slot_1",)


@pytest.mark.parametrize("raw, text", [
    ("Step 1: the fact is in passage 99 (Attribution)", "the fact is in passage 99"),
    ("  step 2 :  the fact\n is  in passage 99  ( logical ) ", "the fact is in passage 99"),
    ("Step 1: the fact is in passage 99", "the fact is in passage 99"),
    ("the fact is in passage 99 (Attribution)", "the fact is in passage 99"),
    ("Step 1: (Final Answer)", "(empty generator output)"),
    ("   ", "(empty generator output)"),
])
def test_synthesized_step_drops_the_completions_prefix_and_tag(raw, text):
    requests = []

    def generator(req):
        requests.append(req.messages[0].content)
        return ChatResponse(text=raw if len(requests) == 1 else "####ANSWER: Paris")

    rec = run_instance(
        LoopConfig(max_steps=1, max_retries=0, mode=FeedbackMode.NO_FEEDBACK),
        make_instance(), ScriptedBackend(responder=generator),
    )
    assert rec.flags == ("retry_exhausted_slot_1",) and rec.answer == "Paris"
    (step,) = rec.trajectory.steps
    assert (step.index, step.kind, step.text) == (1, StepKind.LOGICAL, text)
    # The forced-answer prompt renders the step once, with its own tag.
    assert f"\nStep 1: {text} (Logical)\n" in requests[1]
    assert requests[1].count("Step 1:") == 1


def test_config_validation():
    with pytest.raises(ValueError):
        LoopConfig(max_steps=0)
    with pytest.raises(ValueError):
        LoopConfig(max_retries=-1)
    with pytest.raises(ValueError):
        LoopEvent("exploded", 1)


def test_unusable_evaluator_verdict_accepts_flagged():
    cfg = LoopConfig(max_steps=2, max_retries=3)
    generator = fifo(
        "Step 1: a fact from passage 3 (Attribution)",
        "Step 2: ####ANSWER: Paris (Final Answer)",
    )
    evaluator = fifo("total garbage", _correct())
    rec = run_instance(cfg, make_instance(), generator, evaluator)
    assert rec.answer == "Paris"
    assert rec.retries == 0
    assert any(f.startswith("evaluator_unparseable") for f in rec.flags)


def test_backend_hard_failure_aborts_with_partial_record():
    cfg = LoopConfig(max_steps=5, max_retries=0)
    generator = fifo("Step 1: a fact from passage 3 (Attribution)")  # then exhausted
    evaluator = ScriptedBackend(responder=lambda req: ChatResponse(text=_correct()))
    rec = run_instance(cfg, make_instance(), generator, evaluator)
    assert rec.aborted
    assert rec.answer is None
    assert len(rec.trajectory.steps) == 1
    assert any(f.startswith("aborted:") for f in rec.flags)


def test_run_aborted_on_first_call_serializes_derived_fields():
    rec = run_instance(LoopConfig(), make_instance(), ScriptedBackend(script=[]))
    row = rec.to_dict()
    assert row["aborted"] is True
    assert row["flags"] == ["aborted:TransportError"]
    assert row["answer"] is None and row["steps"] == []
    assert row["generator_calls"] == rec.ledger.generator.calls == 0
    assert row["evaluator_calls"] == rec.ledger.evaluator.calls == 0


def test_programming_error_in_backend_propagates():
    def broken(req):
        raise KeyError("choices")

    with pytest.raises(KeyError):
        run_instance(LoopConfig(), make_instance(), ScriptedBackend(responder=broken))


def test_update_ledger_reported_counts_win():
    totals = [0] * 5
    update_ledger(totals, Usage(100, 40, 10), prefix_estimate=999)
    ledger = CacheLedger(generator=RoleLedger(*totals))
    assert ledger.generator.total_prompt_tokens == 100
    assert ledger.generator.cached_prompt_tokens == 40
    assert ledger.generator.completion_tokens == 10
    assert ledger.generator.estimated_calls == 0
    assert ledger.generator.computed_prompt_tokens == 60


def test_update_ledger_estimates_when_unreported():
    totals = [0] * 5
    update_ledger(totals, Usage(0, 0, 5), prefix_estimate=30, prompt_estimate=80)
    ledger = CacheLedger(evaluator=RoleLedger(*totals))
    role = ledger.evaluator
    assert role.total_prompt_tokens == 80
    assert role.cached_prompt_tokens == 30
    assert role.estimated_calls == 1
    # conservation: cached + computed == total, always
    assert role.cached_prompt_tokens + role.computed_prompt_tokens == role.total_prompt_tokens
    # cached estimate is clamped to the total
    totals = [0] * 5
    update_ledger(totals, Usage(0, 0, 0), prefix_estimate=500, prompt_estimate=80)
    clamped = CacheLedger(evaluator=RoleLedger(*totals))
    assert clamped.evaluator.cached_prompt_tokens == 80


def test_ledger_zero_calls_flagged_undefined():
    role = RoleLedger()
    assert role.savings == 0.0
    assert role.to_dict()["savings_undefined"] is True
    with pytest.raises(ValueError):
        RoleLedger(total_prompt_tokens=1, cached_prompt_tokens=2)


def test_ledger_savings_percent_rounding():
    role = RoleLedger(total_prompt_tokens=43800000, cached_prompt_tokens=32940000)
    assert role.savings_percent == 75.2
    assert role.computed_prompt_tokens == 10860000


def test_run_ledger_accumulates_per_role():
    cfg = LoopConfig(max_steps=2, max_retries=0)
    generator = fifo(
        "Step 1: a fact from passage 3 (Attribution)",
        "Step 2: ####ANSWER: Paris (Final Answer)",
    )
    evaluator = fifo(_correct(), _correct())
    rec = run_instance(cfg, make_instance(), generator, evaluator)
    assert rec.ledger.generator.calls == 2
    assert rec.ledger.evaluator.calls == 2
    assert rec.ledger.generator.estimated_calls == 2  # scripted backend reports no usage
    assert rec.ledger.generator.total_prompt_tokens > 0
    # the second prompt shares the long static prefix with the first
    assert rec.ledger.generator.cached_prompt_tokens > 0
    overall = rec.ledger.overall
    assert overall.calls == 4


_ROLE_LEDGER = st.integers(0, 10**6).flatmap(
    lambda total: st.builds(
        RoleLedger,
        total_prompt_tokens=st.just(total),
        cached_prompt_tokens=st.integers(0, total),
        completion_tokens=st.integers(0, 10**6),
        calls=st.integers(0, 999),
        estimated_calls=st.integers(0, 999),
    )
)


@given(_ROLE_LEDGER, _ROLE_LEDGER, _ROLE_LEDGER, _ROLE_LEDGER)
def test_ledger_sums_are_fieldwise(a, b, c, d):
    assert astuple(a + b) == tuple(x + y for x, y in zip(astuple(a), astuple(b)))
    assert CacheLedger(a, b).overall == a + b
    assert CacheLedger(a, b).merge(CacheLedger(c, d)) == CacheLedger(a + c, b + d)


class _ReferenceTracker:
    """Slow ledger oracle: a character-by-character prefix scan against the
    role's previous prompt and a full rough_token_count of each prompt."""

    def __init__(self) -> None:
        self.totals = {"generator": [0] * 5, "evaluator": [0] * 5}
        self.last: dict[str, str] = {}

    @property
    def ledger(self) -> CacheLedger:
        return CacheLedger(*(RoleLedger(*self.totals[role]) for role in ("generator", "evaluator")))

    def record(self, role, prompt, usage) -> None:
        previous = self.last.get(role, "")
        i = 0
        while i < min(len(previous), len(prompt)) and previous[i] == prompt[i]:
            i += 1
        update_ledger(
            self.totals[role], usage,
            prefix_estimate=rough_token_count(prompt[:i]),
            prompt_estimate=rough_token_count(prompt),
        )
        self.last[role] = prompt


# Word characters (ASCII, non-ASCII letters and digits, underscore), spaces
# and non-word characters, including a combining accent.
_PROMPT_TEXT = st.text(alphabet="abZ09_éßЖ中٣² \n.,(#\u0301", max_size=30)
_USAGE = st.one_of(
    st.builds(Usage, completion_tokens=st.integers(0, 9)),
    st.builds(Usage, prompt_tokens=st.integers(1, 400), completion_tokens=st.integers(0, 9)),
    st.integers(1, 400).flatmap(
        lambda total: st.builds(
            Usage, prompt_tokens=st.just(total),
            cached_prompt_tokens=st.integers(1, total), completion_tokens=st.integers(0, 9),
        )
    ),
)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_ledger_tracker_matches_reference(data):
    tracker, reference = _LedgerTracker(), _ReferenceTracker()
    for _ in range(data.draw(st.integers(1, 12), label="calls")):
        role = data.draw(st.sampled_from(("generator", "evaluator")), label="role")
        # Each prompt keeps a random prefix (cut anywhere, including inside
        # a word) of the role's previous prompt and appends a fresh tail.
        base = reference.last.get(role) or data.draw(_PROMPT_TEXT, label="seed")
        keep = data.draw(st.integers(0, len(base)), label="keep")
        prompt = base[:keep] + data.draw(_PROMPT_TEXT, label="tail")
        usage = data.draw(_USAGE, label="usage")
        tracker.record(role, prompt, usage)
        reference.record(role, prompt, usage)
        assert tracker.ledger == reference.ledger


def test_score_delta():
    assert score_delta(76.7, 85.1) == 8.4
    assert score_delta(50.0, 48.25) == -1.8


def test_aggregate_runs_order_invariant():
    cfg = LoopConfig(max_steps=2, max_retries=1, mode=FeedbackMode.EXTERNAL_FEEDBACK)
    records = []
    for iid, replies in (
        ("a", ["Step 1: ####ANSWER: Paris (Final Answer)", _correct()]),
        ("b", ["no step here", "Step 1: ####ANSWER: Paris (Final Answer)", _correct()]),
        ("c", ["Step 1: ####ANSWER: Paris (Final Answer)", _correct()]),
    ):
        records.append(run_instance(cfg, make_instance(iid), fifo(*replies)))
    agg = aggregate_runs(records)
    shuffled = records[:]
    random.Random(3).shuffle(shuffled)
    assert aggregate_runs(shuffled) == agg
    assert agg["runs"] == 3
    assert agg["retries"] == 1
    assert agg["generator_calls"] == 4 and agg["evaluator_calls"] == 3


def test_score_table_per_dataset_and_delta():
    correct, wrong = JudgeVerdict.CORRECT, JudgeVerdict.WRONG
    pairs = [
        ("hotpotqa", AnswerVerdict(em=1, f1=1.0, judge=correct)),
        ("hotpotqa", AnswerVerdict(em=0, f1=0.5, judge=wrong)),
        ("musique", AnswerVerdict(em=1, f1=1.0, judge=correct)),
    ]
    table = score_table(pairs, baseline_mean=50.0)
    assert table["hotpotqa"]["f1"] == 0.75
    assert table["musique"]["em"] == 1.0
    assert table["average"]["acc"] == round(2 / 3, 4)
    assert table["average"]["delta_vs_baseline"] == round(200 / 3 - 50.0, 1)


def test_run_corpus_parallel_matches_serial():
    cfg = LoopConfig(max_steps=2, max_retries=0, mode=FeedbackMode.NO_FEEDBACK)
    instances = [make_instance(f"q{i}") for i in range(4)]
    gen = ScriptedBackend(
        responder=lambda req: ChatResponse(text="Step 1: ####ANSWER: Paris (Final Answer)")
    )
    serial, agg1 = run_corpus(cfg, instances, gen, workers=1)
    parallel, agg2 = run_corpus(cfg, instances, gen, workers=3)
    assert [r.instance_id for r in parallel] == [r.instance_id for r in serial]
    assert [r.answer for r in parallel] == [r.answer for r in serial]
    assert agg1 == agg2


def test_write_runs_jsonl(tmp_path):
    cfg = LoopConfig(max_steps=1, max_retries=0, mode=FeedbackMode.NO_FEEDBACK)
    rec = run_instance(cfg, make_instance(), fifo("Step 1: ####ANSWER: x (Final Answer)"))
    path = tmp_path / "runs.jsonl"
    write_jsonl(path, [rec.to_dict()])
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    row = json.loads(lines[0])
    assert row["instance_id"] == "q1"
    assert row["answer"] == "x"
    assert row["events"][-1]["kind"] == "terminated"
