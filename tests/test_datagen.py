import json
import re

import pytest

from hopcheck.data_model import Dataset, Passage, QAInstance, write_jsonl
from hopcheck.datagen import (
    DEFAULT_ERROR_QUOTAS,
    DatagenError,
    DatasetConfig,
    PlanError,
    Provenance,
    QuotaInfeasibleError,
    TrainingExample,
    build_dataset,
    generate_ideal,
    generate_plan,
    ideal_example,
    import_refined,
    inject_error,
    parse_plan,
)
from hopcheck.llm_client import ChatRequest, ChatResponse, ScriptedBackend
from hopcheck.step_grammar import ReasoningStep, StepKind, Trajectory
from hopcheck.taxonomy import ErrorType, Feedback, admissible_errors


def make_instance(iid="q1", n_gold=4) -> QAInstance:
    passages = tuple(
        Passage(i, f"Title {i}", f"Body text for passage {i}.", i <= n_gold)
        for i in range(1, 11)
    )
    return QAInstance(
        iid, f"Which came first, X of {iid} or Y?", passages, ("X",), Dataset.TWOWIKI, 0
    )


def make_trajectory(iid="q1", n_attr=4) -> Trajectory:
    steps = [
        ReasoningStep(i, StepKind.ATTRIBUTION, f"fact {i} from passage {i}", cited_passage=i)
        for i in range(1, n_attr + 1)
    ]
    steps.append(ReasoningStep(n_attr + 1, StepKind.LOGICAL, "comparing the dates, X came first"))
    return Trajectory(instance_id=iid, steps=tuple(steps))


def fifo(*texts):
    return ScriptedBackend(script=[ChatResponse(text=t) for t in texts])


PLAN_TEXT = (
    "[Step 1: Identify the director of Film A (Attribution), "
    "Step 2: Identify the director of Film B (Attribution), "
    "Step 3: Find the birth date of director A (Attribution), "
    "Step 4: Find the birth date of director B (Attribution), "
    "Step 5: Compare the two birth dates to decide (Logical)]"
)


def test_parse_plan_happy_path():
    plan = parse_plan("Here is my plan:\n" + PLAN_TEXT)
    assert len(plan.steps) == 5
    assert [s.kind for s in plan.steps] == [StepKind.ATTRIBUTION] * 4 + [StepKind.LOGICAL]
    assert plan.steps[0].text.startswith("Identify the director")
    assert "Step 5:" in plan.render()


def test_parse_plan_rejections():
    with pytest.raises(PlanError, match="bracketed"):
        parse_plan("Step 1: no brackets (Logical)")
    with pytest.raises(PlanError, match="tag"):
        parse_plan("[Step 1: untagged step]")
    with pytest.raises(PlanError, match="end with"):
        parse_plan("[Step 1: Find the director of Film A (Attribution)]")
    with pytest.raises(PlanError, match="numbering"):
        parse_plan("[Step 1: Find A (Attribution), Step 3: Conclude (Logical)]")
    with pytest.raises(PlanError, match="combines"):
        parse_plan(
            "[Step 1: Find the director and his birth date (Attribution), "
            "Step 2: Conclude (Logical)]"
        )


def test_generate_plan_selects_dataset_prompt():
    seen = []

    def responder(req: ChatRequest) -> ChatResponse:
        seen.append(req.messages[0].content)
        return ChatResponse(text=PLAN_TEXT)

    backend = ScriptedBackend(responder=responder)
    generate_plan(backend, "Which?", Dataset.MUSIQUE, decomposition="sub-q1; sub-q2")
    assert "sub-q1; sub-q2" in seen[-1]
    generate_plan(backend, "Which?", Dataset.TWOWIKI)
    assert "sub-q1" not in seen[-1]


def _ideal_json(n_attr=4, bad_cite=None, drop_last=False):
    items = []
    for i in range(1, n_attr + 1):
        cite = bad_cite if (bad_cite and i == 1) else i
        items.append(
            {"step": f"Step {i}: fact {i} from passage {cite} (Attribution)",
             "supporting_index": cite}
        )
    if not drop_last:
        items.append({"step": f"Step {n_attr + 1}: comparing dates, X came first (Logical)"})
    return json.dumps(items)


def _plan(n_attr=4):
    steps = ", ".join(
        f"Step {i}: Find fact {i} (Attribution)" for i in range(1, n_attr + 1)
    )
    return parse_plan(f"[{steps}, Step {n_attr + 1}: Compare and decide (Logical)]")


def test_generate_ideal_happy_path():
    traj = generate_ideal(fifo(_ideal_json()), make_instance(), _plan())
    assert len(traj.steps) == 5
    assert not traj.terminated
    assert traj.steps[0].cited_passage == 1


def test_generate_ideal_rejects_non_gold_citation():
    with pytest.raises(DatagenError, match="not gold"):
        generate_ideal(fifo(_ideal_json(bad_cite=9)), make_instance(), _plan())


def test_generate_ideal_rejects_count_mismatch():
    with pytest.raises(DatagenError, match="expected 5 steps"):
        generate_ideal(fifo(_ideal_json(drop_last=True)), make_instance(), _plan())


def test_generate_ideal_rejects_kind_mismatch():
    items = json.loads(_ideal_json())
    items[0]["step"] = "Step 1: an inference instead (Logical)"
    with pytest.raises(DatagenError, match="does not match plan"):
        generate_ideal(fifo(json.dumps(items)), make_instance(), _plan())


def test_generate_ideal_rejects_unparseable():
    with pytest.raises(DatagenError, match="not parseable"):
        generate_ideal(fifo("no json"), make_instance(), _plan())


def corrupting_teacher(req: ChatRequest) -> ChatResponse:
    """Replays the ideal step at the target position with a corrupted body."""
    content = req.messages[0].content
    target = int(re.search(r"Target Step to Corrupt: Step (\d+)", content).group(1))
    line = re.search(rf"^Step {target}: .*$", content, re.MULTILINE).group(0)
    return ChatResponse(text=line.replace(f"Step {target}: ", f"Step {target}: wrongly, ", 1))


def test_inject_error_produces_corrupted_example():
    instance, traj = make_instance(), make_trajectory()
    backend = ScriptedBackend(responder=corrupting_teacher)
    ex = inject_error(backend, instance, traj, 2, ErrorType.CONTRADICTORY)
    assert ex.provenance is Provenance.INJECTED
    assert ex.injected_error is ErrorType.CONTRADICTORY
    assert ex.error_position == 2
    assert ex.current_step.kind is StepKind.ATTRIBUTION
    assert ex.current_step != traj.steps[1]
    assert ex.prior_steps == traj.steps[:1]
    assert ex.target.error_type is ErrorType.CONTRADICTORY


def test_inject_error_admissibility_checked_upfront():
    instance, traj = make_instance(), make_trajectory()
    backend = ScriptedBackend(script=[])  # must not be called
    with pytest.raises(DatagenError, match="inadmissible"):
        inject_error(backend, instance, traj, 5, ErrorType.CONTRADICTORY)  # Logical step
    with pytest.raises(DatagenError, match="Correct"):
        inject_error(backend, instance, traj, 1, ErrorType.CORRECT)
    with pytest.raises(DatagenError, match="out of range"):
        inject_error(backend, instance, traj, 9, ErrorType.REDUNDANCY)
    assert backend.calls == 0


def test_inject_error_rejects_unchanged_or_rekinded_step():
    instance, traj = make_instance(), make_trajectory()
    unchanged = ScriptedBackend(
        responder=lambda req: ChatResponse(
            text="Step 2: fact 2 from passage 2 (Attribution)"
        )
    )
    with pytest.raises(DatagenError, match="unchanged"):
        inject_error(unchanged, instance, traj, 2, ErrorType.REDUNDANCY)
    rekinded = ScriptedBackend(
        responder=lambda req: ChatResponse(text="Step 2: now an inference (Logical)")
    )
    with pytest.raises(DatagenError, match="kind"):
        inject_error(rekinded, instance, traj, 2, ErrorType.REDUNDANCY)


def test_training_example_invariants():
    instance, traj = make_instance(), make_trajectory()
    ex = ideal_example(instance, traj, 3)
    assert ex.target.error_type is ErrorType.CORRECT
    assert ex.provenance is Provenance.IDEAL

    fb = Feedback(ErrorType.CONTRADICTORY, "d", "g")
    with pytest.raises(ValueError, match="inadmissible"):
        TrainingExample(
            instance=instance,
            prior_steps=traj.steps[:4], current_step=traj.steps[4],  # Logical step
            target=fb, provenance=Provenance.REFINED,
        )
    correct = Feedback(ErrorType.CORRECT, "d", "g")
    with pytest.raises(ValueError, match="Injected examples cannot target Correct"):
        TrainingExample(
            instance=instance,
            prior_steps=(), current_step=traj.steps[0],
            target=correct, provenance=Provenance.INJECTED,
        )
    with pytest.raises(ValueError, match="Correct"):
        TrainingExample(
            instance=instance,
            prior_steps=(), current_step=traj.steps[0],
            target=fb, provenance=Provenance.IDEAL,
        )


def test_import_refined():
    instance = make_instance()
    record = {
        "instance_id": "q1",
        "position": 2,
        "step": "Step 2: a dubious fact from passage 3 (Attribution)",
        "previous_steps": ["Step 1: a prior fact from passage 1 (Attribution)"],
        "feedback": {
            "error_type": "Unsupported",
            "diagnosis": "the passage never says that",
            "guidance": "re-read passage 3",
        },
    }
    ex = import_refined(record, {"q1": instance})
    assert ex.provenance is Provenance.REFINED
    assert ex.target.error_type is ErrorType.UNSUPPORTED
    assert len(ex.prior_steps) == 1

    with pytest.raises(DatagenError):
        import_refined({**record, "instance_id": "missing"}, {"q1": instance})
    with pytest.raises(DatagenError):
        import_refined({**record, "step": "not a step"}, {"q1": instance})
    prior = record["previous_steps"]
    for bad in (
        {"feedback": "Unsupported"},
        {"previous_steps": ["not a step"]},
        {"previous_steps": []},
        {"previous_steps": prior + ["Step 2: one more (Logical)", "Step 3: and more (Logical)"]},
    ):
        with pytest.raises(DatagenError, match="refined record invalid"):
            import_refined({**record, **bad}, {"q1": instance})


def test_train_rows_render_derived_fields():
    instance, traj = make_instance(), make_trajectory()
    shared = {
        "question": "Which came first, X of q1 or Y?",
        "passages": "\n\n".join(
            f"Passage {i} (Title {i}): Body text for passage {i}." for i in range(1, 11)
        ),
        "previous_steps": "Step 1: fact 1 from passage 1 (Attribution)",
        "instance_id": "q1",
        "dataset": "2wiki",
    }
    ideal = ideal_example(instance, traj, 2)
    injected = inject_error(
        ScriptedBackend(responder=corrupting_teacher), instance, traj, 2, ErrorType.CONTRADICTORY
    )
    refined = import_refined(
        {
            "instance_id": "q1",
            "position": 2,
            "step": "Step 2: a dubious fact from passage 3 (Attribution)",
            "previous_steps": ["Step 1: fact 1 from passage 1 (Attribution)"],
            "feedback": {"error_type": "Unsupported", "diagnosis": "d", "guidance": "g"},
        },
        {"q1": instance},
    )
    assert ideal.to_dict() == {
        **shared,
        "current_step": "Step 2: fact 2 from passage 2 (Attribution)",
        "feedback": {
            "error_type": "Correct",
            "diagnosis": "Step 2 is a correct atomic operation grounded in the evidence.",
            "guidance": "Proceed with the next atomic reasoning step.",
        },
        "provenance": "Ideal",
        "injected_error": None,
        "error_position": 2,
    }
    assert injected.to_dict() == {
        **shared,
        "current_step": "Step 2: wrongly, fact 2 from passage 2 (Attribution)",
        "feedback": {
            "error_type": "Contradictory",
            "diagnosis": (
                "Step 2 commits a Contradictory error: "
                "States the opposite of what the cited passage says."
            ),
            "guidance": "Redo step 2 as a single correct operation toward the answer.",
        },
        "provenance": "Injected",
        "injected_error": "Contradictory",
        "error_position": 2,
    }
    assert refined.to_dict() == {
        **shared,
        "current_step": "Step 2: a dubious fact from passage 3 (Attribution)",
        "feedback": {"error_type": "Unsupported", "diagnosis": "d", "guidance": "g"},
        "provenance": "Refined",
        "injected_error": None,
        "error_position": 2,
    }


def test_build_dataset_quotas_and_manifest():
    pool = [(make_instance(f"q{i}"), make_trajectory(f"q{i}")) for i in range(3)]
    config = DatasetConfig(total=100)
    backend = ScriptedBackend(responder=corrupting_teacher)
    examples, manifest = build_dataset(backend, pool, config)
    assert len(examples) == 100
    assert manifest["total"] == 100
    n_ideal = manifest["by_provenance"]["Ideal"]
    assert n_ideal == round(100 * 0.34)
    assert manifest["by_provenance"]["Injected"] == 100 - n_ideal
    hist = manifest["error_type_histogram"]
    weights = dict(DEFAULT_ERROR_QUOTAS)
    n_injected = 100 - n_ideal
    for error, weight in weights.items():
        assert abs(hist[error.value] - weight * n_injected) <= 1, error
    assert hist["Correct"] == n_ideal
    # every position bucket 1..5 covered
    assert set(manifest["error_position_histogram"]) == {"1", "2", "3", "4", "5"}
    assert manifest["unique_questions_total"] == 3
    # every example's target is admissible for its step kind (enforced at
    # construction, re-checked here)
    for ex in examples:
        if ex.target.error_type is not ErrorType.CORRECT:
            assert ex.target.error_type in admissible_errors(ex.current_step.kind)


def test_build_dataset_empty_pool():
    with pytest.raises(QuotaInfeasibleError):
        build_dataset(ScriptedBackend(script=[]), [], DatasetConfig(total=10))


def test_build_dataset_infeasible_quota():
    # trajectory with only Logical steps cannot host Attribution errors
    steps = (
        ReasoningStep(1, StepKind.LOGICAL, "think"),
        ReasoningStep(2, StepKind.LOGICAL, "conclude"),
    )
    pool = [(make_instance(), Trajectory("q1", steps))]
    config = DatasetConfig(total=10, ideal_fraction=0.0)
    with pytest.raises(QuotaInfeasibleError):
        build_dataset(ScriptedBackend(responder=corrupting_teacher), pool, config)


def test_build_dataset_with_refined_records():
    pool = [(make_instance(), make_trajectory())]
    refined = [
        import_refined({
            "instance_id": "q1",
            "position": 1,
            "step": "Step 1: a dubious fact from passage 2 (Attribution)",
            "feedback": {"error_type": "Unsupported", "diagnosis": "d", "guidance": "g"},
        }, {"q1": pool[0][0]})
    ]
    config = DatasetConfig(total=3, ideal_fraction=1.0)
    examples, manifest = build_dataset(ScriptedBackend(script=[]), pool, config, refined)
    assert manifest["by_provenance"] == {"Ideal": 3, "Refined": 1}


def test_dataset_config_validation():
    with pytest.raises(ValueError):
        DatasetConfig(total=0)
    with pytest.raises(ValueError):
        DatasetConfig(total=1, ideal_fraction=1.5)


def test_write_train_jsonl(tmp_path):
    instance, traj = make_instance(), make_trajectory()
    examples = [ideal_example(instance, traj, 1)]
    path = tmp_path / "train.jsonl"
    write_jsonl(path, (ex.to_dict() for ex in examples))
    row = json.loads(path.read_text().splitlines()[0])
    assert row["provenance"] == "Ideal"
    assert row["feedback"]["error_type"] == "Correct"
    assert row["current_step"].startswith("Step 1:")
