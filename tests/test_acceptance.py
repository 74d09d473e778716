"""Acceptance gate: one pass/fail line per criterion.

Each test prints exactly one line, PASS or FAIL, naming the property it
locks down; the assertions carry the details.
"""

import itertools
import json
import random
import time
from contextlib import contextmanager

import pytest

from hopcheck.cli import main
from hopcheck.datagen import DatasetConfig, build_dataset
from hopcheck.data_model import AnswerVerdict, JudgeVerdict
from hopcheck.extraction_pipeline import NoiseStats, verify_instance
from hopcheck.feedback_loop import (
    CacheLedger,
    LoopConfig,
    RoleLedger,
    RunRecord,
    run_instance,
    update_ledger,
)
from hopcheck.kg_graph import find_grounded_path
from hopcheck.llm_client import ChatResponse, ScriptedBackend, Usage
from hopcheck.metrics import exact_match, score_table, token_f1
from hopcheck.step_grammar import (
    ReasoningStep,
    StepErrorCode,
    StepFormatError,
    StepKind,
    parse_step,
    render_step,
)
from hopcheck.taxonomy import ErrorType, admissible_errors

from fixture_utils import FIXTURES, build_instance, build_verify_backend, load_noise_fixtures
from kg_random import random_case
from path_oracle import oracle_is_valid
from taxonomy_reference import reference_evaluate
from test_datagen import corrupting_teacher, make_trajectory
from test_datagen import make_instance as make_datagen_instance
from test_feedback_loop import (
    make_instance,
    malformed_generator,
    never_correct_evaluator,
    never_terminating_generator,
)
from test_step_grammar import random_valid_step


@contextmanager
def criterion(name: str):
    try:
        yield
    except BaseException:
        print(f"FAIL: {name}")
        raise
    print(f"PASS: {name}")


def test_path_discovery_oracle_equivalence():
    with criterion("path-discovery matches the brute-force oracle on 1000 random KGs"):
        rng = random.Random(20260823)
        start = time.monotonic()
        mismatches = 0
        for _ in range(1000):
            kg, entities, answer = random_case(rng)
            got = find_grounded_path(kg, entities, answer).is_valid
            want = oracle_is_valid(kg, entities, answer)
            mismatches += got != want
        elapsed = time.monotonic() - start
        assert mismatches == 0
        assert elapsed < 60.0


def test_noise_fixture_golden_labels():
    with criterion("frozen extraction fixtures reproduce the expected noise labels"):
        fixtures = load_noise_fixtures()
        for record in fixtures["grounded"]:
            report = verify_instance(build_verify_backend(record), build_instance(record))
            assert report.noise_label is not None
            assert report.noise_label.value == "Grounded", record["id"]
        noise_labels = []
        for record in fixtures["noise"]:
            report = verify_instance(build_verify_backend(record), build_instance(record))
            assert report.noise_label is not None
            noise_labels.append(report.noise_label.value)
            assert report.noise_label.value == record["expected_label"], record["id"]
        assert noise_labels == [
            "MissingEvidence", "EntityConflation", "MissingEvidence", "WrongAnswer",
        ]


def _step_of(kind: StepKind) -> ReasoningStep:
    if kind is StepKind.ATTRIBUTION:
        return ReasoningStep(1, kind, "fact from passage 2", cited_passage=2)
    if kind is StepKind.FINAL_ANSWER:
        return ReasoningStep(1, kind, "####ANSWER: x", answer_value="x")
    return ReasoningStep(1, kind, "inference")


def test_protocol_priority_exhaustive():
    with criterion("evaluation protocol returns the priority-minimal error over all subsets"):
        for kind in StepKind:
            order = admissible_errors(kind)[:-1]
            step = _step_of(kind)
            for r in range(len(order) + 1):
                for failing in itertools.combinations(order, r):
                    checks = {et: (lambda s, p, hit=(et in failing): hit) for et in order}
                    verdict = reference_evaluate(checks, step)
                    expected = next((et for et in order if et in failing), ErrorType.CORRECT)
                    assert verdict.error_type is expected, (kind, failing)


def test_loop_budgets_under_adversarial_backends():
    with criterion("adversarial backends never exceed the K(N+1)+1 generator budget"):
        adversaries = (
            ("never-correct evaluator", never_terminating_generator, never_correct_evaluator),
            ("never-terminating generator", never_terminating_generator,
             lambda req: ChatResponse(text=json.dumps(
                 {"error_type": "Correct", "diagnosis": "d", "guidance": "g"}))),
            ("malformed generator", malformed_generator,
             lambda req: ChatResponse(text=json.dumps(
                 {"error_type": "Correct", "diagnosis": "d", "guidance": "g"}))),
        )
        for k, n in ((7, 1), (10, 3), (13, 5)):
            cfg = LoopConfig(max_steps=k, max_retries=n)
            for name, gen_fn, ev_fn in adversaries:
                rec = run_instance(
                    cfg,
                    make_instance(),
                    ScriptedBackend(responder=gen_fn),
                    ScriptedBackend(responder=ev_fn),
                )
                assert isinstance(rec, RunRecord), (k, n, name)
                assert not rec.aborted, (k, n, name)
                assert rec.generator_calls <= k * (n + 1) + 1, (k, n, name)
                assert rec.evaluator_calls <= k * (n + 1), (k, n, name)
                assert rec.answer is not None, (k, n, name)


def test_cache_ledger_savings():
    with criterion("cache ledger reproduces 75.2/95.0/89.0% savings within 0.05pp"):
        # Unrounded token counts consistent with the published rounded
        # millions: generator 43.8M total / 32.94M cached, evaluator
        # 100.4M total / 95.4M cached.
        generator, evaluator = [0] * 5, [0] * 5
        update_ledger(
            generator,
            Usage(prompt_tokens=43_800_000, cached_prompt_tokens=32_940_000),
            prefix_estimate=0,
        )
        update_ledger(
            evaluator,
            Usage(prompt_tokens=100_400_000, cached_prompt_tokens=95_400_000),
            prefix_estimate=0,
        )
        ledger = CacheLedger(RoleLedger(*generator), RoleLedger(*evaluator))
        assert abs(100 * ledger.generator.savings - 75.2) <= 0.05
        assert abs(100 * ledger.evaluator.savings - 95.0) <= 0.05
        assert abs(100 * ledger.overall.savings - 89.0) <= 0.05
        assert ledger.generator.computed_prompt_tokens == 10_860_000
        assert ledger.evaluator.computed_prompt_tokens == 5_000_000


def test_noise_statistics_reproduction():
    with criterion("corpus noise ratios reproduce the six published percentages"):
        published = (
            (167_454, 7_452, 4.45),
            (12_576, 901, 7.16),
            (90_447, 2_376, 2.63),
            (7_345, 227, 3.09),
            (19_902, 2_149, 10.80),
            (2_412, 342, 14.18),
        )
        fixtures = load_noise_fixtures()
        grounded = verify_instance(
            build_verify_backend(fixtures["grounded"][0]),
            build_instance(fixtures["grounded"][0]),
        )
        noisy = verify_instance(
            build_verify_backend(fixtures["noise"][0]),
            build_instance(fixtures["noise"][0]),
        )
        noisy_row, grounded_row = noisy.to_dict(), grounded.to_dict()
        for total, bad, percent in published:
            rows = [noisy_row] * bad + [grounded_row] * (total - bad)
            stats = NoiseStats.from_labels(row["noise_label"] for row in rows)
            assert stats.total == total and stats.noisy == bad
            assert stats.percent == percent, (total, bad)
            assert NoiseStats(total=total, noisy=bad).percent == percent


def test_aggregate_delta():
    with criterion("aggregate accuracy delta between run sets is +8.4 points exactly"):
        correct = AnswerVerdict(em=1, f1=1.0, judge=JudgeVerdict.CORRECT)
        wrong = AnswerVerdict(em=0, f1=0.0, judge=JudgeVerdict.WRONG)
        pairs = [("hotpotqa", correct)] * 851 + [("hotpotqa", wrong)] * 149
        table = score_table(pairs, baseline_mean=76.7)
        assert table["average"]["acc"] == 0.851
        assert table["average"]["delta_vs_baseline"] == 8.4


def test_grammar_round_trip_and_forbidden_formats():
    with criterion("10000 rendered steps re-parse byte-identically; bad formats get distinct codes"):
        rng = random.Random(7)
        for _ in range(10_000):
            step = random_valid_step(rng, rng.randint(1, 13))
            rendered = render_step(step)
            parsed = parse_step(rendered, step.index)
            assert parsed.step == step
            assert render_step(parsed.step) == rendered
        forbidden = (
            ("Step 1: passage 2 and passage 5 agree (Attribution)",
             StepErrorCode.MULTI_CITATION),
            ("Step 1: a statement with no kind tag", StepErrorCode.MISSING_TAG),
            ("Step 1: the answer is Paris (Final Answer)",
             StepErrorCode.MISSING_ANSWER_MARKER),
        )
        codes = set()
        for raw, expected in forbidden:
            with pytest.raises(StepFormatError) as exc:
                parse_step(raw, 1)
            assert exc.value.code == expected
            codes.add(exc.value.code)
        assert len(codes) == 3


def test_datagen_integrity_500():
    with criterion("500-example synthesis keeps admissibility, single corruption, full position coverage"):
        pool = [
            (make_datagen_instance(f"q{i}"), make_trajectory(f"q{i}")) for i in range(3)
        ]
        backend = ScriptedBackend(responder=corrupting_teacher)
        examples, manifest = build_dataset(backend, pool, DatasetConfig(total=500))
        assert manifest["total"] == 500
        trajectories = {inst.id: traj for inst, traj in pool}
        for ex in examples:
            if ex.target.error_type is not ErrorType.CORRECT:
                assert ex.target.error_type in admissible_errors(ex.current_step.kind)
            if ex.provenance.value == "Injected":
                source = trajectories[ex.instance.id]
                pos = ex.error_position
                # exactly one corrupted step: the prefix is untouched and
                # only the target step differs from the source trajectory
                assert ex.prior_steps == source.steps[: pos - 1]
                assert ex.current_step != source.steps[pos - 1]
                assert ex.current_step.index == pos
        positions = manifest["error_position_histogram"]
        assert all(positions.get(str(p), 0) > 0 for p in range(1, 6))


def test_metrics_em_f1():
    with criterion("token F1 equals 2/3 on the granularity pair and EM=1 implies F1=1"):
        assert abs(token_f1("Karachi", ["Karachi, Pakistan"]) - 0.6667) < 1e-3
        assert abs(token_f1("Karachi", ["Karachi, Pakistan"]) - 2 / 3) <= 1e-9
        rng = random.Random(13)
        words = ["alpha", "beta", "The", "42", "gamma,"]
        for _ in range(1000):
            pred = " ".join(rng.choices(words, k=rng.randint(1, 4)))
            golds = [" ".join(rng.choices(words, k=rng.randint(1, 4)))]
            if exact_match(pred, golds) == 1:
                assert token_f1(pred, golds) == 1.0


def test_end_to_end_scripted_replay(tmp_path):
    with criterion("scripted comparison replay yields the expected answer with one retry"):
        fixture_cfg = tmp_path / "cfg.json"
        fixture_cfg.write_text(json.dumps({
            "backend": {"type": "scripted", "fixture": str(FIXTURES / "table10_run.json")}
        }))
        out = tmp_path / "out"
        rc = main([
            "run", "--mode", "safe", "--k", "10", "--n", "3",
            "--in", str(FIXTURES / "table10_instances.jsonl"),
            "--config", str(fixture_cfg), "--out", str(out),
        ])
        assert rc == 0
        (row,) = [json.loads(l) for l in (out / "runs.jsonl").read_text().splitlines()]
        assert row["answer"] == "Her Honor, The Governor"
        rejected = [e for e in row["events"] if e["kind"] == "step_rejected"]
        assert len(rejected) == 1
        assert rejected[0]["error_type"] == "Premature Attribution"
