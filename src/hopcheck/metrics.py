"""Answer scoring: exact match, token F1, the LLM-judge adapter and the
per-dataset score table."""

from __future__ import annotations

import json
from collections import Counter
from typing import Sequence

from .data_model import AnswerVerdict, JudgeVerdict
from .llm_client import Backend, ParseFailure, TransportError, ask, parse_structured_verdict
from .textnorm import normalize, tokens


def exact_match(pred: str, golds: Sequence[str]) -> int:
    if not golds:
        raise ValueError("golds must be non-empty")
    norm = normalize(pred)
    return int(any(norm == normalize(g) for g in golds))


def _f1_single(pred_tokens: list[str], gold_tokens: list[str]) -> float:
    if not pred_tokens and not gold_tokens:
        return 1.0
    if not pred_tokens or not gold_tokens:
        return 0.0
    overlap = sum((Counter(pred_tokens) & Counter(gold_tokens)).values())
    if overlap == 0:
        return 0.0
    precision = overlap / len(pred_tokens)
    recall = overlap / len(gold_tokens)
    return 2 * precision * recall / (precision + recall)


def token_f1(pred: str, golds: Sequence[str]) -> float:
    """Max over golds of the token-overlap F1 on normalized tokens."""
    if not golds:
        raise ValueError("golds must be non-empty")
    pred_tokens = tokens(pred)
    return max(_f1_single(pred_tokens, tokens(g)) for g in golds)


# "correct"/"wrong" is what prompts/judge.txt asks for.
_VERDICT_WORDS = {
    "correct": True, "true": True, "yes": True,
    "wrong": False, "false": False, "no": False,
}


def judge(
    backend: Backend,
    question: str,
    pred: str,
    golds: Sequence[str],
    model_id: str = "default",
) -> tuple[JudgeVerdict, str]:
    """Semantic-equivalence verdict; (verdict, reasoning).

    A prediction byte-equal to a gold answer short-circuits to Correct
    without a backend call. An unparseable judge response or a failed
    backend call is Unjudged, never silently Wrong.
    """
    if not golds:
        raise ValueError("golds must be non-empty")
    if any(pred == g for g in golds):
        return JudgeVerdict.CORRECT, "byte-equal to a gold answer"
    try:
        _, resp = ask(
            backend, "judge", model_id,
            question=question,
            predicted=pred,
            gold_answers=json.dumps(list(golds), ensure_ascii=False),
        )
    except TransportError as exc:
        return JudgeVerdict.UNJUDGED, f"backend failed: {exc}"
    obj = parse_structured_verdict(resp.text, required_keys=("is_correct",))
    if isinstance(obj, ParseFailure):
        return JudgeVerdict.UNJUDGED, f"unparseable judge response: {obj.reason}"
    raw = obj["is_correct"]
    # A JSON boolean or a verdict word; null, numbers, lists and objects
    # are not verdicts.
    correct = _VERDICT_WORDS.get(raw.strip().lower()) if isinstance(raw, str) else raw
    if not isinstance(correct, bool):
        return JudgeVerdict.UNJUDGED, f"unrecognized is_correct value {raw!r}"
    verdict = JudgeVerdict.CORRECT if correct else JudgeVerdict.WRONG
    return verdict, str(obj.get("reasoning", ""))


def score_answer(
    pred: str,
    golds: Sequence[str],
    backend: Backend | None = None,
    question: str = "",
    model_id: str = "default",
) -> AnswerVerdict:
    """EM + F1, plus the judge verdict when a backend is supplied."""
    em = exact_match(pred, golds)
    f1 = token_f1(pred, golds)  # em = 1 implies f1 = 1 (same normalization)
    if backend is None:
        return AnswerVerdict(em=em, f1=f1)
    verdict, reasoning = judge(backend, question, pred, golds, model_id)
    return AnswerVerdict(em=em, f1=f1, judge=verdict, judge_reasoning=reasoning)


def score_delta(baseline_mean: float, treatment_mean: float) -> float:
    """Accuracy delta in points, rounded to one decimal."""
    return round(treatment_mean - baseline_mean, 1)


def score_table(
    pairs: list[tuple[str, AnswerVerdict]], baseline_mean: float | None = None
) -> dict:
    """Per-dataset score table over (dataset, verdict) pairs.

    em and f1 are means over the dataset's pairs, acc the share judged
    Correct among its judged pairs; Unjudged pairs count as unjudged.
    When every pair is judged, an "average" row holds the mean acc over
    all pairs and, given a baseline mean in points, the delta against it.
    """
    table: dict = {}
    for name in sorted({dataset for dataset, _ in pairs}):
        group = [v for dataset, v in pairs if dataset == name]
        judged = [v.judge for v in group if v.judge is not JudgeVerdict.UNJUDGED]
        table[name] = {
            "unjudged": len(group) - len(judged),
            "em": round(sum(v.em for v in group) / len(group), 4),
            "f1": round(sum(v.f1 for v in group) / len(group), 4),
        }
        if judged:
            table[name]["acc"] = round(judged.count(JudgeVerdict.CORRECT) / len(judged), 4)
    if pairs and not any(row["unjudged"] for row in table.values()):
        mean_acc = sum(v.judge is JudgeVerdict.CORRECT for _, v in pairs) / len(pairs)
        table["average"] = {"acc": round(mean_acc, 4)}
        if baseline_mean is not None:
            table["average"]["delta_vs_baseline"] = score_delta(baseline_mean, 100.0 * mean_acc)
    return table
