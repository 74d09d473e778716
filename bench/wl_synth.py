"""`synth-score` workload: `hopcheck synthesize`, then `hopcheck score --judge on`.

Synthesis asks for a plan and an ideal trajectory per instance, then one
teacher-written corrupted step per injected example. Scoring reads a
runs file that mixes answers byte-equal to gold (no judge call),
answers equal after normalization and wrong answers (one judge call
each). Calls are many, short and independent, with no ledger.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

from common import (
    PromptReader,
    WordMint,
    canonical_record,
    filler_text,
    read_jsonl,
    rng_for,
    usage,
    write_jsonl,
)

NAME = "synth-score"
WHY = (
    "many short independent calls through llm_client and step_grammar with no ledger; "
    "the only workload that runs datagen and metrics"
)
INSTANCES = 120
TOTAL = 240  # synthesized examples
WARM_ITEMS = 6
WARM_TOTAL = 12
ANSWER_MIX = (("exact", 40), ("normalized", 40), ("partial", 20), ("disjoint", 20))
DATASETS = ("hotpotqa", "2wiki", "musique")
# Step kinds per plan shape; every plan has at least 5 steps so every
# error position 1-5 exists.
SHAPES = (
    ("Attribution", "Attribution", "Logical", "Attribution", "Logical"),
    ("Attribution", "Attribution", "Attribution", "Logical", "Attribution", "Logical"),
    ("Attribution", "Logical", "Attribution", "Attribution", "Logical"),
)
_STEP_LINE_RE = re.compile(r"^Step (\d+): .*\((Attribution|Logical|Final Answer)\)$", re.MULTILINE)


def build(seed: int) -> dict:
    rng = rng_for(seed, NAME, "plan")
    kinds = [kind for kind, count in ANSWER_MIX for _ in range(count)]
    rng.shuffle(kinds)
    instances, plan, runs, expected = [], {}, [], {}
    for n in range(INSTANCES):
        irng = rng_for(seed, NAME, n)
        mint = WordMint(irng)
        iid = f"s{seed}-{n:04d}"
        subject, answer = mint.name(), mint.name()
        question = f"Which guild did the founder of {subject} lead?"
        passages = [
            (mint.name(), f"{filler_text(irng, 60)} {mint.name()}.", i < 3) for i in range(10)
        ]
        irng.shuffle(passages)
        gold = [i + 1 for i, p in enumerate(passages) if p[2]]
        shape = SHAPES[n % len(SHAPES)]
        facts = [mint.name() for _ in shape]
        steps = []
        for i, (kind, fact) in enumerate(zip(shape, facts), start=1):
            if kind == "Attribution":
                g = gold[i % len(gold)]
                steps.append({
                    "step": f"Step {i}: According to Passage {g}, {subject} is tied to {fact}. (Attribution)",
                    "supporting_index": g,
                    "plan": f"Step {i}: Find the entity tied to {subject} in link {i}. (Attribution)",
                })
            else:
                steps.append({
                    "step": f"Step {i}: Combining the earlier steps, {fact} leads to {answer}. (Logical)",
                    "supporting_index": list(range(1, i)),
                    "plan": f"Step {i}: Compare the entities found so far in link {i}. (Logical)",
                })
        dataset = DATASETS[n % len(DATASETS)]
        instances.append(canonical_record(iid, question, passages, [answer], dataset, [subject]))
        plan[question] = {"id": iid, "steps": steps, "answer": answer}
        kind = kinds[n]
        pred = {
            "exact": answer,
            "normalized": f"the {answer.lower()}.",
            "partial": f"{answer.split()[0]} {mint.word()}",
            "disjoint": mint.name(),
        }[kind]
        runs.append({"instance_id": iid, "answer": pred})
        expected[iid] = {
            "exact": (1, 1.0, "Correct"),
            "normalized": (1, 1.0, "Correct"),
            "partial": (0, 0.5, "Wrong"),
            "disjoint": (0, 0.0, "Wrong"),
        }[kind]
    return {"instances": instances, "plan": plan, "runs": runs, "expected": expected}


def write_inputs(corpus: dict, work: Path) -> None:
    write_jsonl(corpus["instances"], work / "instances.jsonl")
    write_jsonl(corpus["runs"], work / "runs.jsonl")
    write_jsonl(corpus["instances"][:WARM_ITEMS], work / "instances_warm.jsonl")
    write_jsonl(corpus["runs"][:WARM_ITEMS], work / "runs_warm.jsonl")


def commands(work: Path, out: Path, warm: bool = False) -> list[list[str]]:
    suffix = "_warm" if warm else ""
    total = WARM_TOTAL if warm else TOTAL
    config = str(work / "config.json")
    return [
        [
            "synthesize", "--in", str(work / f"instances{suffix}.jsonl"), "--total", str(total),
            "--seed", "0", "--config", config, "--out", str(out / "synth"),
        ],
        [
            "score", "--runs", str(work / f"runs{suffix}.jsonl"),
            "--in", str(work / f"instances{suffix}.jsonl"), "--judge", "on",
            "--config", config, "--out", str(out / "score"),
        ],
    ]


def items_per_pass(corpus: dict) -> int:
    return TOTAL + len(corpus["runs"])


def corrupted_step(instance_id: str, target: int, error_type: str, kind: str) -> str:
    """The teacher's erroneous replacement for one step; also what the
    check expects to find in train.jsonl."""
    tag = hashlib.sha256(f"{instance_id}:{target}:{error_type}".encode()).hexdigest()[:6]
    if kind == "Attribution":
        body = f"According to Passage {1 + int(tag, 16) % 10}, the record {tag} shows a {error_type} link."
    else:
        body = f"Therefore the record {tag} settles it through a {error_type} leap."
    return f"Step {target}: {body} ({kind})"


def _normal(text: str) -> str:
    return " ".join(re.sub(r"[^\w\s]", " ", text.lower()).replace(" the ", " ").split())


def make_responder(corpus: dict):
    plan = corpus["plan"]
    reader = PromptReader((
        "plan_hotpotqa", "plan_2wiki", "plan_musique", "ideal_reasoning", "error_injection", "judge",
    ))

    def respond(prompt: str, model_id: str) -> tuple[str, dict]:
        del model_id
        name, values = reader.read(prompt)
        if name.startswith("plan_"):
            entry = plan[values["question"]]
            return "[" + ", ".join(s["plan"] for s in entry["steps"]) + "]", usage()
        if name == "ideal_reasoning":
            entry = plan[values["question"]]
            rows = [{"step": s["step"], "supporting_index": s["supporting_index"]} for s in entry["steps"]]
            return json.dumps(rows, ensure_ascii=False), usage()
        if name == "error_injection":
            entry = plan[values["question"]]
            target = int(values["target_step"])
            kinds = {int(i): k for i, k in _STEP_LINE_RE.findall(values["ideal_steps"])}
            return corrupted_step(entry["id"], target, values["error_type"], kinds[target]), usage()
        golds = json.loads(values["gold_answers"])
        same = any(_normal(" " + values["predicted"] + " ") == _normal(" " + g + " ") for g in golds)
        return json.dumps({"is_correct": same, "reasoning": "compared after normalization"}), usage()

    return respond


def check(corpus: dict, out: Path) -> list[str]:
    """Failure messages, one per failed item."""
    items = items_per_pass(corpus)
    try:
        train = read_jsonl(out / "synth" / "train.jsonl")
        manifest = json.loads((out / "synth" / "manifest.json").read_text("utf-8"))
        scores = read_jsonl(out / "score" / "scores.jsonl")
    except (OSError, ValueError) as exc:
        return [f"synth-score outputs unreadable: {exc}"] * items
    if manifest.get("total") != TOTAL:
        return [f"manifest total {manifest.get('total')} != {TOTAL}"] * items
    positions = set(manifest.get("error_position_histogram", {}))
    if not {"1", "2", "3", "4", "5"} <= positions:
        return [f"error positions {sorted(positions)} miss some of 1-5"] * items
    by_id = {entry["id"]: entry for entry in corpus["plan"].values()}
    failures = []
    for n, row in enumerate(train):
        entry = by_id.get(row["instance_id"])
        position = row.get("error_position")
        if entry is None or not isinstance(position, int) or not 1 <= position <= len(entry["steps"]):
            failures.append(f"example {n}: bad instance or position")
            continue
        ideal = entry["steps"][position - 1]["step"]
        kind = ideal.rsplit("(", 1)[1].rstrip(")")
        if row["provenance"] == "Ideal":
            ok = row["feedback"]["error_type"] == "Correct" and row["current_step"] == ideal
        else:
            error = row["injected_error"]
            ok = (
                row["provenance"] == "Injected"
                and row["feedback"]["error_type"] == error
                and row["current_step"] == corrupted_step(entry["id"], position, error, kind)
            )
        if not ok:
            failures.append(f"example {n} ({row['provenance']}, {row['instance_id']}) mismatch")
    failures += [f"train.jsonl has {len(train)} rows, want {TOTAL}"] * max(0, TOTAL - len(train))
    expected = corpus["expected"]
    if [r["instance_id"] for r in scores] != [r["instance_id"] for r in corpus["runs"]]:
        return failures + ["scores.jsonl rows do not match the runs file"] * len(corpus["runs"])
    for row in scores:
        em, f1, verdict = expected[row["instance_id"]]
        if (row["em"], row["f1"], row["judge"]) != (em, f1, verdict):
            failures.append(
                f"score {row['instance_id']}: got {(row['em'], row['f1'], row['judge'])}, want {(em, f1, verdict)}"
            )
    return failures
