"""`loop` workload: `hopcheck run --mode safe --k 10 --n 3`, one worker.

Every instance carries ten ~150-word passages, so each prompt re-sends
about 1,500 words and the ledger's prefix scan walks all of it. Each
step slot follows a scripted attempt pattern: accepted at once, rejected
by the evaluator first, or unparseable first. Runs end with a Final
Answer step between slots 3 and 8; a fifth of the runs never end and get
a forced answer. Half the instances report token usage (cached tokens
after each role's first call), half report none, so both ledger paths
run. The mix of patterns is fixed; the seed picks names, text and which
slot gets which pattern.
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

NAME = "loop"
WHY = (
    "ledger prefix scans, prompt rendering and step parsing dominate every call; "
    "kg_graph is not used"
)
INSTANCES = 200
NEVER_TERMINATE = 40
K, N = 10, 3
WARM_ITEMS = 4

# Attempt patterns per non-final slot, weighted per 100 slots. "garbled"
# (unparseable) only ever comes first, so the generator can tell its
# attempt number from the feedback it is shown.
SLOT_PATTERNS = (
    (("ok",), 63),
    (("bad", "ok"), 16),
    (("garbled", "ok"), 10),
    (("bad", "bad", "ok"), 6),
    (("garbled", "bad", "ok"), 4),
    (("bad", "bad", "bad", "bad"), 1),
)
FINAL_PATTERNS = ((("ok",), 90), (("garbled", "ok"), 10))

_MARK_RE = re.compile(r"\[k(\d+)\.(\d+)\]")
_BAD_ATTRIBUTION = ("Unsupported", "Contradictory", "Off-topic", "Redundancy")
_BAD_LOGICAL = ("Logical Fallacy", "Overthinking", "Inefficiency")


def _deal(rng, patterns, slots: int) -> list[tuple[str, ...]]:
    """Exactly proportional pattern counts over `slots`, shuffled."""
    total = sum(w for _, w in patterns)
    counts = [slots * w // total for _, w in patterns]
    counts[0] += slots - sum(counts)
    deck = [p for (p, _), c in zip(patterns, counts) for _ in range(c)]
    rng.shuffle(deck)
    return deck


def build(seed: int) -> dict:
    rng = rng_for(seed, NAME, "plan")
    finals = [None] * NEVER_TERMINATE + [3 + i % 6 for i in range(INSTANCES - NEVER_TERMINATE)]
    rng.shuffle(finals)
    plain_slots = sum((f - 1) if f else K for f in finals)
    plain = _deal(rng, SLOT_PATTERNS, plain_slots)
    final_deck = _deal(rng, FINAL_PATTERNS, INSTANCES - NEVER_TERMINATE)
    instances, plan = [], {}
    for n, final in enumerate(finals):
        irng = rng_for(seed, NAME, n)
        mint = WordMint(irng)
        iid = f"l{seed}-{n:04d}"
        hero, ship, answer, forced = mint.name(), mint.name(), mint.name(), mint.name()
        question = f"From which harbor did {hero} sail before joining the crew of {ship}?"
        passages = []
        for i in range(10):
            title = mint.name()
            body = f"{title} {filler_text(irng, 70)} {hero} {filler_text(irng, 70)} {mint.name()}."
            passages.append((title, body, i < 2))
        irng.shuffle(passages)
        slots = (final or K)
        patterns = [plain.pop() for _ in range(slots - (1 if final else 0))]
        if final:
            patterns.append(final_deck.pop())
        instances.append(canonical_record(iid, question, passages, [answer], "hotpotqa", [hero]))
        plan[question] = {
            "id": iid,
            "hero": hero,
            "answer": answer,
            "forced": forced,
            "final": final,
            "patterns": patterns,
            "usage": n % 2 == 0,
            "words": [mint.word() for _ in range(12)],
        }
    return {"instances": instances, "plan": plan}


def write_inputs(corpus: dict, work: Path) -> None:
    write_jsonl(corpus["instances"], work / "instances.jsonl")
    write_jsonl(corpus["instances"][:WARM_ITEMS], work / "instances_warm.jsonl")


def commands(work: Path, out: Path, warm: bool = False) -> list[list[str]]:
    src = "instances_warm.jsonl" if warm else "instances.jsonl"
    return [[
        "run", "--in", str(work / src), "--mode", "safe", "--k", str(K), "--n", str(N),
        "--workers", "1", "--config", str(work / "config.json"), "--out", str(out / "loop"),
    ]]


def items_per_pass(corpus: dict) -> int:
    return len(corpus["instances"])


def _pick(options, *key) -> str:
    digest = hashlib.sha256(repr(key).encode()).digest()
    return options[digest[0] % len(options)]


def _step_text(entry: dict, slot: int, attempt: int, outcome: str) -> str:
    hero, words = entry["hero"], entry["words"]
    if entry["final"] == slot and outcome != "garbled":
        return f"Step {slot}: ####ANSWER: {entry['answer']} (Final Answer)"
    mark = f"[k{slot}.{attempt}]"
    word = words[(slot + attempt) % len(words)]
    if outcome == "garbled":
        return _pick((
            f"I should look at the passages about {hero} again before answering.",
            f"Step {slot}: {hero} is linked to {word} {mark}",
            f"Step {slot}: {hero} is linked to {word} {mark} (Attribution)",
            f"Step {slot}: Passage 2 and Passage 5 both mention {hero} {mark} (Attribution)",
            f"Step {slot + 1}: {hero} sailed with {word} {mark} (Logical)",
        ), entry["id"], slot)
    if slot % 2:
        passage = 1 + (slot * 3 + attempt) % 10
        text = f"Step {slot}: Passage {passage} states that {hero} sailed with {word} {mark} (Attribution)"
    else:
        text = f"Step {slot}: So {hero} left port after meeting {word} {mark} (Logical)"
    if _pick((True,) + (False,) * 19, entry["id"], slot, attempt):
        text += f"\nStep {slot + 1}: {hero} then reached {words[0]} (Logical)"
    return text


def _attempt(feedback: str, slot: int) -> int:
    if feedback == "(none)":
        return 0
    mark = _MARK_RE.search(feedback)
    if mark is not None and int(mark.group(1)) == slot:
        return int(mark.group(2)) + 1
    return 1  # format feedback follows a garbled first attempt


def _usage(entry: dict, prompt: str, text: str, first: bool) -> dict:
    if not entry["usage"]:
        return usage()
    total = len(prompt) // 4 + 1
    cached = 0 if first else total * 9 // 10
    return usage(total, cached, len(text) // 4 + 1)


def _verdict(error_type: str, diagnosis: str, style: int) -> str:
    body = json.dumps({
        "error_type": error_type,
        "diagnosis": diagnosis,
        "guidance": "Continue with the next single atomic step.",
    })
    if style == 1:
        return f"```json\n{body}\n```"
    if style == 2:
        return f"Evaluation follows.\n{body}"
    return body


def make_responder(corpus: dict):
    plan = corpus["plan"]
    reader = PromptReader(("step_generation", "evaluation", "final_answer"))

    def respond(prompt: str, model_id: str) -> tuple[str, dict]:
        del model_id
        name, values = reader.read(prompt)
        entry = plan[values["question"]]
        previous = values["previous_steps"]
        slot = 1 if previous == "(none)" else previous.count("\n") + 2
        if name == "final_answer":
            text = f"####ANSWER: {entry['forced']} (Final Answer)"
            return text, _usage(entry, prompt, text, first=False)
        if name == "step_generation":
            attempt = _attempt(values["feedback"], slot)
            text = _step_text(entry, slot, attempt, entry["patterns"][slot - 1][attempt])
            first = previous == "(none)" and values["feedback"] == "(none)"
            return text, _usage(entry, prompt, text, first)
        step = values["step"]
        style = len(prompt) % 3
        mark = _MARK_RE.search(step)
        if mark is None:  # a Final Answer step carries no mark; always accepted
            text = _verdict("Correct", f"Step {slot} submits the derived answer.", style)
            return text, _usage(entry, prompt, text, first=False)
        attempt = int(mark.group(2))
        pattern = entry["patterns"][slot - 1]
        first_evaluated = 1 if pattern[0] == "garbled" else 0
        first = slot == 1 and attempt == first_evaluated
        if pattern[attempt] == "ok":
            text = _verdict("Correct", f"Step {slot} {mark.group(0)} adds a grounded fact.", style)
        else:
            options = _BAD_ATTRIBUTION if "(Attribution)" in step else _BAD_LOGICAL
            error = options[(slot + attempt) % len(options)]
            text = _verdict(error, f"Step {slot} {mark.group(0)} is faulty ({error}).", style)
        return text, _usage(entry, prompt, text, first)

    return respond


def check(corpus: dict, out: Path) -> list[str]:
    """Failure messages, one per failed item."""
    by_id = {entry["id"]: entry for entry in corpus["plan"].values()}
    run_dir = out / "loop"
    try:
        runs = read_jsonl(run_dir / "runs.jsonl")
        aggregate = json.loads((run_dir / "aggregate.json").read_text("utf-8"))
    except (OSError, ValueError) as exc:
        return [f"loop outputs unreadable: {exc}"] * len(by_id)
    failures: list[str] = []
    seen = set()
    unreported_calls = 0
    for run in runs:
        iid = run["instance_id"]
        entry = by_id.get(iid)
        if entry is None or iid in seen:
            failures.append(f"{iid}: unexpected or duplicate run")
            continue
        seen.add(iid)
        calls = run["generator_calls"] + run["evaluator_calls"]
        if not entry["usage"]:
            unreported_calls += calls
        want = entry["answer"] if entry["final"] else entry["forced"]
        estimated = run["ledger"]["overall"]["estimated_calls"]
        if run["aborted"]:
            failures.append(f"{iid}: aborted {run['flags']}")
        elif run["answer"] != want:
            failures.append(f"{iid}: answer {run['answer']!r} != {want!r}")
        elif run["generator_calls"] > K * (N + 1) + 1 or run["evaluator_calls"] > K * (N + 1):
            failures.append(f"{iid}: call budget exceeded")
        elif estimated != (0 if entry["usage"] else calls):
            failures.append(f"{iid}: estimated_calls {estimated} (calls {calls})")
    failures += [f"{iid}: no run record" for iid in by_id.keys() - seen]
    ledger_estimated = aggregate["ledger"]["overall"]["estimated_calls"]
    if ledger_estimated != unreported_calls:
        return [
            f"ledger estimated_calls {ledger_estimated} != no-usage calls {unreported_calls}"
        ] * len(by_id)
    return failures
