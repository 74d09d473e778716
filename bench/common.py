"""Helpers shared by the workload generators: seeded names, text, prompt parsing.

Nothing here imports hopcheck. Corpus generators emit plain JSON-ready
data; responders receive the rendered prompt text and return
``(text, usage)`` pairs, which the worker wraps into backend responses.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from pathlib import Path

PROMPT_DIR = Path(__file__).resolve().parents[1] / "src" / "hopcheck" / "prompts"

_ONSETS = "b c d f g h j k l m n p r s t v z br dr gr kr tr st pl sk".split()
_VOWELS = "a e i o u ai ei ou".split()
_CODAS = "l n r s t k m nd rk st".split()
# Tokens that carry meaning for the program's normalizer, date parser,
# stop-word list or generic-term filter; generated words never use them.
_RESERVED = frozenset(
    "the and for from was are were did does who whom what which where when how "
    "his her its their them they this that these those yes no may march june july "
    "august april january february september october november december city band "
    "son group team".split()
)

FILLER_WORDS = (
    "archive record season harbor river valley council market estate chapter "
    "survey ledger voyage charter county guild studio festival mill quarry "
    "bridge garden canal orchard beacon granary tower meadow".split()
)


def rng_for(seed: int, *parts: object) -> random.Random:
    """Independent stream per (seed, parts): adding a workload part never
    shifts the draws of another."""
    digest = hashlib.sha256(repr((seed,) + parts).encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


class WordMint:
    """Pseudo-words unique within one mint, so generated labels never
    share tokens by accident."""

    def __init__(self, rng: random.Random):
        self._rng = rng
        self._used: set[str] = set()

    def word(self) -> str:
        while True:
            syllables = self._rng.randint(2, 3)
            parts = [self._rng.choice(_ONSETS) + self._rng.choice(_VOWELS) for _ in range(syllables)]
            w = "".join(parts) + self._rng.choice(_CODAS)
            if w not in self._used and w not in _RESERVED:
                self._used.add(w)
                return w.capitalize()

    def name(self, tokens: int = 2) -> str:
        return " ".join(self.word() for _ in range(tokens))


def filler_text(rng: random.Random, words: int) -> str:
    out = []
    while len(out) < words:
        n = rng.randint(6, 12)
        sentence = [rng.choice(FILLER_WORDS) for _ in range(n)]
        out.extend(sentence)
        out[-1] += "."
    text = " ".join(out[:words])
    return text[0].upper() + text[1:]


def canonical_record(
    instance_id: str,
    question: str,
    passages: list[tuple[str, str, bool]],
    gold_answers: list[str],
    dataset: str,
    question_entities: list[str] = (),
) -> dict:
    """One line of the program's canonical instance format."""
    if len(passages) != 10:
        raise ValueError(f"{instance_id}: need 10 passages, got {len(passages)}")
    return {
        "id": instance_id,
        "question": question,
        "passages": [
            {"index": i + 1, "title": t, "body": b, "is_gold": g}
            for i, (t, b, g) in enumerate(passages)
        ],
        "gold_answers": list(gold_answers),
        "dataset": dataset,
        "shuffle_seed": 0,
        "question_entities": list(question_entities),
    }


def write_jsonl(rows: list[dict], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False, sort_keys=True) + "\n")


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


_PLACEHOLDER_RE = re.compile(r"<<([a-z_]+)>>")


class PromptReader:
    """Inverts catalog rendering: rendered prompt -> (template, values).

    A template is split into its literal segments and placeholder names;
    each value is the text between one literal and the next occurrence of
    the following one. Responders thus see the same named inputs the
    program filled in, without reaching into the program.
    """

    def __init__(self, names: tuple[str, ...]):
        self._templates = []
        for name in names:
            body = (PROMPT_DIR / f"{name}.txt").read_text("utf-8")
            parts = _PLACEHOLDER_RE.split(body)  # literal, name, literal, name, ..., literal
            self._templates.append((name, parts[0::2], parts[1::2]))

    def read(self, prompt: str) -> tuple[str, dict[str, str]]:
        for name, literals, fields in self._templates:
            if not (prompt.startswith(literals[0]) and prompt.endswith(literals[-1])):
                continue
            values: dict[str, str] = {}
            pos = len(literals[0])
            end = len(prompt) - len(literals[-1])
            last = len(fields) - 1
            for i, (field, literal) in enumerate(zip(fields, literals[1:])):
                stop = end if i == last else prompt.find(literal, pos)
                if stop < 0:
                    break
                values[field] = prompt[pos:stop]
                pos = stop + len(literal)
            else:
                return name, values
        raise ValueError(f"prompt matches no known template: {prompt[:60]!r}")


def usage(prompt_tokens: int = 0, cached: int = 0, completion: int = 0) -> dict:
    return {
        "prompt_tokens": prompt_tokens,
        "cached_prompt_tokens": cached,
        "completion_tokens": completion,
    }
