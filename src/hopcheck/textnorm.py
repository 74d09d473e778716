"""Shared text normalization helpers.

The same normalization (lowercase, punctuation strip, article strip,
whitespace collapse) backs answer scoring and entity canonicalization,
so the two never disagree about what "the same string" means.
"""

from __future__ import annotations

import re
import string

_ARTICLE_RE = re.compile(r"\b(a|an|the)\b")
_PUNCT_TABLE = str.maketrans("", "", string.punctuation)
_TOKEN_RE = re.compile(r"\w+|[^\w\s]")
_WORD_PAIR_RE = re.compile(r"\w\w")
# Each ASCII byte's class under _TOKEN_RE: b"w" for what `\w` matches,
# b" " for what `\s` matches, b"p" for the rest. str.isalnum and
# str.isspace are the predicates re uses for `\w` and `\s` on str patterns.
_ASCII_CLASS = bytes(
    ord("w") if c.isalnum() or c == "_" else ord(" ") if c.isspace() else ord("p")
    for c in map(chr, range(128))
) + b"p" * 128


def normalize(text: str) -> str:
    """Lowercase, strip punctuation and articles, collapse whitespace."""
    out = text.lower()
    out = out.translate(_PUNCT_TABLE)
    out = _ARTICLE_RE.sub(" ", out)
    return " ".join(out.split())


def tokens(text: str) -> list[str]:
    return normalize(text).split()


def rough_token_count(text: str) -> int:
    """Word-plus-punctuation token count.

    Fixed fallback estimator for prompt-token accounting when a backend
    reports no usage; versioned with the package so ledgers stay
    comparable across runs. ASCII text is counted without building the
    tokens: one per punctuation character plus one per start of a word.
    """
    if not text.isascii():
        return len(_TOKEN_RE.findall(text))
    c = text.encode("ascii").translate(_ASCII_CLASS)
    return c.count(b"p") + c.count(b" w") + c.count(b"pw") + c.startswith(b"w")


def splits_token(text: str, i: int) -> int:
    """1 if cutting `text` at `i` falls inside a word token, else 0.

    A rough token is a maximal `\\w` run or one non-space, non-word
    character, so for every 0 <= i <= len(text):
    rough_token_count(text) == rough_token_count(text[:i])
    + rough_token_count(text[i:]) - splits_token(text, i).
    """
    return 1 if 0 < i < len(text) and _WORD_PAIR_RE.match(text, i - 1) else 0
