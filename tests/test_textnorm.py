import re

from hypothesis import given, strategies as st

from hopcheck.textnorm import normalize, rough_token_count, splits_token, tokens


def test_normalize_strips_articles_case_punctuation():
    assert normalize("The African Queen!") == "african queen"
    assert normalize("  An   odd,   SPACING  ") == "odd spacing"
    assert normalize("a an the") == ""


def test_tokens():
    assert tokens("The Daily Jang, Karachi.") == ["daily", "jang", "karachi"]


def test_rough_token_count_counts_words_and_punctuation():
    assert rough_token_count("") == 0
    assert rough_token_count("one two three") == 3
    assert rough_token_count("Hello, world!") == 4


# Every class the counter tells apart: ASCII word characters, every ASCII
# whitespace character (\x1c-\x1f included), other ASCII controls and
# punctuation, and non-ASCII letters, spaces and punctuation. Pure ASCII
# text takes the table-driven path, anything else the regex.
_ASCII_CHARS = st.sampled_from(
    list("aZq09_ \t\n\v\f\r\x1c\x1d\x1e\x1f\x00\x01\x7f.,;'\"()-!?$")
) | st.characters(max_codepoint=0x7F)
_NON_ASCII_CHARS = st.sampled_from(
    ["é", "ß", "Ж", "中", "\xa0", "\u3000", "\u2028", "—", "«", "。", "😀"]
)


@given(
    st.text(_ASCII_CHARS, max_size=80)
    | st.text(_ASCII_CHARS | _NON_ASCII_CHARS, max_size=80)
)
def test_rough_token_count_matches_regex_reference(text):
    assert rough_token_count(text) == len(re.findall(r"\w+|[^\w\s]", text))


@given(st.text(max_size=200))
def test_normalize_idempotent(text):
    assert normalize(normalize(text)) == normalize(text)


def test_splits_token_marks_cuts_inside_words():
    assert splits_token("Hello, world", 2) == 1
    assert splits_token("Hello, world", 5) == 0  # between "Hello" and ","
    assert splits_token("Hello, world", 0) == 0
    assert splits_token("Hello, world", 12) == 0


@given(st.text(max_size=60), st.integers(0, 60))
def test_rough_token_count_split_identity(text, i):
    i = min(i, len(text))
    assert rough_token_count(text) == (
        rough_token_count(text[:i]) + rough_token_count(text[i:]) - splits_token(text, i)
    )
