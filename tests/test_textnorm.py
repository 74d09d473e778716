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
