import concurrent.futures
import hashlib
import json
import re
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
import requests
from hypothesis import given, settings, strategies as st

from hopcheck import llm_client
from hopcheck.llm_client import (
    PROMPT_NAMES,
    ChatRequest,
    ChatResponse,
    Message,
    OpenAIBackend,
    ParseFailure,
    PromptError,
    PromptTemplate,
    RecordingBackend,
    ScriptedBackend,
    TransportError,
    Usage,
    ask,
    build_request,
    load_prompt,
    parse_json_list,
    parse_structured_verdict,
)


def _req(text="hello"):
    return ChatRequest(text)


def test_prompt_catalog_loads_and_renders():
    for name in PROMPT_NAMES:
        template = load_prompt(name)
        assert template.placeholders, name
        rendered = template.render(**{p: "X" for p in template.placeholders})
        assert "<<" not in rendered


def test_prompt_render_missing_placeholder():
    template = load_prompt("judge")
    with pytest.raises(PromptError, match="missing placeholders"):
        template.render(question="q")


_REF_PLACEHOLDER_RE = re.compile(r"<<([a-z_]+)>>")


def _ref_render(template, **values):
    """Reference rendering: one regex substitution with a callback."""
    missing = frozenset(_REF_PLACEHOLDER_RE.findall(template.body)) - values.keys()
    if missing:
        raise PromptError(f"{template.name}: missing placeholders {sorted(missing)}")
    return _REF_PLACEHOLDER_RE.sub(lambda m: str(values[m.group(1)]), template.body)


def _render_outcome(render, template, values):
    try:
        return "ok", render(template, **values)
    except PromptError as exc:
        return "error", str(exc)


_RENDER_VALUES = st.one_of(
    st.text(alphabet="<>\\g1_aqz \n", max_size=12),
    st.sampled_from(["", "<<question>>", "<<passages>><<step>>", "\\g<1>", "\\1", "\\", "<<", ">>"]),
    st.integers(),
    st.none(),
    st.floats(),
    st.lists(st.text(alphabet="<>\\a", max_size=3), max_size=2),
)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(PROMPT_NAMES), st.data())
def test_render_matches_regex_reference(name, data):
    template = load_prompt(name)
    assert template.placeholders == frozenset(_REF_PLACEHOLDER_RE.findall(template.body))
    names = sorted(template.placeholders)
    values = {p: data.draw(_RENDER_VALUES, label=p) for p in names}
    values["not_a_placeholder"] = data.draw(_RENDER_VALUES, label="extra")
    dropped = data.draw(st.sets(st.sampled_from(names), max_size=2), label="dropped")
    values = {k: v for k, v in values.items() if k not in dropped}
    expected = _render_outcome(_ref_render, template, values)
    assert expected[0] == ("error" if dropped else "ok")
    assert _render_outcome(PromptTemplate.render, template, values) == expected
    # Rendering again gives the same text: render never edits the shared template.
    assert _render_outcome(PromptTemplate.render, template, values) == expected


def test_render_from_threads_matches_reference():
    template = load_prompt("step_generation")

    def values(i):
        return {p: f"<<{p}>> {i} \\g<1>" for p in template.placeholders}

    with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
        rendered = list(pool.map(lambda i: template.render(**values(i)), range(200)))
    assert rendered == [_ref_render(template, **values(i)) for i in range(200)]


def test_unknown_prompt_rejected():
    with pytest.raises(PromptError):
        load_prompt("nope")


def test_chat_request_validation_and_key():
    assert _req().messages == (Message("system", "hello"),)
    assert _req().key() == _req().key()
    assert _req("a").key() != _req("b").key()


def _reference_key(req):
    blob = json.dumps([req.model_id, ["system", req.prompt]], ensure_ascii=False)
    return hashlib.sha256(blob.encode()).hexdigest()


def test_chat_request_key_is_pinned():
    # Recorded fixtures are looked up by this digest, so it must never move.
    req = ChatRequest("Say \"hi\" to C:\\\\tmp\nthen\ttab\x01 café 😀é\\\"😀\n", model_id="m-1")
    assert req.key() == "1c395a60b6e5f30ac499fd593947361e857abc2173d7f0b9df73f53e42a01e78"
    assert req.key() == _reference_key(req)


_KEY_TEXT = st.text(
    st.sampled_from(["a", "Z", "0", " ", '"', "\\", "/", "\n", "\r", "\t", "\b", "\f",
                     "\x00", "\x01", "\x1f", "\x7f", "é", "\xa0", "\u2028", "😀"])
    | st.characters(exclude_categories=("Cs",)),
    max_size=30,
)


@given(_KEY_TEXT, _KEY_TEXT)
def test_chat_request_key_matches_json_dumps_reference(model_id, prompt):
    req = ChatRequest(prompt, model_id=model_id)
    assert req.key() == _reference_key(req)


def test_chat_request_key_rejects_lone_surrogate():
    with pytest.raises(UnicodeEncodeError):
        _req("a\ud800b").key()
    with pytest.raises(UnicodeEncodeError):
        ChatRequest("x", model_id="\udfff").key()


_CHUNK = llm_client._DIGEST_CHUNK
# Put across chunk boundaries: escaped ASCII, a rare control that takes the
# json.dumps path, non-ASCII and astral characters.
_BOUNDARY_TEXT = ["\t", "\x01", '"', "\\", "\n", "\r\n", '\\"', "\n\t", "é", "😀", "😀😀", "\u2028", "x"]
_DIGEST_MODELS = ["generator", "evaluator", 'm-"é😀\\']
_BASE_PROMPT = "".join(f"word{i % 97} " for i in range(4 * _CHUNK // 7))[: 3 * _CHUNK + 100]

_digest_op = st.tuples(
    st.sampled_from(["single"] * 6 + ["surrogate"]),
    st.sampled_from(_DIGEST_MODELS),
    # Where the model's previous prompt is cut: one character before, at or
    # after a chunk boundary, or anywhere.
    st.builds(lambda k, d: k * _CHUNK + d, st.integers(0, 3), st.integers(-1, 1))
    | st.integers(0, 4 * _CHUNK),
    st.sampled_from([0, 1, 9, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3]),
    # (boundary, offset from it, text written over the prompt there)
    st.lists(
        st.tuples(st.integers(1, 4), st.integers(-2, 1), st.sampled_from(_BOUNDARY_TEXT)),
        max_size=3,
    ),
    _KEY_TEXT,
)


def _overwrite(text, pos, piece):
    return text[:pos] + piece + text[pos + len(piece) :] if 0 <= pos <= len(text) else text


@settings(max_examples=150, deadline=None)
@given(st.lists(_digest_op, min_size=1, max_size=12))
def test_prefix_digest_equals_chat_request_key(ops):
    digest = llm_client._PrefixDigest()
    previous = {}
    for kind, model, cut, grow, marks, tail in ops:
        base = previous.get(model, _BASE_PROMPT)
        text = base[:cut] + _BASE_PROMPT[cut : cut + grow] + tail
        for boundary, offset, piece in marks:
            text = _overwrite(text, boundary * _CHUNK + offset, piece)
        if kind == "surrogate":
            at = min(cut, len(text))
            req = ChatRequest(text[:at] + "\ud800" + text[at:], model_id=model)
            with pytest.raises(UnicodeEncodeError):
                req.key()
            with pytest.raises(UnicodeEncodeError):
                digest.key(req)
            continue
        req = ChatRequest(text, model_id=model)
        assert digest.key(req) == req.key() == _reference_key(req)
        previous[model] = text


def test_prefix_digest_hashes_only_what_follows_the_shared_chunks(monkeypatch):
    text = "Say \"hi\" to C:\\\\tmp\nthen\ttab\x01 café 😀" * 300
    digest = llm_client._PrefixDigest()
    digest.key(ChatRequest(text[: 2 * _CHUNK + 5] + "!", model_id="m"))
    hashed = []
    body = llm_client._json_string_body
    monkeypatch.setattr(llm_client, "_json_string_body", lambda s: hashed.append(s) or body(s))
    req = ChatRequest(text, model_id="m")
    key = digest.key(req)
    # Two chunks resumed; the rest hashed a chunk at a time.
    assert "".join(hashed) == text[2 * _CHUNK :]
    assert [len(piece) for piece in hashed[:-1]] == [_CHUNK] * (len(text) // _CHUNK - 2)
    monkeypatch.undo()
    assert key == req.key() == _reference_key(req)


def test_prefix_digest_keeps_each_calling_thread_apart(monkeypatch):
    # Prompts to one model that differ only in the second chunk. Another
    # thread sends B's prompt while this one is between chunks of A's, so a
    # trail shared between threads would pair B's second chunk with A's
    # state after the third, and a later prompt like B's would resume there.
    digest = llm_client._PrefixDigest()
    text_a = _BASE_PROMPT[: 3 * _CHUNK + 5]
    text_b = _overwrite(text_a, _CHUNK + 10, "thread B")
    req = lambda text: ChatRequest(text, model_id="m")
    body = llm_client._json_string_body
    keys_b = []

    def run_b(texts):
        thread = threading.Thread(target=lambda: keys_b.extend(digest.key(req(t)) for t in texts))
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()

    def body_then_b(s):
        if s == text_a[2 * _CHUNK : 3 * _CHUNK]:
            run_b([text_b[: 2 * _CHUNK + 5]])
        return body(s)

    digest.key(req(text_a[: _CHUNK + 5]))
    monkeypatch.setattr(llm_client, "_json_string_body", body_then_b)
    key_a = digest.key(req(text_a))
    monkeypatch.undo()
    run_b([text_b])
    assert key_a == req(text_a).key()
    assert keys_b == [req(text_b[: 2 * _CHUNK + 5]).key(), req(text_b).key()]


def test_usage_invariants():
    with pytest.raises(ValueError):
        Usage(prompt_tokens=1, cached_prompt_tokens=2)
    with pytest.raises(ValueError):
        Usage(prompt_tokens=-1)
    for counts in ({"prompt_tokens": 1.5}, {"prompt_tokens": True}, {"completion_tokens": 2.0}):
        with pytest.raises(ValueError, match="integers"):
            Usage(**counts)


def test_scripted_backend_by_key_then_fifo():
    req = _req("keyed")
    backend = ScriptedBackend(
        by_key={req.key(): ChatResponse(text="keyed response")},
        script=[ChatResponse(text="fifo 1"), ChatResponse(text="fifo 2")],
    )
    assert backend.complete(_req("other")).text == "fifo 1"
    assert backend.complete(req).text == "keyed response"
    assert backend.complete(_req("other")).text == "fifo 2"
    with pytest.raises(TransportError):
        backend.complete(_req("other"))
    assert backend.calls == 4


def test_recording_backend_round_trips_fixture(tmp_path):
    inner = ScriptedBackend(script=[ChatResponse(text="hi", usage=Usage(5, 2, 3))])
    recorder = RecordingBackend(inner)
    req = _req("record me")
    assert recorder.complete(req).text == "hi"
    path = tmp_path / "fixture.json"
    recorder.save(path)
    replay = ScriptedBackend.from_fixture(path)
    resp = replay.complete(req)
    assert resp.text == "hi"
    assert resp.usage == Usage(5, 2, 3)


def test_parse_structured_verdict_variants():
    assert parse_structured_verdict('{"a": 1}') == {"a": 1}
    assert parse_structured_verdict('prose before {"a": 1} after') == {"a": 1}
    assert parse_structured_verdict('```json\n{"a": 1}\n```') == {"a": 1}
    nested = parse_structured_verdict('{"a": {"b": "}"}}')
    assert nested == {"a": {"b": "}"}}

    failure = parse_structured_verdict("no object at all")
    assert isinstance(failure, ParseFailure)
    failure = parse_structured_verdict("{'single': 'quotes'}")
    assert isinstance(failure, ParseFailure)  # malformed JSON is never repaired
    failure = parse_structured_verdict('{"a": 1}', required_keys=("b",))
    assert isinstance(failure, ParseFailure)
    assert "b" in failure.reason


def test_parse_json_list():
    assert parse_json_list('[["a", "b", "c"]]') == [["a", "b", "c"]]
    assert parse_json_list("noise [1, 2] tail") == [1, 2]
    assert isinstance(parse_json_list("no array"), ParseFailure)
    assert isinstance(parse_json_list("[1, 2,"), ParseFailure)


# Reference: the brace-scanning parsers that _first_json replaced, kept
# to pin down that the merge changed no value and no failure reason.
_REF_FENCE_RE = re.compile(r"```(?:json)?\s*(.*?)```", re.DOTALL)


def _ref_scan_object(text, start):
    depth, in_string, escape = 0, False, False
    for i in range(start, len(text)):
        ch = text[i]
        if in_string:
            if escape:
                escape = False
            elif ch == "\\":
                escape = True
            elif ch == '"':
                in_string = False
            continue
        if ch == '"':
            in_string = True
        elif ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0:
                try:
                    return json.loads(text[start : i + 1])
                except json.JSONDecodeError:
                    return None
    return None


def _ref_parse_structured_verdict(text, required_keys=()):
    for candidate in [m.group(1) for m in _REF_FENCE_RE.finditer(text)] + [text]:
        start = candidate.find("{")
        if start < 0:
            continue
        obj = _ref_scan_object(candidate, start)
        if obj is None:
            return ParseFailure("malformed object")
        missing = [k for k in required_keys if k not in obj]
        if missing:
            return ParseFailure(f"missing keys: {', '.join(missing)}")
        return obj
    return ParseFailure("no object found")


def _ref_parse_json_list(text):
    for candidate in [m.group(1) for m in _REF_FENCE_RE.finditer(text)] + [text]:
        start = candidate.find("[")
        if start < 0:
            continue
        try:
            value, _ = json.JSONDecoder().raw_decode(candidate[start:])
        except json.JSONDecodeError:
            return ParseFailure("malformed array")
        return value if isinstance(value, list) else ParseFailure("not an array")
    return ParseFailure("no array found")


def _outcome(result):
    """Comparable form: the failure reason, or the value's repr (NaN != NaN)."""
    return ("fail", result.reason) if isinstance(result, ParseFailure) else ("ok", repr(result))


_JSONISH_ATOMS = [
    "{", "}", "[", "]", '"', "\\", "```", "```json\n", "\n", " ", ":", ",", "NaN", "-",
    "1", "2.5", "true", "null", "'", '"a"', '"b"', "\\u00e9", "x", "}}", "[[",
    '{"a": ', '"b": ', '{"is_correct": ', ", ",
]


_atoms = st.lists(st.sampled_from(_JSONISH_ATOMS), max_size=20).map("".join)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text('{}[]"\\ab`', max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["a", "b", "is_correct", "}{"]), inner, max_size=3),
    max_leaves=8,
)
_embedded = st.tuples(_atoms, _json_values.map(json.dumps), _atoms, st.booleans()).map(
    lambda t: f"{t[0]}```json\n{t[1]}```{t[2]}" if t[3] else t[0] + t[1] + t[2]
)


@settings(max_examples=600, deadline=None)
@given(
    text=_atoms | _embedded,
    required_keys=st.sampled_from([(), ("a",), ("a", "b"), ("is_correct",)]),
)
def test_json_extraction_matches_brace_scanner_reference(text, required_keys):
    assert _outcome(parse_structured_verdict(text, required_keys)) == _outcome(
        _ref_parse_structured_verdict(text, required_keys)
    )
    assert _outcome(parse_json_list(text)) == _outcome(_ref_parse_json_list(text))


@pytest.mark.parametrize("name", PROMPT_NAMES)
def test_ask_sends_the_rendered_catalog_request(name):
    sent = []

    def responder(req):
        sent.append(req)
        return ChatResponse(text="reply", usage=Usage(7, 3, 2))

    values = {p: f"value of {p}" for p in load_prompt(name).placeholders}
    prompt, resp = ask(ScriptedBackend(responder=responder), name, "model-x", **values)
    expected = build_request(load_prompt(name), model_id="model-x", **values)
    assert sent == [expected]
    assert prompt == expected.messages[0].content
    assert resp == ChatResponse(text="reply", usage=Usage(7, 3, 2))


def test_build_request_renders_single_system_message():
    req = build_request(load_prompt("judge"), question="q", predicted="p", gold_answers="[]")
    assert len(req.messages) == 1
    assert req.messages[0].role == "system"
    assert "q" in req.messages[0].content


class _FlakyHandler(BaseHTTPRequestHandler):
    behaviors = []  # status codes (200: a real completion) or bytes sent as a 200 body
    payloads = []  # every request body received, parsed

    def do_POST(self):
        self.payloads.append(json.loads(self.rfile.read(int(self.headers.get("Content-Length", 0)))))
        status = self.behaviors.pop(0) if self.behaviors else 200
        if isinstance(status, bytes):
            self._send_body(status)
            return
        if status != 200:
            self.send_response(status)
            self.send_header("Retry-After", "0")
            self.end_headers()
            return
        self._send_body(json.dumps(
            {
                "choices": [{"message": {"content": "pong"}}],
                "usage": {
                    "prompt_tokens": 10,
                    "completion_tokens": 2,
                    "prompt_tokens_details": {"cached_tokens": 4},
                },
            }
        ).encode())

    def _send_body(self, body):
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def http_server():
    server = HTTPServer(("127.0.0.1", 0), _FlakyHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()


def test_openai_backend_retries_429_then_succeeds(http_server):
    _FlakyHandler.behaviors = [429, 429]
    _FlakyHandler.payloads = []
    sleeps = []
    backend = OpenAIBackend(http_server, max_retries=3, sleep=sleeps.append)
    resp = backend.complete(_req())
    assert resp.text == "pong"
    assert len(_FlakyHandler.payloads) == 3
    assert all(p["temperature"] == 0.0 and p["max_tokens"] == 1024 for p in _FlakyHandler.payloads)
    assert resp.usage == Usage(prompt_tokens=10, cached_prompt_tokens=4, completion_tokens=2)
    assert backend.retry_count == 2
    assert sleeps == [0.0, 0.0]  # Retry-After honored


def test_openai_backend_http_date_retry_after_backs_off():
    class Reply:
        def __init__(self, status, headers=None):
            self.status_code, self.headers = status, headers or {}

        def json(self):
            return {"choices": [{"message": {"content": "pong"}}]}

    replies = [Reply(429, {"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"}), Reply(200)]

    class Session:
        def post(self, *args, **kwargs):
            return replies.pop(0)

    sleeps = []
    backend = OpenAIBackend("http://unused", backoff_base=0.25, sleep=sleeps.append,
                            session=Session())
    assert backend.complete(_req()).text == "pong"
    assert sleeps == [0.25]  # the date form falls back to exponential backoff


def test_openai_backend_gives_each_thread_its_own_session(http_server, monkeypatch):
    sessions = []

    class CountingSession(requests.Session):
        def __init__(self):
            super().__init__()
            sessions.append(self)

    monkeypatch.setattr(requests, "Session", CountingSession)
    _FlakyHandler.behaviors = []
    backend = OpenAIBackend(http_server, max_retries=0)
    start = threading.Barrier(4, timeout=30)

    def call(_):
        start.wait()
        return backend.complete(_req()).text

    with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
        assert list(pool.map(call, range(4), timeout=60)) == ["pong"] * 4
    assert len(sessions) == 4


def test_openai_backend_counts_every_retry_across_threads():
    class Reply:
        status_code, headers = 503, {}

    class Session:
        def post(self, *args, **kwargs):
            return Reply()

    backend = OpenAIBackend("http://unused", max_retries=1, sleep=lambda s: None,
                            session=Session())

    def fail_repeatedly(_):
        for _ in range(500):
            with pytest.raises(TransportError):
                backend.complete(_req())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(fail_repeatedly, range(8), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert backend.retry_count == 8 * 500  # one retry per call


def test_openai_backend_retries_5xx(http_server):
    _FlakyHandler.behaviors = [503]
    backend = OpenAIBackend(http_server, max_retries=2, backoff_base=0.0, sleep=lambda s: None)
    assert backend.complete(_req()).text == "pong"


def test_openai_backend_gives_up_after_budget(http_server):
    _FlakyHandler.behaviors = [429, 429, 429, 429]
    backend = OpenAIBackend(http_server, max_retries=2, sleep=lambda s: None)
    with pytest.raises(TransportError) as exc:
        backend.complete(_req())
    assert exc.value.attempts == 3


def test_openai_backend_non_retryable_status(http_server):
    _FlakyHandler.behaviors = [400]
    backend = OpenAIBackend(http_server, max_retries=2, sleep=lambda s: None)
    with pytest.raises(TransportError):
        backend.complete(_req())
    assert backend.retry_count == 0


def test_openai_backend_connection_failure_bounded():
    backend = OpenAIBackend(
        "http://127.0.0.1:9", timeout=0.2, max_retries=1, backoff_base=0.0, sleep=lambda s: None
    )
    with pytest.raises(TransportError) as exc:
        backend.complete(_req())
    assert exc.value.attempts == 2


@pytest.mark.parametrize(
    "body",
    [
        b"<html>not json</html>",
        b'{"id": "x"}',
        b'{"choices": []}',
        b'{"choices": [{"message": {"content": null}}]}',
        b'{"choices": [{"message": {"content": "pong"}}], "usage": {"prompt_tokens": "many"}}',
        b'{"choices": [{"message": {"content": "pong"}}], "usage": {"prompt_tokens": -3}}',
    ],
)
def test_openai_backend_malformed_200_is_transport_error(http_server, body):
    _FlakyHandler.behaviors = [body]
    backend = OpenAIBackend(http_server, max_retries=2, sleep=lambda s: None)
    with pytest.raises(TransportError, match="malformed completion body") as exc:
        backend.complete(_req())
    assert exc.value.attempts == 1
