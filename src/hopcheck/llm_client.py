"""Chat-completion backends, prompt catalog, and structured-output parsing.

One backend protocol, three implementations: an OpenAI-compatible HTTP
client, a fixture-driven scripted backend used by every offline test, and
a recording proxy that captures live transcripts into scripted fixtures.
Backends are safe to call from multiple workers; besides per-request
state they keep only per-thread digest checkpoints.
"""

from __future__ import annotations

import functools
import hashlib
import json
import re
import threading
import time
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Protocol

from .data_model import read_json, write_json

if TYPE_CHECKING:
    import requests

PROMPT_NAMES = (
    "step_generation",
    "evaluation",
    "final_answer",
    "judge",
    "plan_2wiki",
    "plan_hotpotqa",
    "plan_musique",
    "ideal_reasoning",
    "error_injection",
    "triple_extraction",
    "gleaning",
    "entity_resolution",
    "path_discovery",
)

_PLACEHOLDER_RE = re.compile(r"<<([a-z_]+)>>")


class PromptError(ValueError):
    pass


@dataclass(frozen=True)
class PromptTemplate:
    name: str
    body: str

    @functools.cached_property
    def _parts(self) -> list[str]:
        """The body split at its placeholders: literal text at even
        positions, placeholder names at odd ones."""
        return _PLACEHOLDER_RE.split(self.body)

    @functools.cached_property
    def placeholders(self) -> frozenset[str]:
        return frozenset(self._parts[1::2])

    def render(self, **values: str) -> str:
        # Fills a copy: worker threads share one template per prompt.
        parts = self._parts.copy()
        try:
            for i in range(1, len(parts), 2):
                parts[i] = str(values[parts[i]])
        except KeyError:
            missing = self.placeholders - values.keys()
            if not missing:
                raise
            raise PromptError(f"{self.name}: missing placeholders {sorted(missing)}") from None
        return "".join(parts)


@functools.cache
def load_prompt(name: str) -> PromptTemplate:
    """The catalog template `name`; read once per process, then shared."""
    if name not in PROMPT_NAMES:
        raise PromptError(f"unknown prompt {name!r}")
    body = resources.files("hopcheck.prompts").joinpath(f"{name}.txt").read_text("utf-8")
    return PromptTemplate(name=name, body=body)


@dataclass(frozen=True)
class Message:
    role: str
    content: str


@dataclass(frozen=True)
class Usage:
    prompt_tokens: int = 0
    cached_prompt_tokens: int = 0
    completion_tokens: int = 0

    def __post_init__(self) -> None:
        counts = (self.prompt_tokens, self.cached_prompt_tokens, self.completion_tokens)
        # One chained test, since a fixture builds a Usage per entry; bool is not int.
        if not type(counts[0]) is type(counts[1]) is type(counts[2]) is int:
            raise ValueError("token counts must be integers")
        if min(counts) < 0:
            raise ValueError("token counts must be >= 0")
        if self.cached_prompt_tokens > self.prompt_tokens:
            raise ValueError("cached_prompt_tokens cannot exceed prompt_tokens")


# Control characters below 0x20 other than newline, which json.dumps writes
# as \t, \b, \u0001 and so on; a string holding one takes the json.dumps path.
_RARE_CONTROLS = bytes(c for c in range(0x20) if c != 0x0A)


def _json_string_body(s: str) -> bytes:
    """The UTF-8 bytes `json.dumps(s, ensure_ascii=False)` puts between its
    quotes. Replacing ASCII bytes is safe because UTF-8 never puts an ASCII
    byte inside a multi-byte character; a lone surrogate raises
    UnicodeEncodeError."""
    b = s.encode()
    if len(b.translate(None, _RARE_CONTROLS)) != len(b):
        return json.dumps(s, ensure_ascii=False)[1:-1].encode()
    return b.replace(b"\\", b"\\\\").replace(b'"', b'\\"').replace(b"\n", b"\\n")


@dataclass(frozen=True)
class ChatRequest:
    """One rendered prompt, sent to `model_id` as a single system message."""

    prompt: str
    model_id: str = "default"

    @property
    def messages(self) -> tuple[Message]:
        """The request's wire form: the prompt as the one system message."""
        return (Message("system", self.prompt),)

    def key(self) -> str:
        """Stable digest used by scripted fixtures: the SHA-256 hex digest of
        the UTF-8 bytes of `json.dumps([model_id, ["system", prompt]],
        ensure_ascii=False)`, hashed without building that string."""
        return _PrefixDigest().key(self)


@dataclass(frozen=True)
class ChatResponse:
    text: str
    usage: Usage = field(default_factory=Usage)


class TransportError(RuntimeError):
    def __init__(self, message: str, attempts: int):
        super().__init__(f"{message} (after {attempts} attempts)")
        self.attempts = attempts


class Backend(Protocol):
    def complete(self, req: ChatRequest) -> ChatResponse: ...


# Characters per digest checkpoint. Shorter prompts (most verify and
# synth-score ones) save none, so they pay nothing for the copies.
_DIGEST_CHUNK = 4096


class _PrefixDigest(threading.local):
    """The fixture digest of each request in a stream, resumed from the
    hash state of the prefix a prompt shares with the previous prompt sent
    to the same model from the same thread; `ChatRequest.key()` is the
    digest from an empty history.

    The digest input is a header naming the model followed by the escaped
    prompt, and escaping works character by character, so the prompt can
    be hashed in pieces. Each thread keeps, per model, the previous
    prompt's whole `_DIGEST_CHUNK`-character chunks with the hash state
    after each one; a new prompt resumes from the last chunk it repeats at
    the same offset.
    """

    def __init__(self) -> None:  # runs once in each thread that uses it
        # model id -> [("", header state), (chunk 0, state after it), ...]
        self.trails: dict[str, list] = {}

    def key(self, req: ChatRequest) -> str:
        trail = self.trails.get(req.model_id)
        if trail is None:
            h = hashlib.sha256(b'["')
            h.update(_json_string_body(req.model_id))
            h.update(b'", ["system", "')
            trail = self.trails[req.model_id] = [("", h)]
        text = req.prompt
        n = 1
        while n < len(trail) and text.startswith(trail[n][0], (n - 1) * _DIGEST_CHUNK):
            n += 1
        del trail[n:]
        h = trail[-1][1]
        pos = (n - 1) * _DIGEST_CHUNK
        # A chunk that fails to encode raises before it is kept, so the
        # trail always holds a valid prefix.
        while len(text) - pos >= _DIGEST_CHUNK:
            chunk = text[pos : pos + _DIGEST_CHUNK]
            h = h.copy()
            h.update(_json_string_body(chunk))
            trail.append((chunk, h))
            pos += _DIGEST_CHUNK
        h = h.copy()
        h.update(_json_string_body(text[pos:]))
        h.update(b'"]]')
        return h.hexdigest()


class ScriptedBackend:
    """Deterministic fixture-driven backend.

    Responses are looked up by request digest first; unmatched requests
    fall back to an ordered FIFO script. The fixture is immutable after
    load; what changes is the FIFO cursor, the call counter and each
    calling thread's digest checkpoints, none of which changes a reply.
    """

    def __init__(
        self,
        by_key: dict[str, ChatResponse] | None = None,
        script: list[ChatResponse] | None = None,
        responder: Callable[[ChatRequest], ChatResponse] | None = None,
    ):
        self._by_key = dict(by_key or {})
        self._script = list(script or [])
        self._responder = responder
        self._cursor = 0
        self._lock = threading.Lock()
        self._digest = _PrefixDigest()
        self.calls = 0

    @classmethod
    def from_fixture(cls, path: str | Path) -> "ScriptedBackend":
        """The backend replaying the fixture file at `path`. A file that is
        not a list of entries raises ValueError naming `path`, and a
        malformed entry one naming `path` and the entry's index."""
        entries = read_json(path)
        if not isinstance(entries, list):
            raise ValueError(f"{path}: a fixture is a JSON list of entries")
        by_key = {}
        script = []
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict) or not isinstance(entry.get("text"), str):
                raise ValueError(f"{path}: entry {i}: not an object with a string 'text'")
            key = entry.get("key")
            if key is not None and not isinstance(key, str):
                raise ValueError(f"{path}: entry {i}: 'key' is not a string")
            try:
                usage = Usage(**entry.get("usage", {}))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}: entry {i}: bad 'usage': {exc}") from exc
            resp = ChatResponse(text=entry["text"], usage=usage)
            if key:
                by_key[key] = resp
            else:
                script.append(resp)
        return cls(by_key=by_key, script=script)

    def complete(self, req: ChatRequest) -> ChatResponse:
        key = self._digest.key(req)
        with self._lock:
            self.calls += 1
            resp = self._by_key.get(key)
            if resp is not None:
                return resp
            if self._responder is not None:
                return self._responder(req)
            if self._cursor < len(self._script):
                resp = self._script[self._cursor]
                self._cursor += 1
                return resp
        raise TransportError(f"no scripted response for request {key[:12]}", 1)


class RecordingBackend:
    """Proxy that forwards to a live backend and captures transcripts.

    `save()` writes a fixture file loadable by ScriptedBackend.from_fixture.
    """

    def __init__(self, inner: Backend):
        self._inner = inner
        self._records: list[dict] = []
        self._lock = threading.Lock()
        self._digest = _PrefixDigest()

    def complete(self, req: ChatRequest) -> ChatResponse:
        resp = self._inner.complete(req)
        key = self._digest.key(req)
        with self._lock:
            self._records.append(
                {
                    "key": key,
                    "text": resp.text,
                    "usage": {
                        "prompt_tokens": resp.usage.prompt_tokens,
                        "cached_prompt_tokens": resp.usage.cached_prompt_tokens,
                        "completion_tokens": resp.usage.completion_tokens,
                    },
                }
            )
        return resp

    def save(self, path: str | Path) -> None:
        write_json(path, self._records)


class OpenAIBackend:
    """OpenAI-compatible /v1/chat/completions client with bounded retries.

    Each calling thread gets its own requests.Session, since a session is
    not safe to share between threads; an injected session is used as is.
    `requests` is imported by the constructor, not by this module, so
    commands that never build this backend start without the HTTP stack;
    build it before starting worker threads.
    """

    def __init__(
        self,
        base_url: str,
        api_key: str = "",
        timeout: float = 60.0,
        max_retries: int = 3,
        backoff_base: float = 0.5,
        backoff_cap: float = 30.0,
        sleep: Callable[[float], None] = time.sleep,
        session: requests.Session | None = None,
    ):
        import requests  # noqa: F401  (loads the HTTP stack on the constructing thread)

        self.base_url = base_url.rstrip("/")
        self.api_key = api_key
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self._sleep = sleep
        self._session = session
        self._local = threading.local()
        self._lock = threading.Lock()
        self.retry_count = 0

    def _thread_session(self) -> requests.Session:
        if self._session is not None:
            return self._session
        if not hasattr(self._local, "session"):
            import requests  # already loaded by __init__

            self._local.session = requests.Session()
        return self._local.session

    def complete(self, req: ChatRequest) -> ChatResponse:
        import requests  # already loaded by __init__

        payload = {
            "model": req.model_id,
            "messages": [{"role": m.role, "content": m.content} for m in req.messages],
            "temperature": 0.0,
            "max_tokens": 1024,
        }
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        url = f"{self.base_url}/v1/chat/completions"
        last_error = "unreachable"
        attempts = 0
        session = self._thread_session()
        for attempt in range(self.max_retries + 1):
            attempts = attempt + 1
            try:
                resp = session.post(url, json=payload, headers=headers, timeout=self.timeout)
            except requests.RequestException as exc:
                last_error = f"transport failure: {exc}"
                self._backoff(attempt, None)
                continue
            if resp.status_code == 429:
                last_error = "rate limited"
                # Delay-seconds only; the HTTP-date form falls back to backoff.
                retry_after = resp.headers.get("Retry-After", "")
                self._backoff(attempt, float(retry_after) if retry_after.isdigit() else None)
                continue
            if resp.status_code >= 500:
                last_error = f"server error {resp.status_code}"
                self._backoff(attempt, None)
                continue
            if resp.status_code != 200:
                raise TransportError(f"HTTP {resp.status_code}: {resp.text[:200]}", attempts)
            try:
                return _parse_openai_response(resp.json())
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                raise TransportError(f"malformed completion body: {exc!r}", attempts) from exc
        raise TransportError(last_error, attempts)

    def _backoff(self, attempt: int, retry_after: float | None) -> None:
        if attempt >= self.max_retries:
            return
        with self._lock:
            self.retry_count += 1
        delay = retry_after if retry_after is not None else self.backoff_base * (2**attempt)
        self._sleep(min(delay, self.backoff_cap))


def _parse_openai_response(body: dict) -> ChatResponse:
    text = body["choices"][0]["message"]["content"]
    if not isinstance(text, str):
        raise TypeError(f"message content is {type(text).__name__}, not a string")
    usage = body.get("usage") or {}
    prompt_tokens = int(usage.get("prompt_tokens", 0))
    details = usage.get("prompt_tokens_details") or {}
    cached = int(details.get("cached_tokens", usage.get("cached_prompt_tokens", 0)))
    return ChatResponse(
        text=text,
        usage=Usage(
            prompt_tokens=prompt_tokens,
            cached_prompt_tokens=min(cached, prompt_tokens),
            completion_tokens=int(usage.get("completion_tokens", 0)),
        ),
    )


@dataclass(frozen=True)
class ParseFailure:
    reason: str


_FENCE_RE = re.compile(r"```(?:json)?\s*(.*?)```", re.DOTALL)
# raw_decode keeps no state between calls, so one decoder serves every
# thread, as the one behind json.loads does.
_DECODER = json.JSONDecoder()


def _first_json(text: str, opener: str, what: str) -> dict | list | ParseFailure:
    """The JSON value opening at the first `opener` of the first fenced
    block that holds one, else of the whole text; never repairs JSON."""
    for candidate in _FENCE_RE.findall(text) + [text]:
        start = candidate.find(opener)
        if start < 0:
            continue
        try:
            return _DECODER.raw_decode(candidate, start)[0]
        except json.JSONDecodeError:
            return ParseFailure(f"malformed {what}")
    return ParseFailure(f"no {what} found")


def parse_structured_verdict(
    text: str, required_keys: tuple[str, ...] = ()
) -> dict | ParseFailure:
    """Extract the first JSON object from a completion, ignoring code
    fences and surrounding prose, and check it has `required_keys`."""
    obj = _first_json(text, "{", "object")
    if isinstance(obj, ParseFailure):
        return obj
    missing = [k for k in required_keys if k not in obj]
    if missing:
        return ParseFailure(f"missing keys: {', '.join(missing)}")
    return obj


def parse_json_list(text: str) -> list | ParseFailure:
    """Extract the first JSON array (triple lists, plan step lists)."""
    return _first_json(text, "[", "array")


def build_request(
    template: PromptTemplate,
    model_id: str = "default",
    **values: str,
) -> ChatRequest:
    """Render a catalog prompt into a single system-message request."""
    return ChatRequest(template.render(**values), model_id=model_id)


def ask(backend: Backend, prompt: str, model_id: str, **values: str) -> tuple[str, ChatResponse]:
    """Send catalog prompt `prompt`, rendered with `values`, as one request.

    The only way the package calls a backend. Returns the rendered prompt
    text with the response.
    """
    req = build_request(load_prompt(prompt), model_id=model_id, **values)
    return req.prompt, backend.complete(req)
