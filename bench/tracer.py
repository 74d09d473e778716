"""Span tracing from outside the program.

`Tracer.install` replaces each listed hopcheck function, in every
hopcheck module that binds it, with a wrapper that records a span:
name, start, end, parent span and item id. Spans stay in memory; the
summary (per-span self time, counts, layer shares) is computed once the
measured passes are over. `ItemTimer` is the untraced variant: one
timestamp pair around the per-item entry points and nothing else.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter, defaultdict

clock = time.perf_counter_ns

LAYERS = (
    "textnorm", "data_model", "llm_client", "step_grammar", "taxonomy", "kg_graph",
    "extraction_pipeline", "feedback_loop", "metrics", "datagen", "cli",
)
# Fixed here rather than read from the program, so the metric list in
# BENCHMARK.json stays the same when the prompt catalog changes.
PROMPTS = (
    "step_generation", "evaluation", "final_answer", "judge", "plan_2wiki", "plan_hotpotqa",
    "plan_musique", "ideal_reasoning", "error_injection", "triple_extraction", "gleaning",
    "entity_resolution", "path_discovery",
)


class _Patcher:
    """Rebinds a function everywhere hopcheck imported it; undoable."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, module_name: str, attr: str, make_wrapper) -> None:
        module = importlib.import_module(f"hopcheck.{module_name}")
        if "." in attr:  # a method, patched on its class
            owner_name, method = attr.split(".")
            owner = getattr(module, owner_name)
            original = owner.__dict__[method]
            self._undo.append((owner, method, original))
            setattr(owner, method, make_wrapper(original))
            return
        original = getattr(module, attr)
        wrapper = make_wrapper(original)
        for name, mod in list(sys.modules.items()):
            if not name.startswith("hopcheck"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def restore(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()


class _ItemIds:
    """Item ids for entry points whose arguments carry none (examples, rows)."""

    def __init__(self) -> None:
        self.counts: Counter = Counter()

    def make(self, prefix: str):
        def item_of(args):
            self.counts[prefix] += 1
            return f"{prefix}{self.counts[prefix]}"
        return item_of


def _instance_id(args):
    return args[1].id


# Per-item entry points: (module that binds it, attribute, layer, item-id source).
def item_entry_points(ids: _ItemIds):
    return (
        ("cli", "verify_instance", "extraction_pipeline", _instance_id),
        ("feedback_loop", "run_instance", "feedback_loop", _instance_id),
        ("datagen", "ideal_example", "datagen", ids.make("ex")),
        ("datagen", "inject_error", "datagen", ids.make("ex")),
        ("cli", "score_answer", "metrics", ids.make("row")),
    )


ITEM_SPANS = (
    "extraction_pipeline.verify_instance",
    "feedback_loop.run_instance",
    "datagen.ideal_example",
    "datagen.inject_error",
    "metrics.score_answer",
)


class ItemTimer:
    """Untraced mode: one timestamp pair per item, nothing else."""

    def __init__(self) -> None:
        self.latencies_ns: list[int] = []
        self._patcher = _Patcher()
        self._ids = _ItemIds()

    def install(self) -> None:
        sink = self.latencies_ns

        def timed(fn):
            def wrapper(*args, **kwargs):
                start = clock()
                result = fn(*args, **kwargs)
                sink.append(clock() - start)
                return result
            return wrapper

        for module, attr, _, _ in item_entry_points(self._ids):
            self._patcher.replace(module, attr, timed)

    def uninstall(self) -> None:
        self._patcher.restore()


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index, item]
        self.counts: Counter = Counter()
        self.item: tuple[int, str] | None = None  # (pass, item id)
        self._stack: list[int] = []
        self._patcher = _Patcher()
        self._ids = _ItemIds()
        self._prompt_of: dict[int, tuple[object, str]] = {}
        self._glean_requests: list[str] = []
        self._deferred: list[tuple[str, tuple]] = []
        self.passes = 0

    # -- recording -------------------------------------------------------
    def _wrap(self, name: str, item_of=None, observe=None):
        spans, stack = self.spans, self._stack

        def make(fn):
            def traced(*args, **kwargs):
                record = [name, 0, 0, stack[-1] if stack else -1, self.item]
                stack.append(len(spans))
                spans.append(record)
                outer = self.item
                if item_of is not None:
                    self.item = record[4] = (self.passes, item_of(args))
                record[1] = clock()
                try:
                    result = fn(*args, **kwargs)
                except BaseException as exc:
                    record[2] = clock()
                    stack.pop()
                    self.item = outer
                    if observe is not None:
                        observe(args, kwargs, None, exc)
                    raise
                record[2] = clock()
                stack.pop()
                self.item = outer
                if observe is not None:
                    observe(args, kwargs, result, None)
                return result
            return traced

        return make

    def open_span(self, name: str) -> list:
        record = [name, clock(), 0, self._stack[-1] if self._stack else -1, self.item]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def close_span(self, record: list) -> None:
        record[2] = clock()
        self._stack.pop()

    def _count(self, key: str):
        counts = self.counts

        def observe(args, kwargs, result, error):
            counts[key + ".calls"] += 1
            if error is not None or type(result).__name__ == "ParseFailure":
                counts[key + ".failures"] += 1
        return observe

    def install(self) -> None:
        counts, prompt_of = self.counts, self._prompt_of

        def on_build_request(args, kwargs, result, error):
            if result is not None:
                prompt_of[id(result)] = (result, args[0].name)
                if args[0].name == "gleaning":
                    self._glean_requests.append(kwargs["existing_triples"])

        def on_backend(args, kwargs, result, error):
            entry = prompt_of.pop(id(args[1]), None)
            counts["llm_client.calls_by_prompt." + (entry[1] if entry else "unknown")] += 1

        def on_glean(args, kwargs, result, error):
            requests, self._glean_requests = self._glean_requests, []
            if result is not None:
                self._deferred.append(("glean", (requests, len(args[2]), len(result[0]))))

        def on_classify(args, kwargs, result, error):
            if result is not None and result.value == "EntityConflation":
                counts["kg_graph.entity_conflation"] += 1

        def on_run(args, kwargs, result, error):
            if result is not None:
                self._deferred.append(("run", (result,)))

        targets = [
            ("textnorm", "rough_token_count", None),
            ("data_model", "load_canonical", None),
            ("llm_client", "load_prompt", None),
            ("llm_client", "build_request", on_build_request),
            ("llm_client", "PromptTemplate.render", None),
            ("llm_client", "parse_json_list", self._count("llm_client.parse_json_list")),
            ("llm_client", "parse_structured_verdict", self._count("llm_client.parse_structured_verdict")),
            ("llm_client", "ScriptedBackend.complete", on_backend),
            ("step_grammar", "parse_step", self._count("step_grammar.parse_step")),
            ("step_grammar", "render_trajectory", None),
            ("taxonomy", "validate_feedback", None),
            ("kg_graph", "build_kg", None),
            ("kg_graph", "find_grounded_path", None),
            ("kg_graph", "classify_noise", on_classify),
            ("extraction_pipeline", "extract_triples", None),
            ("extraction_pipeline", "glean", on_glean),
            ("extraction_pipeline", "resolve_entities", None),
            ("feedback_loop", "update_ledger", None),
            ("feedback_loop", "aggregate_runs", None),
            ("datagen", "generate_plan", None),
            ("datagen", "generate_ideal", None),
            ("datagen", "build_dataset", None),
            ("metrics", "judge", None),
        ]
        for module, attr, observe in targets:
            label = "backend" if attr == "ScriptedBackend.complete" else attr.split(".")[-1]
            self._patcher.replace(module, attr, self._wrap(f"{module}.{label}", None, observe))
        for module, attr, layer, item_of in item_entry_points(self._ids):
            observe = on_run if attr == "run_instance" else None
            self._patcher.replace(module, attr, self._wrap(f"{layer}.{attr}", item_of, observe))

    def uninstall(self) -> None:
        self._patcher.restore()

    def end_pass(self) -> None:
        """Fold deferred observations into counts; cheap work kept out of spans."""
        self.passes += 1
        self._ids.counts.clear()
        for kind, payload in self._deferred:
            if kind == "glean":
                requests, existing, added = payload
                sizes = [len(json.loads(r)) for r in requests] + [existing + added]
                self.counts["extraction_pipeline.glean.rounds"] += len(requests)
                self.counts["extraction_pipeline.glean.fresh_rounds"] += sum(
                    1 for a, b in zip(sizes, sizes[1:]) if b > a
                )
            else:
                events = Counter(e.kind for e in payload[0].events)
                self.counts["feedback_loop.steps_proposed"] += events["step_proposed"]
                self.counts["feedback_loop.steps_accepted"] += events["step_accepted"]
        self._deferred.clear()

    # -- summary ---------------------------------------------------------
    def summary(self) -> dict:
        """Per-layer metrics, normalized per corpus pass."""
        passes = max(self.passes, 1)
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self_ns: dict[str, int] = defaultdict(int)
        calls: Counter = Counter()
        layer_ns: dict[str, int] = defaultdict(int)
        item_ns: dict[tuple, int] = {}
        item_layer: dict[tuple, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        rebuilds = 0
        run_calls = 0
        run_items = {s[4] for s in self.spans if s[0] == "feedback_loop.run_instance"}
        for i, (name, start, end, parent, item) in enumerate(self.spans):
            own = end - start - child_ns[i]
            layer = name.split(".")[0]
            self_ns[name] += own
            calls[name] += 1
            layer_ns[layer] += own
            if item is not None:
                item_layer[item][layer] += own
            if name in ITEM_SPANS:
                item_ns[item] = end - start
            elif name == "kg_graph.build_kg" and parent >= 0 and self.spans[parent][0] == "kg_graph.classify_noise":
                rebuilds += 1
            elif name == "llm_client.backend" and item in run_items:
                run_calls += 1
        c = self.counts

        def ms(name: str) -> float:
            return self_ns.get(name, 0) / 1e6 / passes

        def per_pass(name: str) -> float:
            return calls.get(name, 0) / passes

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        m = {
            "kg_graph.build_kg.calls": per_pass("kg_graph.build_kg"),
            "kg_graph.build_kg.self_ms": ms("kg_graph.build_kg"),
            "kg_graph.find_grounded_path.calls": per_pass("kg_graph.find_grounded_path"),
            "kg_graph.find_grounded_path.self_ms": ms("kg_graph.find_grounded_path"),
            "kg_graph.classify_noise.self_ms": ms("kg_graph.classify_noise"),
            "kg_graph.rebuild_hit_ratio": ratio(c["kg_graph.entity_conflation"], rebuilds),
            "extraction_pipeline.extract_triples.self_ms": ms("extraction_pipeline.extract_triples"),
            "extraction_pipeline.glean.self_ms": ms("extraction_pipeline.glean"),
            "extraction_pipeline.glean.fresh_ratio": ratio(
                c["extraction_pipeline.glean.fresh_rounds"], c["extraction_pipeline.glean.rounds"]
            ),
            "extraction_pipeline.resolve_entities.self_ms": ms("extraction_pipeline.resolve_entities"),
            "extraction_pipeline.verify_instance.self_ms": ms("extraction_pipeline.verify_instance"),
            "feedback_loop.run_instance.self_ms_per_call": ratio(
                self_ns.get("feedback_loop.run_instance", 0) / 1e6, run_calls
            ),
            "feedback_loop.update_ledger.self_ms": ms("feedback_loop.update_ledger"),
            "feedback_loop.aggregate_runs.self_ms": ms("feedback_loop.aggregate_runs"),
            "feedback_loop.accept_ratio": ratio(
                c["feedback_loop.steps_accepted"], c["feedback_loop.steps_proposed"]
            ),
            "textnorm.rough_token_count.calls": per_pass("textnorm.rough_token_count"),
            "textnorm.rough_token_count.self_ms": ms("textnorm.rough_token_count"),
            "llm_client.load_prompt.calls": per_pass("llm_client.load_prompt"),
            "llm_client.load_prompt.self_ms": ms("llm_client.load_prompt"),
            "llm_client.render.self_ms": ms("llm_client.render"),
            "llm_client.parse_json_list.self_ms": ms("llm_client.parse_json_list"),
            "llm_client.parse_json_list.failures": c["llm_client.parse_json_list.failures"] / passes,
            "llm_client.parse_structured_verdict.self_ms": ms("llm_client.parse_structured_verdict"),
            "llm_client.parse_structured_verdict.failures": (
                c["llm_client.parse_structured_verdict.failures"] / passes
            ),
            "llm_client.backend.calls": per_pass("llm_client.backend"),
            "llm_client.backend.self_ms": ms("llm_client.backend"),
        }
        for prompt in PROMPTS:
            m[f"llm_client.calls_by_prompt.{prompt}"] = c[f"llm_client.calls_by_prompt.{prompt}"] / passes
        m.update({
            "step_grammar.parse_step.calls": per_pass("step_grammar.parse_step"),
            "step_grammar.parse_step.self_ms": ms("step_grammar.parse_step"),
            "step_grammar.parse_step.ok_ratio": ratio(
                c["step_grammar.parse_step.calls"] - c["step_grammar.parse_step.failures"],
                c["step_grammar.parse_step.calls"],
            ),
            "step_grammar.render_trajectory.self_ms": ms("step_grammar.render_trajectory"),
            "taxonomy.validate_feedback.self_ms": ms("taxonomy.validate_feedback"),
            "datagen.generate_plan.self_ms": ms("datagen.generate_plan"),
            "datagen.generate_ideal.self_ms": ms("datagen.generate_ideal"),
            "datagen.inject_error.self_ms": ms("datagen.inject_error"),
            "datagen.build_dataset.self_ms": ms("datagen.build_dataset"),
            "metrics.score_answer.self_ms": ms("metrics.score_answer"),
            "metrics.judge.calls": per_pass("metrics.judge"),
            "data_model.load_canonical.self_ms": ms("data_model.load_canonical"),
            "cli.self_ms": ms("cli.main"),
        })
        total_ns = sum(layer_ns.values())
        for layer in LAYERS:
            m[f"trace.share.{layer}"] = ratio(layer_ns.get(layer, 0), total_ns)
        # Layer shares over the slowest 5% of items: what sets item_ms.p95.
        ranked = sorted(item_ns, key=item_ns.get)
        tail = ranked[len(ranked) - max(1, len(ranked) // 20):] if ranked else []
        tail_layers: dict[str, int] = defaultdict(int)
        for item in tail:
            for layer, ns in item_layer[item].items():
                tail_layers[layer] += ns
        tail_total = sum(tail_layers.values())
        m["trace.p95_tail_share.kg_graph"] = ratio(tail_layers.get("kg_graph", 0), tail_total)
        return {
            "metrics": m,
            "details": {
                "passes": passes,
                "layer_self_ms_per_pass": {k: v / 1e6 / passes for k, v in sorted(layer_ns.items())},
                "span_self_ms_per_pass": {k: v / 1e6 / passes for k, v in sorted(self_ns.items())},
                "span_calls_per_pass": {k: v / passes for k, v in sorted(calls.items())},
                "tail_items": sorted({item[1] for item in tail}),
                "tail_layer_share": {k: ratio(v, tail_total) for k, v in sorted(tail_layers.items())},
                "counts": dict(sorted(c.items())),
            },
        }

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "item"], "spans": self.spans}, fh)
