"""Command-line entry point: config wiring, subcommands, artifact output."""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import __version__
from .data_model import (
    Dataset, FeedbackMode, MalformedRecordError, canonical_row, load_canonical, load_instances,
    read_json, read_jsonl, write_json, write_jsonl,
)
from .extraction_pipeline import MAX_GLEANING_ROUNDS, VERIFY_MODES, NoiseStats, verify_instance
from .kg_graph import NoiseLabel
from .llm_client import OpenAIBackend, ScriptedBackend, TransportError
from .metrics import score_answer, score_table

# `run` imports feedback_loop, and `synthesize` datagen (which imports the
# loop), inside the command: no other command loads either, or the step
# grammar and taxonomy they pull in.


class ConfigError(ValueError):
    pass


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    cfg = read_json(path)
    if not isinstance(cfg, dict):
        raise ConfigError("config file must hold a JSON object")
    return cfg


def _build_backend(spec: dict | None):
    """The backend a `backend` or `evaluator_backend` config spec names.
    Commands build every backend before starting worker threads, so an
    `openai` backend imports its HTTP stack on the main thread."""
    if spec is None:
        spec = {}
    if not isinstance(spec, dict):
        raise ConfigError(f"backend spec {spec!r} is not a JSON object")
    kind = spec.get("type", "scripted")
    if kind == "scripted":
        fixture = spec.get("fixture")
        if fixture is not None and not isinstance(fixture, str):
            raise ConfigError(f"backend 'fixture' {fixture!r} is not a path string")
        if fixture:
            return ScriptedBackend.from_fixture(fixture)
        return ScriptedBackend()
    if kind == "openai":
        try:
            base_url = spec["base_url"]
        except KeyError as exc:
            raise ConfigError("backend config missing key 'base_url'") from exc
        key_env = spec.get("api_key_env", "HOPCHECK_API_KEY")
        if not isinstance(base_url, str) or not isinstance(key_env, str):
            raise ConfigError("backend 'base_url' and 'api_key_env' must be strings")
        return OpenAIBackend(base_url=base_url, api_key=os.environ.get(key_env, ""))
    raise ConfigError(f"unknown backend type {kind!r}")


def _model_id(resolved: dict, key: str, default: str = "default") -> str:
    """The model id under `key`; one that is not a string is a ConfigError."""
    model_id = resolved.get(key, default)
    if not isinstance(model_id, str):
        raise ConfigError(f"{key} {model_id!r} is not a string")
    return model_id


def _echo_config(out_dir: Path, command: str, resolved: dict) -> None:
    """resolved_config.json: the settings without backend specs, plus command and version."""
    out_dir.mkdir(parents=True, exist_ok=True)
    echo = {k: v for k, v in resolved.items() if k not in ("backend", "evaluator_backend")}
    echo.update(command=command, version=__version__)
    write_json(out_dir / "resolved_config.json", echo)


def _merged(config: dict, args: argparse.Namespace, keys: tuple[str, ...]) -> dict:
    """Flags override config scalars; unset flags fall back to config."""
    resolved = dict(config)
    for key in keys:
        value = getattr(args, key, None)
        if value is not None:
            resolved[key] = value
    return resolved


def _noise_stats(rows: list[dict], source: str | Path, out_dir: Path | None) -> NoiseStats:
    """The noise counts of report rows, written to out_dir/noise_stats.json
    unless out_dir is None; a null label counts as unverified. A row
    without a noise_label, or with a label that is not null or a
    NoiseLabel value, raises MalformedRecordError naming `source` and
    the row."""
    labels, known = [], (None, *NoiseLabel)
    for i, row in enumerate(rows):
        if "noise_label" not in row:
            raise MalformedRecordError(source, i, "no noise_label")
        label = row["noise_label"]
        if label not in known:
            raise MalformedRecordError(source, i, f"noise_label {label!r} is not a noise label")
        labels.append(label)
    stats = NoiseStats.from_labels(labels)
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        write_json(out_dir / "noise_stats.json", stats.to_dict())
    return stats


def _cmd_ingest(args: argparse.Namespace, config: dict) -> int:
    resolved = _merged(config, args, ("dataset", "seed"))
    seed = int(resolved.get("seed", 0))
    dataset = resolved.get("dataset", "canonical")
    instances = load_instances(args.infile, Dataset(dataset), seed)
    out_dir = Path(args.out)
    _echo_config(out_dir, "ingest", resolved)
    write_jsonl(out_dir / "instances.jsonl", map(canonical_row, instances))
    print(f"ingested {len(instances)} instances")
    return 0


def _cmd_verify(args: argparse.Namespace, config: dict) -> int:
    resolved = _merged(config, args, ("mode", "model"))
    mode = resolved.get("mode", "deterministic")
    if mode not in VERIFY_MODES:
        raise ConfigError(f"mode must be one of {VERIFY_MODES}")
    model_id = _model_id(resolved, "model")
    instances = load_canonical(args.infile)
    seen: set[str] = set()
    for inst in instances:
        # The id names the instance's kg/<id>.jsonl file.
        if inst.id in ("", ".", "..") or "/" in inst.id or "\\" in inst.id:
            raise ConfigError(f"instance id {inst.id!r} is not a plain file name")
        if inst.id in seen:
            raise ConfigError(f"instance id {inst.id!r} occurs more than once")
        seen.add(inst.id)
    if args.dry_run:
        per = 0
        for inst in instances:
            gold = len(inst.gold_passages)
            per += gold * (1 + MAX_GLEANING_ROUNDS) + 1 + (1 if mode != "deterministic" else 0)
        print(f"dry-run: at most {per} backend requests over {len(instances)} instances")
        return 0
    backend = _build_backend(resolved.get("backend"))
    out_dir = Path(args.out)
    _echo_config(out_dir, "verify-benchmark", resolved)
    (out_dir / "kg").mkdir(exist_ok=True)
    # Only the rows outlive the loop: each report, graph and verdict triples
    # included, is released when the next instance's report replaces it.
    rows = []
    for inst in instances:
        report = verify_instance(backend, inst, mode=mode, model_id=model_id)
        # vars, not dataclasses.asdict, which deep-copies every edge.
        write_jsonl(out_dir / "kg" / f"{inst.id}.jsonl", map(vars, report.kg.edges))
        rows.append(report.to_dict())
    write_jsonl(out_dir / "reports.jsonl", rows)
    write_jsonl(out_dir / "disagreements.jsonl", [row for row in rows if row["disagreement"]])
    stats = _noise_stats(rows, out_dir / "reports.jsonl", out_dir)
    print(f"verified {stats.total} instances; noise {stats.percent:.2f}%")
    return 0


def _cmd_run(args: argparse.Namespace, config: dict) -> int:
    from .feedback_loop import LoopConfig, run_corpus

    resolved = _merged(config, args, ("mode", "k", "n", "workers", "generator_model", "evaluator_model"))
    cfg = LoopConfig(
        max_steps=int(resolved.get("k", 10)),
        max_retries=int(resolved.get("n", 3)),
        mode=FeedbackMode(resolved.get("mode", "safe")),
        generator_model=_model_id(resolved, "generator_model", "generator"),
        evaluator_model=_model_id(resolved, "evaluator_model", "evaluator"),
    )
    instances = load_canonical(args.infile)
    if args.dry_run:
        worst = len(instances) * (
            cfg.max_steps * (cfg.max_retries + 1) * 2 + 1
        )
        print(f"dry-run: at most {worst} backend requests over {len(instances)} instances")
        return 0
    generator = _build_backend(resolved.get("backend"))
    # Only safe mode calls the evaluator backend.
    evaluator = (
        _build_backend(resolved["evaluator_backend"])
        if cfg.mode is FeedbackMode.EXTERNAL_FEEDBACK and resolved.get("evaluator_backend")
        else generator
    )
    out_dir = Path(args.out)
    _echo_config(out_dir, "run", {
        **resolved, "k": cfg.max_steps, "n": cfg.max_retries, "mode": cfg.mode.value,
    })
    records, aggregate = run_corpus(
        cfg, instances, generator, evaluator, workers=int(resolved.get("workers", 1))
    )
    write_jsonl(out_dir / "runs.jsonl", (rec.to_dict() for rec in records))
    write_json(out_dir / "aggregate.json", aggregate)
    write_json(out_dir / "ledger.json", aggregate["ledger"])
    print(f"ran {len(records)} instances; retries {aggregate['retries']}")
    return 0


def _cmd_synthesize(args: argparse.Namespace, config: dict) -> int:
    from .datagen import (
        DatagenError, DatasetConfig, build_dataset, generate_ideal, generate_plan,
        import_refined,
    )

    resolved = _merged(config, args, ("total", "seed", "ideal_fraction", "model"))
    dataset_cfg = DatasetConfig(
        total=int(resolved.get("total", 100)),
        ideal_fraction=float(resolved.get("ideal_fraction", 0.34)),
    )
    model_id = _model_id(resolved, "model")
    instances = load_canonical(args.infile)
    by_id = {inst.id: inst for inst in instances}
    refined = []
    for i, record in enumerate(read_jsonl(args.refined) if args.refined else []):
        try:
            refined.append(import_refined(record, by_id))
        except DatagenError as exc:
            raise MalformedRecordError(args.refined, i, str(exc)) from exc
    if args.dry_run:
        worst = len(instances) * 2 + dataset_cfg.total
        print(f"dry-run: at most {worst} backend requests over {len(instances)} instances")
        return 0
    backend = _build_backend(resolved.get("backend"))
    pool = []
    for inst in instances:
        try:
            plan = generate_plan(backend, inst.question, inst.dataset, model_id=model_id)
            pool.append((inst, generate_ideal(backend, inst, plan, model_id=model_id)))
        except (DatagenError, TransportError) as exc:
            raise DatagenError(f"instance {inst.id}: {exc}") from exc
    examples, manifest = build_dataset(backend, pool, dataset_cfg, refined, model_id)
    out_dir = Path(args.out)
    _echo_config(out_dir, "synthesize", resolved)
    write_jsonl(out_dir / "train.jsonl", (ex.to_dict() for ex in examples))
    write_json(out_dir / "manifest.json", manifest)
    print(f"synthesized {manifest['total']} examples")
    return 0


def _cmd_score(args: argparse.Namespace, config: dict) -> int:
    resolved = _merged(config, args, ("judge", "model"))
    model_id = _model_id(resolved, "model")
    instances = {inst.id: inst for inst in load_canonical(args.infile)}
    runs = read_jsonl(args.runs)
    use_judge = resolved.get("judge", "off") == "on"
    if args.dry_run:
        print(f"dry-run: at most {len(runs) if use_judge else 0} backend requests")
        return 0
    backend = _build_backend(resolved.get("backend")) if use_judge else None
    out_dir = Path(args.out)
    _echo_config(out_dir, "score", resolved)
    scored = []
    for i, run in enumerate(runs):
        iid, pred = run.get("instance_id"), run.get("answer")
        inst = instances.get(iid) if isinstance(iid, str) else None
        if inst is None:
            raise MalformedRecordError(args.runs, i, f"instance_id {iid!r} names no instance")
        if pred is not None and not isinstance(pred, str):
            raise MalformedRecordError(args.runs, i, f"answer {pred!r} is not a string or null")
        pred = pred or ""
        verdict = score_answer(pred, inst.gold_answers, backend, inst.question, model_id)
        scored.append((inst, pred, verdict))
    write_jsonl(out_dir / "scores.jsonl", ({
        "instance_id": inst.id,
        "dataset": inst.dataset.value,
        "pred": pred,
        "em": verdict.em,
        "f1": round(verdict.f1, 6),
        "judge": verdict.judge.value,
        "judge_reasoning": verdict.judge_reasoning,
    } for inst, pred, verdict in scored))
    table = score_table([(inst.dataset.value, verdict) for inst, _, verdict in scored])
    write_json(out_dir / "aggregate.json", {"table": table, "rows": len(scored)})
    print(f"scored {len(scored)} runs")
    return 0


def _cmd_stats(args: argparse.Namespace, config: dict) -> int:
    del config
    out_dir = Path(args.out) if args.out else None
    stats = _noise_stats(read_jsonl(args.infile), args.infile, out_dir)
    print(f"{stats.percent:.2f}%")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopcheck",
        description="Multi-hop QA benchmark verification and step-level feedback loop.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, dry_run: bool = True) -> None:
        p.add_argument("--config", help="JSON config file; flags override its scalars")
        if dry_run:
            p.add_argument("--dry-run", action="store_true",
                           help="print the planned request count; no backend calls")
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("ingest", help="normalize a benchmark file into canonical JSONL")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--dataset", choices=[d.value for d in Dataset])
    p.add_argument("--seed", type=int)
    common(p, dry_run=False)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("verify-benchmark", help="KG-grounded noise verification")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--mode", choices=list(VERIFY_MODES))
    p.add_argument("--model")
    common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("run", help="generator/evaluator feedback-loop runs")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--mode", choices=[m.value for m in FeedbackMode])
    p.add_argument("--k", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--workers", type=int)
    p.add_argument("--generator-model", dest="generator_model")
    p.add_argument("--evaluator-model", dest="evaluator_model")
    common(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("synthesize", help="taxonomy-guided training-data synthesis")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--total", type=int)
    p.add_argument("--seed", type=int,
                   help="echoed into resolved_config.json only; synthesis is deterministic")
    p.add_argument("--ideal-fraction", dest="ideal_fraction", type=float)
    p.add_argument("--refined", help="JSONL of externally refined hard cases")
    p.add_argument("--model")
    common(p)
    p.set_defaults(func=_cmd_synthesize)

    p = sub.add_parser("score", help="EM/F1/judge scoring of run records")
    p.add_argument("--runs", required=True)
    p.add_argument("--in", dest="infile", required=True, help="canonical instances")
    p.add_argument("--judge", choices=["on", "off"])
    p.add_argument("--model")
    common(p)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("stats", help="noise statistics over a reports file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = _load_config(getattr(args, "config", None))
        return args.func(args, config)
    except (ValueError, OSError, KeyError, TransportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
