"""Command-line front end: validate, anonymize, run, report, demo.

Exit codes are a stable contract: 0 success, 1 domain failure (findings,
unreachable backend, metrics mismatch), 2 usage or input error. Settings
resolve in precedence order defaults, config file, environment, flags.

The config file is INI-style with [backend], [generation] and [run]
sections; TRIAGE_CONFIG points at it and TRIAGE_BACKEND_URL overrides the
server URL. All output paths are explicit flags.
"""
from __future__ import annotations

import argparse
import configparser
import os
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Callable

from .anonymizer import (
    RedactionRule,
    RuleCompileError,
    RuleKind,
    anonymize,
    default_rules,
)
from .backend import (
    DEFAULT_BASE_URL,
    RETRY_BACKOFF_S,
    GenerationParams,
    OllamaBackend,
    ScriptedBackend,
    registry_group,
    resolve_model,
)
from .corpus import Corpus, CorpusError, load_corpus, save_corpus, validate_corpus
from .demo import (
    DEMO_MODEL_NAME,
    build_demo_script,
    diff_against_golden,
    golden_path,
    load_demo_corpus,
    run_demo,
)
from .metrics import (
    REPORT_FORMATS,
    MetricsError,
    compare_to_reference,
    compute_metrics,
    render_report,
)
from .runner import (
    RunError,
    RunPlan,
    RunRecord,
    execute,
    load_run_records,
    resume_scan,
)
from .techniques import TechniqueConfig, TechniqueId, TemplateError, load_templates
from .util import canonical_dumps, write_whole

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2

ENV_BACKEND_URL = "TRIAGE_BACKEND_URL"
ENV_CONFIG = "TRIAGE_CONFIG"

ALL_TECHNIQUES = tuple(t.value for t in TechniqueId)


class CliError(Exception):
    """Carries the exit code alongside the message."""

    def __init__(self, message: str, code: int = EXIT_USAGE) -> None:
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class CliConfig:
    """Run settings; a default the CLI does not own is read from its owner."""

    backend_url: str = DEFAULT_BASE_URL
    retries: int = len(RETRY_BACKOFF_S)
    models: tuple[str, ...] = (DEMO_MODEL_NAME,)
    techniques: tuple[str, ...] = ALL_TECHNIQUES
    temperature: float = GenerationParams.temperature
    max_output_tokens: int = GenerationParams.max_output_tokens
    input_token_budget: int = GenerationParams.input_token_budget
    request_timeout: float = GenerationParams.request_timeout
    seed: int = GenerationParams.seed
    max_rounds: int = TechniqueConfig.max_rounds
    parallelism: int = RunPlan.parallelism
    templates_dir: str | None = None


def _split_list(raw: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in raw.split(",") if part.strip())


# [section] key -> (CliConfig field, parser)
_CONFIG_KEYS: dict[str, dict[str, tuple[str, Callable[[str], object]]]] = {
    "backend": {"url": ("backend_url", str), "retries": ("retries", int)},
    "generation": {
        "temperature": ("temperature", float),
        "max_output_tokens": ("max_output_tokens", int),
        "input_token_budget": ("input_token_budget", int),
        "request_timeout": ("request_timeout", float),
        "seed": ("seed", int),
    },
    "run": {
        "models": ("models", _split_list),
        "techniques": ("techniques", _split_list),
        "max_rounds": ("max_rounds", int),
        "parallelism": ("parallelism", int),
        "templates_dir": ("templates_dir", str),
    },
}


def load_config_file(path: str | Path, base: CliConfig) -> CliConfig:
    parser = configparser.ConfigParser(interpolation=None)  # "%" is literal
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise CliError(f"cannot read config file {path}: {exc}")
    except configparser.Error as exc:
        raise CliError(f"bad config file {path}: {exc}")

    # Its keys would reach every other section; no setting is read from it.
    if parser.defaults():
        raise CliError(f"{path}: unknown config section [{parser.default_section}]")
    updates: dict[str, object] = {}
    for section in parser.sections():
        if section not in _CONFIG_KEYS:
            raise CliError(f"{path}: unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _CONFIG_KEYS[section]:
                raise CliError(f"{path}: unknown key {key!r} in [{section}]")
            field, parse = _CONFIG_KEYS[section][key]
            try:
                updates[field] = parse(raw)
            except ValueError:
                raise CliError(
                    f"{path}: bad value for {key!r} in [{section}]: {raw!r}"
                )
    return replace(base, **updates)


def resolve_config(args: argparse.Namespace) -> CliConfig:
    """defaults <- config file <- environment <- flags."""
    config = CliConfig()

    config_path = getattr(args, "config", None) or os.environ.get(ENV_CONFIG)
    if config_path:
        config = load_config_file(config_path, config)

    env_url = os.environ.get(ENV_BACKEND_URL)
    if env_url:
        config = replace(config, backend_url=env_url)

    overrides = {
        f.name: getattr(args, f.name)
        for f in fields(CliConfig)
        if getattr(args, f.name, None) is not None
    }
    return replace(config, **overrides)


def _parse_techniques(names: tuple[str, ...]) -> tuple[TechniqueId, ...]:
    try:
        techs = [TechniqueId.parse(name) for name in names]
    except ValueError as exc:
        raise CliError(str(exc))
    return tuple(dict.fromkeys(techs))


def _load_corpus_arg(path: str | None) -> Corpus:
    if path is None:
        try:
            return load_demo_corpus()
        except FileNotFoundError:
            raise CliError("bundled demo corpus is missing from the installation")
    try:
        return load_corpus(path)
    except FileNotFoundError:
        raise CliError(f"corpus file not found: {path}")
    except OSError as exc:
        raise CliError(f"cannot read corpus {path}: {exc.strerror or exc}")
    except CorpusError as exc:
        raise CliError(f"bad corpus: {exc}")


def cmd_validate(args: argparse.Namespace, config: CliConfig) -> int:
    corpus = _load_corpus_arg(args.corpus)
    report = validate_corpus(corpus)
    print(report.to_text())
    return EXIT_OK if report.ok else EXIT_FAILURE


def _parse_custom_rule(spec: str) -> RedactionRule:
    stem, sep, pattern = spec.partition("=")
    if not sep or not stem or not pattern:
        raise CliError(f"bad --custom rule {spec!r}; expected STEM=REGEX")
    try:
        return RedactionRule(RuleKind.CUSTOM, stem, pattern=pattern)
    except RuleCompileError as exc:
        raise CliError(f"bad redaction rule: {exc}")


def _cannot_write(exc: OSError, path: Path | str | None) -> CliError:
    """Exit 1 naming the file: the failing call's file, else path."""
    name = exc.filename or path
    return CliError(f"cannot write {name}: {exc.strerror or exc}", code=EXIT_FAILURE)


def cmd_anonymize(args: argparse.Namespace, config: CliConfig) -> int:
    corpus = _load_corpus_arg(args.corpus)
    rules = list(default_rules()) + [_parse_custom_rule(s) for s in args.custom]

    keep = args.write_mapping is not None
    out_records = []
    mappings: dict[str, dict[str, str]] = {}
    totals: dict[str, int] = {}
    for rec in corpus.records:
        text, report = anonymize(rec.text, rules, keep_mapping=keep)
        out_records.append(replace(rec, text=text))
        for kind, count in report.counts.items():
            totals[kind] = totals.get(kind, 0) + count
        if keep and report.mapping:
            mappings[rec.id] = report.mapping

    try:
        save_corpus(replace(corpus, records=tuple(out_records)), args.out)
        if keep:
            # Owner-only, as it undoes the anonymization.
            write_whole(Path(args.write_mapping), canonical_dumps(mappings) + "\n", 0o600)
    except OSError as exc:
        raise _cannot_write(exc, args.out)
    if keep:
        print(f"mapping written to {args.write_mapping} (sensitive, handle with care)")
    summary = ", ".join(f"{k}={v}" for k, v in sorted(totals.items())) or "nothing"
    print(f"anonymized {len(out_records)} records to {args.out}: replaced {summary}")
    return EXIT_OK


def _shown(text: str) -> str:
    """text as a progress line shows it: as is if printable, else its repr,
    so a newline or other control in a name cannot start a second line."""
    return text if text.isprintable() else repr(text)


def _progress(record: RunRecord, completed: int, total: int) -> None:
    # One write per line: print writes the text and its end separately, two
    # syscalls when stdout is unbuffered. _value_ as in ClassificationTrace.to_json.
    trace = record.trace
    status = trace.final._value_
    if record.error is not None:
        status = f"error ({_shown(record.error)})"
    sys.stdout.write(
        f"[{completed}/{total}] {_shown(trace.model)} "
        f"{trace.technique._value_} {_shown(trace.incident_id)}: {status}\n"
    )
    sys.stdout.flush()


def cmd_run(args: argparse.Namespace, config: CliConfig) -> int:
    techniques = _parse_techniques(config.techniques)
    corpus = _load_corpus_arg(args.corpus)
    names = tuple(dict.fromkeys(config.models))  # a repeat would rerun its tasks
    models = tuple(resolve_model(name) for name in names)

    try:
        technique_config = TechniqueConfig(
            max_rounds=config.max_rounds,
            templates=(
                load_templates(config.templates_dir)
                if config.templates_dir
                else TechniqueConfig().templates
            ),
        )
        params = GenerationParams(
            temperature=config.temperature,
            max_output_tokens=config.max_output_tokens,
            input_token_budget=config.input_token_budget,
            seed=config.seed,
            request_timeout=config.request_timeout,
        )
    except (TemplateError, ValueError) as exc:
        raise CliError(str(exc))

    scripted = args.backend == "scripted"
    parallelism = config.parallelism
    if scripted and parallelism != 1:
        print("scripted backend replays in call order; forcing --parallelism 1")
        parallelism = 1

    live: OllamaBackend | None = None
    try:
        plan = RunPlan(
            models=models,
            techniques=techniques,
            corpus=corpus,
            params=params,
            technique_config=technique_config,
            seed=config.seed,
            output_path=Path(args.out),
            parallelism=parallelism,
        )
        if scripted:
            # Replies depend only on the task key, so resume scripts just the rest.
            done = resume_scan(plan.output_path) if args.resume else frozenset()
            backend = ScriptedBackend(
                build_demo_script(corpus, plan.run_order(done), config.max_rounds)
            )
        else:
            url = args.backend or config.backend_url
            try:
                backend = live = OllamaBackend(url, retries=config.retries)
            except ValueError as exc:
                raise CliError(str(exc))
            if not backend.is_reachable():
                raise CliError(f"backend at {url} is not reachable", code=EXIT_FAILURE)
            for name in names:
                if registry_group(name) is None:
                    note = f"model {name!r} is not in the registry; grouped as G2"
                    print(f"note: {note}", file=sys.stderr)
        try:
            summary = execute(plan, backend, resume=args.resume, on_record=_progress)
        except OSError as exc:
            raise _cannot_write(exc, plan.output_path)
    except RunError as exc:
        raise CliError(str(exc))
    finally:
        if live is not None:
            live.close()
    print(summary)
    if scripted and backend.remaining():
        raise CliError(
            f"{backend.remaining()} scripted replies left over; the script "
            f"no longer matches the engines",
            code=EXIT_FAILURE,
        )
    return EXIT_OK


def cmd_report(args: argparse.Namespace, config: CliConfig) -> int:
    path = Path(args.run_file)
    try:
        rows = load_run_records(path)
    except RunError as exc:
        raise CliError(str(exc))
    if not rows:
        raise CliError(f"run file {path} has no records", code=EXIT_FAILURE)

    try:
        report = compute_metrics(rows)
        comparison = compare_to_reference(report) if args.compare_paper else None
        formats = args.format or REPORT_FORMATS
        written = render_report(report, args.out_dir, formats, comparison)
    except MetricsError as exc:
        raise CliError(str(exc), code=EXIT_FAILURE)
    except OSError as exc:
        raise _cannot_write(exc, args.out_dir)
    for p in written:
        print(f"wrote {p}")
    return EXIT_OK


def cmd_demo(args: argparse.Namespace, config: CliConfig) -> int:
    try:
        load_demo_corpus()
    except (FileNotFoundError, CorpusError) as exc:
        raise CliError(f"bundled demo corpus unusable: {exc}")

    out_dir = Path(args.out_dir) if args.out_dir else None
    run_path = out_dir / "demo_run.jsonl" if out_dir else None
    try:
        if run_path is not None:
            run_path.parent.mkdir(parents=True, exist_ok=True)
            run_path.write_bytes(b"")  # the demo starts from an empty run file
        report, summary = run_demo(run_path)
        if args.write_golden:
            target = Path(str(golden_path()))
            write_whole(target, summary.decode("utf-8"), 0o666)
        elif out_dir is not None:
            render_report(report, out_dir)
    except OSError as exc:
        raise _cannot_write(exc, out_dir)

    if args.write_golden:
        print(f"golden metrics written to {target}")
        return EXIT_OK

    if out_dir is not None:
        print(f"demo artifacts written to {out_dir}")

    diff = diff_against_golden(summary)
    if diff is None:
        print(f"demo metrics match golden ({report.n_records} records)")
        return EXIT_OK
    print("demo metrics differ from golden:")
    print(diff, end="")
    return EXIT_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triagebench",
        description=(
            "Classify security incident reports into a 12-category taxonomy "
            "with local language models and benchmark five prompting "
            "techniques."
        ),
    )
    parser.add_argument(
        "--config",
        help=f"INI config file (also via {ENV_CONFIG})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a corpus for residual PII and bad labels")
    p.add_argument("corpus", nargs="?", help="corpus path (default: bundled demo corpus)")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("anonymize", help="redact PII from a corpus")
    p.add_argument("corpus", help="input corpus (JSONL or CSV)")
    p.add_argument("--out", required=True, help="output corpus path (JSONL)")
    p.add_argument(
        "--custom",
        action="append",
        default=[],
        metavar="STEM=REGEX",
        help="additional redaction rule; may repeat",
    )
    p.add_argument(
        "--write-mapping",
        metavar="PATH",
        help=(
            "also write the placeholder-to-original mapping as JSON. "
            "SENSITIVE: the mapping contains every redacted value; "
            "store it separately from the anonymized corpus"
        ),
    )
    p.set_defaults(func=cmd_anonymize)

    p = sub.add_parser("run", help="execute a model x technique x incident matrix")
    p.add_argument("--models", type=_split_list, help="comma-separated model names")
    p.add_argument(
        "--techniques",
        type=_split_list,
        help=f"comma-separated techniques ({', '.join(ALL_TECHNIQUES)})",
    )
    p.add_argument("--corpus", help="corpus path (default: bundled demo corpus)")
    p.add_argument("--out", required=True, help="run file to append records to")
    p.add_argument("--max-rounds", type=int, dest="max_rounds")
    p.add_argument("--temperature", type=float)
    p.add_argument("--parallelism", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--templates", dest="templates_dir", help="custom template directory")
    p.add_argument(
        "--backend",
        help='server URL, or "scripted" for the offline deterministic backend',
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help="skip (model, technique, incident) keys already in the run file",
    )
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("report", help="compute metrics from a run file")
    p.add_argument("run_file")
    p.add_argument(
        "--format",
        action="append",
        choices=REPORT_FORMATS,
        help="artifact to write; may repeat (default: all)",
    )
    p.add_argument("--out-dir", required=True, help="directory for report artifacts")
    p.add_argument(
        "--compare-paper",
        action="store_true",
        help="include the published reference accuracy table in the Markdown report",
    )
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("demo", help="offline end-to-end check against golden metrics")
    p.add_argument(
        "--out-dir", help="keep the demo run file and report here instead of a temp dir"
    )
    p.add_argument("--write-golden", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_demo)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Resolved for every subcommand, so a named config file must be
        # readable and well formed even where no setting from it is used.
        return args.func(args, resolve_config(args))
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
