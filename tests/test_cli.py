import dataclasses
import gc
import inspect
import json
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import triagebench
from triagebench import cli, runner
from triagebench.backend import GenerationParams, OllamaBackend
from triagebench.cli import (
    EXIT_FAILURE,
    EXIT_OK,
    EXIT_USAGE,
    CliConfig,
    CliError,
    load_config_file,
    resolve_config,
)
from triagebench.corpus import load_corpus
from triagebench.demo import DEMO_MODEL_NAME, diff_against_golden, run_demo
from triagebench.metrics import (
    REPORT_FORMATS,
    compare_to_reference,
    compute_metrics,
    render_report,
)
from triagebench.runner import RunPlan, load_run_records
from triagebench.techniques import TechniqueConfig, TechniqueId

from helpers import corrupt_lines_2_and_3


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv(cli.ENV_BACKEND_URL, raising=False)
    monkeypatch.delenv(cli.ENV_CONFIG, raising=False)


def write_corpus(path, rows):
    with path.open("w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    return path


GOOD_ROW = {"id": "a1", "text": "Ransom note on [HOST_1].", "ground_truth": "CAT2"}


class TestConfigPrecedence:
    def test_file_then_env_then_flags(self, tmp_path, monkeypatch):
        ini = tmp_path / "triage.ini"
        ini.write_text(
            "[backend]\nurl = http://filehost:1\nretries = 5\n"
            "[generation]\ntemperature = 0.7\nseed = 42\n"
            "[run]\nmodels = m-a, m-b\nparallelism = 3\n",
            encoding="utf-8",
        )
        args = cli.build_parser().parse_args(
            ["--config", str(ini), "run", "--out", "x.jsonl"]
        )
        config = resolve_config(args)
        assert config.backend_url == "http://filehost:1"
        assert config.retries == 5
        assert config.temperature == 0.7
        assert config.seed == 42
        assert config.models == ("m-a", "m-b")
        assert config.parallelism == 3

        monkeypatch.setenv(cli.ENV_BACKEND_URL, "http://envhost:2")
        assert resolve_config(args).backend_url == "http://envhost:2"

        args = cli.build_parser().parse_args(
            [
                "--config", str(ini),
                "run", "--out", "x.jsonl",
                "--temperature", "0.0",
                "--models", "m-c",
                "--parallelism", "1",
            ]
        )
        config = resolve_config(args)
        assert config.backend_url == "http://envhost:2"
        assert config.temperature == 0.0
        assert config.models == ("m-c",)
        assert config.parallelism == 1
        assert config.seed == 42  # file value survives where no flag given

    def test_env_config_file_used_when_no_flag(self, tmp_path, monkeypatch):
        ini = tmp_path / "env.ini"
        ini.write_text("[backend]\nretries = 9\n", encoding="utf-8")
        monkeypatch.setenv(cli.ENV_CONFIG, str(ini))
        args = cli.build_parser().parse_args(["run", "--out", "x.jsonl"])
        assert resolve_config(args).retries == 9

    def test_unknown_section_rejected(self, tmp_path):
        ini = tmp_path / "bad.ini"
        ini.write_text("[nonsense]\nkey = 1\n", encoding="utf-8")
        with pytest.raises(CliError, match=r"\[nonsense\]"):
            load_config_file(ini, CliConfig())

    def test_unknown_key_rejected(self, tmp_path):
        ini = tmp_path / "bad.ini"
        ini.write_text("[backend]\nuri = http://x\n", encoding="utf-8")
        with pytest.raises(CliError, match="uri"):
            load_config_file(ini, CliConfig())

    def test_bad_value_rejected(self, tmp_path):
        ini = tmp_path / "bad.ini"
        ini.write_text("[generation]\nseed = elephant\n", encoding="utf-8")
        with pytest.raises(CliError, match="elephant"):
            load_config_file(ini, CliConfig())

    def test_missing_config_file_is_usage_error(self, tmp_path, capsys):
        rc = cli.main(
            ["--config", str(tmp_path / "nope.ini"), "validate"]
        )
        assert rc == EXIT_USAGE
        assert "cannot read config file" in capsys.readouterr().err


# (section, key, raw value, CliConfig field, parsed value), one per config key
CONFIG_KEYS = [
    ("backend", "url", "http://filehost:1", "backend_url", "http://filehost:1"),
    ("backend", "retries", "5", "retries", 5),
    ("generation", "temperature", "0.7", "temperature", 0.7),
    ("generation", "max_output_tokens", "64", "max_output_tokens", 64),
    ("generation", "input_token_budget", "512", "input_token_budget", 512),
    ("generation", "request_timeout", "2.5", "request_timeout", 2.5),
    ("generation", "seed", "42", "seed", 42),
    ("run", "models", "m-a, m-b,", "models", ("m-a", "m-b")),
    ("run", "techniques", "ZSL,PRP", "techniques", ("ZSL", "PRP")),
    ("run", "max_rounds", "5", "max_rounds", 5),
    ("run", "parallelism", "3", "parallelism", 3),
    ("run", "templates_dir", "my_templates", "templates_dir", "my_templates"),
]


class TestConfigKeys:
    def test_every_key_is_covered(self):
        table = {(section, key) for section, keys in cli._CONFIG_KEYS.items()
                 for key in keys}
        assert table == {(section, key) for section, key, *_ in CONFIG_KEYS}
        assert {field for *_, field, _ in CONFIG_KEYS} == {
            f.name for f in dataclasses.fields(CliConfig)
        }

    @pytest.mark.parametrize(
        "section, key, raw, field, value", CONFIG_KEYS, ids=[k[1] for k in CONFIG_KEYS]
    )
    def test_key_lands_in_its_field(self, tmp_path, section, key, raw, field, value):
        ini = tmp_path / "triage.ini"
        ini.write_text(f"[{section}]\n{key} = {raw}\n", encoding="utf-8")
        config = load_config_file(ini, CliConfig())
        assert config == dataclasses.replace(CliConfig(), **{field: value})

    def test_defaults_are_their_owners_defaults(self):
        params = GenerationParams()
        backend = inspect.signature(OllamaBackend).parameters
        plan = {f.name: f.default for f in dataclasses.fields(RunPlan)}
        assert CliConfig() == CliConfig(
            backend_url=backend["base_url"].default,
            retries=backend["retries"].default,
            models=(DEMO_MODEL_NAME,),
            techniques=tuple(t.value for t in TechniqueId),
            temperature=params.temperature,
            max_output_tokens=params.max_output_tokens,
            input_token_budget=params.input_token_budget,
            request_timeout=params.request_timeout,
            seed=0,
            max_rounds=TechniqueConfig().max_rounds,
            parallelism=plan["parallelism"],
            templates_dir=None,
        )

    def test_backend_flag_beats_env_and_file(self, tmp_path, monkeypatch, stub_server):
        url, handler = stub_server
        reply = {"message": {"role": "assistant", "content": "FINAL: CAT2"}}
        handler.responses.append((200, json.dumps(reply)))
        dead = "http://127.0.0.1:9"
        ini = tmp_path / "triage.ini"
        ini.write_text(f"[backend]\nurl = {dead}\n", encoding="utf-8")
        monkeypatch.setenv(cli.ENV_BACKEND_URL, dead)
        corpus = write_corpus(tmp_path / "c.jsonl", [GOOD_ROW])
        out = tmp_path / "run.jsonl"
        rc = cli.main(
            [
                "--config", str(ini),
                "run", "--backend", url,
                "--models", "demo",
                "--techniques", "ZSL",
                "--corpus", str(corpus),
                "--out", str(out),
            ]
        )
        assert rc == EXIT_OK
        assert handler.paths_seen == ["/api/tags", "/api/chat"]
        assert [r.correct for r in load_run_records(out)] == [True]

    def test_config_file_read_once_per_main(self, tmp_path, monkeypatch):
        ini = tmp_path / "triage.ini"
        ini.write_text("[generation]\nseed = 3\n", encoding="utf-8")
        reads = []
        read = cli.load_config_file

        def counting(path, base):
            reads.append(path)
            return read(path, base)

        monkeypatch.setattr(cli, "load_config_file", counting)
        rc = cli.main(
            [
                "--config", str(ini),
                "run", "--backend", "scripted",
                "--models", "demo",
                "--techniques", "ZSL",
                "--out", str(tmp_path / "run.jsonl"),
            ]
        )
        assert rc == EXIT_OK
        assert reads == [str(ini)]


class TestValidate:
    def test_bundled_corpus_passes(self, capsys):
        assert cli.main(["validate"]) == EXIT_OK
        assert "0 finding" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        path = write_corpus(
            tmp_path / "dirty.jsonl",
            [
                GOOD_ROW,
                {
                    "id": "a2",
                    "text": "Contact admin@example.com about 10.0.0.5.",
                    "ground_truth": "CAT4",
                },
            ],
        )
        assert cli.main(["validate", str(path)]) == EXIT_FAILURE
        assert "a2" in capsys.readouterr().out

    def test_missing_file_exit_two(self, tmp_path, capsys):
        rc = cli.main(["validate", str(tmp_path / "missing.jsonl")])
        assert rc == EXIT_USAGE
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "fields, field",
        [
            ({"id": True}, "id"),
            ({"text": ["a", "b"]}, "text"),
            ({"source": 5}, "source"),
            ({"language": 1}, "language"),
        ],
    )
    def test_wrongly_typed_field_exit_two(self, tmp_path, capsys, fields, field):
        rows = [GOOD_ROW, {**GOOD_ROW, "id": "a2", **fields}]
        path = write_corpus(tmp_path / "c.jsonl", rows)
        assert cli.main(["validate", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"bad corpus: c.jsonl:2: field {field!r} must be a string" in err


class TestUnreadableCorpus:
    @pytest.mark.parametrize("command", ["validate", "run", "anonymize"])
    @pytest.mark.parametrize("kind", ["directory", "non-utf8"])
    def test_exit_two_one_line(self, tmp_path, capsys, command, kind):
        path = tmp_path / "c.jsonl"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"\xff" + json.dumps(GOOD_ROW).encode() + b"\n")
        out = tmp_path / "out.jsonl"
        argv = {
            "validate": ["validate", str(path)],
            "run": ["run", "--backend", "scripted", "--corpus", str(path),
                    "--out", str(out)],
            "anonymize": ["anonymize", str(path), "--out", str(out)],
        }[command]
        assert cli.main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "c.jsonl" in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()


class TestAnonymize:
    def test_redacts_and_reports(self, tmp_path, capsys):
        src = write_corpus(
            tmp_path / "raw.jsonl",
            [
                {
                    "id": "a1",
                    "text": "User bob@corp.example logged in from 192.168.1.9.",
                    "ground_truth": "CAT1",
                }
            ],
        )
        out = tmp_path / "clean.jsonl"
        assert cli.main(["anonymize", str(src), "--out", str(out)]) == EXIT_OK
        text = load_corpus(out).records[0].text
        assert "[EMAIL_1]" in text and "[IP_1]" in text
        assert "bob@corp.example" not in text
        captured = capsys.readouterr().out
        assert "EMAIL=1" in captured and "IPV4=1" in captured
        assert not (tmp_path / "mapping.json").exists()

    def test_mapping_only_with_flag(self, tmp_path, capsys):
        src = write_corpus(
            tmp_path / "raw.jsonl",
            [
                {
                    "id": "a1",
                    "text": "Host web-01.corp.example touched 10.1.1.1.",
                    "ground_truth": "CAT5",
                }
            ],
        )
        out = tmp_path / "clean.jsonl"
        mapping = tmp_path / "mapping.json"
        rc = cli.main(
            [
                "anonymize", str(src),
                "--out", str(out),
                "--write-mapping", str(mapping),
            ]
        )
        assert rc == EXIT_OK
        data = json.loads(mapping.read_text(encoding="utf-8"))
        assert data["a1"]["[IP_1]"] == "10.1.1.1"
        assert "sensitive" in capsys.readouterr().out

    def test_custom_rule(self, tmp_path):
        src = write_corpus(
            tmp_path / "raw.jsonl",
            [
                {
                    "id": "a1",
                    "text": "Ticket SIR-12345 escalated.",
                    "ground_truth": "CAT7",
                }
            ],
        )
        out = tmp_path / "clean.jsonl"
        rc = cli.main(
            [
                "anonymize", str(src),
                "--out", str(out),
                "--custom", r"TICKET=SIR-\d+",
            ]
        )
        assert rc == EXIT_OK
        assert "[TICKET_1]" in load_corpus(out).records[0].text

    def test_bad_custom_spec_exit_two(self, tmp_path, capsys):
        src = write_corpus(tmp_path / "raw.jsonl", [GOOD_ROW])
        rc = cli.main(
            [
                "anonymize", str(src),
                "--out", str(tmp_path / "c.jsonl"),
                "--custom", "MISSING__SEPARATOR",
            ]
        )
        assert rc == EXIT_USAGE
        assert "STEM=REGEX" in capsys.readouterr().err

    def test_bad_custom_regex_exit_two(self, tmp_path, capsys):
        src = write_corpus(tmp_path / "raw.jsonl", [GOOD_ROW])
        rc = cli.main(
            [
                "anonymize", str(src),
                "--out", str(tmp_path / "c.jsonl"),
                "--custom", "BROKEN=[unclosed",
            ]
        )
        assert rc == EXIT_USAGE
        assert "rule" in capsys.readouterr().err

    @pytest.mark.parametrize("unwritable", ["--out", "--write-mapping"])
    def test_unwritable_output_exit_one(self, tmp_path, capsys, unwritable):
        src = write_corpus(tmp_path / "raw.jsonl", [GOOD_ROW])
        paths = {"--out": tmp_path / "c.jsonl", "--write-mapping": tmp_path / "m.json"}
        paths[unwritable] = tmp_path / "missing" / "x.json"
        argv = ["anonymize", str(src)]
        for flag, path in paths.items():
            argv += [flag, str(path)]
        assert cli.main(argv) == EXIT_FAILURE
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {paths[unwritable]}: ")
        assert err.count("\n") == 1 and "Traceback" not in err


class TestRunScripted:
    def test_full_zsl_pass(self, tmp_path, capsys):
        out = tmp_path / "run.jsonl"
        rc = cli.main(
            [
                "run", "--backend", "scripted",
                "--models", "demo",
                "--techniques", "ZSL",
                "--out", str(out),
            ]
        )
        assert rc == EXIT_OK
        records = load_run_records(out)
        assert len(records) == 24
        stdout = capsys.readouterr().out
        assert "[24/24]" in stdout

    RESUME_ARGS = ["run", "--backend", "scripted", "--models", "demo,m2"]

    def test_resume_matches_uninterrupted_run(self, tmp_path, capsys):
        full = tmp_path / "full.jsonl"
        assert cli.main([*self.RESUME_ARGS, "--out", str(full)]) == EXIT_OK
        lines = full.read_bytes().splitlines(keepends=True)
        assert len(lines) == 240
        cut = tmp_path / "cut.jsonl"
        cut.write_bytes(b"".join(lines[:37]))
        capsys.readouterr()
        assert cli.main([*self.RESUME_ARGS, "--out", str(cut), "--resume"]) == EXIT_OK
        assert "203 of 240 tasks executed (37 resumed" in capsys.readouterr().out
        assert cut.read_bytes() == full.read_bytes()
        # Nothing left to replay.
        assert cli.main([*self.RESUME_ARGS, "--out", str(cut), "--resume"]) == EXIT_OK
        assert "0 of 240 tasks executed" in capsys.readouterr().out
        assert cut.read_bytes() == full.read_bytes()

    def test_resume_after_torn_tail_matches_uninterrupted_run(self, tmp_path, capsys):
        full = tmp_path / "full.jsonl"
        assert cli.main([*self.RESUME_ARGS, "--out", str(full)]) == EXIT_OK
        lines = full.read_bytes().splitlines(keepends=True)
        torn = tmp_path / "torn.jsonl"
        torn.write_bytes(b"".join(lines[:37]) + lines[37][:100])
        capsys.readouterr()
        assert cli.main([*self.RESUME_ARGS, "--out", str(torn), "--resume"]) == EXIT_OK
        assert "203 of 240 tasks executed" in capsys.readouterr().out
        assert load_run_records(torn) == load_run_records(full)
        assert torn.read_bytes() == full.read_bytes()

    def test_parallelism_forced_serial(self, tmp_path, capsys):
        rc = cli.main(
            [
                "run", "--backend", "scripted",
                "--models", "demo",
                "--techniques", "ZSL",
                "--parallelism", "4",
                "--out", str(tmp_path / "run.jsonl"),
            ]
        )
        assert rc == EXIT_OK
        assert "forcing --parallelism 1" in capsys.readouterr().out

    def test_unknown_technique_exit_two(self, tmp_path, capsys):
        rc = cli.main(
            [
                "run", "--backend", "scripted",
                "--models", "demo",
                "--techniques", "BOGUS",
                "--out", str(tmp_path / "run.jsonl"),
            ]
        )
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert "BOGUS" in err and "ZSL" in err

    def test_existing_output_exit_two(self, tmp_path, capsys):
        out = tmp_path / "run.jsonl"
        args = [
            "run", "--backend", "scripted",
            "--models", "demo",
            "--techniques", "ZSL",
            "--out", str(out),
        ]
        assert cli.main(args) == EXIT_OK
        capsys.readouterr()
        assert cli.main(args) == EXIT_USAGE
        assert "already exists" in capsys.readouterr().err

    def test_bad_template_exits_two_before_any_record(self, tmp_path, capsys):
        templates = tmp_path / "templates"
        shutil.copytree(Path(triagebench.__file__).parent / "templates", templates)
        (templates / "htp" / "round2.txt").write_text(
            'Reply as {"category": "CATk"}.\n', encoding="utf-8"
        )
        out = tmp_path / "run.jsonl"
        rc = cli.main(
            ["run", "--backend", "scripted", "--templates", str(templates),
             "--out", str(out)]
        )
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: bad template htp/round2.txt: KeyError: '\"category\"'\n"
        )
        assert not out.exists()

    def test_script_follows_task_order(self, tmp_path, monkeypatch):
        def run(out):
            args = ["run", "--backend", "scripted", "--models", "m1,m2", "--out"]
            assert cli.main([*args, str(out)]) == EXIT_OK
            lines = out.read_text(encoding="utf-8").splitlines()
            assert not any("error" in json.loads(line) for line in lines)
            return {r.key: r.to_dict() for r in load_run_records(out)}

        plan_order = run(tmp_path / "plan.jsonl")

        def model_outer(plan):
            return [
                (model.name, technique.value, incident.id)
                for model in reversed(plan.models)
                for technique in reversed(plan.techniques)
                for incident in reversed(plan.corpus.records)
            ]

        monkeypatch.setattr(runner.RunPlan, "task_keys", model_outer)
        reordered = run(tmp_path / "reordered.jsonl")

        assert list(reordered)[0][:2] == ("m2", "PRP")  # the patched order ran
        assert reordered == plan_order
        correct, unparsed = Counter(), Counter()
        for (model, technique, _), d in reordered.items():
            correct[model, technique] += d["correct"]
            unparsed[model, technique] += d["trace"]["final"] == "UNPARSED"
        fixed = {"ZSL": 14, "PHP": 18, "SHP": 16, "HTP": 8, "PRP": 15}
        for model in ("m1", "m2"):
            assert {t: correct[model, t] for t in fixed} == fixed
            assert {t: unparsed[model, t] for t in fixed} == {
                **dict.fromkeys(fixed, 0),
                "HTP": 2,
            }


class TestRunRealBackend:
    def test_unreachable_server_exit_one(self, tmp_path, capsys):
        rc = cli.main(
            [
                "run", "--backend", "http://127.0.0.1:9",
                "--models", "demo",
                "--techniques", "ZSL",
                "--out", str(tmp_path / "run.jsonl"),
            ]
        )
        assert rc == EXIT_FAILURE
        assert "not reachable" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["flag", "env", "ini"])
    @pytest.mark.parametrize("url", ["localhost:11434", "ftp://127.0.0.1:9", "http://"])
    def test_malformed_url_exit_two_before_any_request(
        self, tmp_path, capsys, monkeypatch, url, source
    ):
        args = ["run", "--models", "demo", "--techniques", "ZSL",
                "--out", str(tmp_path / "run.jsonl")]
        if source == "flag":
            args += ["--backend", url]
        elif source == "env":
            monkeypatch.setenv(cli.ENV_BACKEND_URL, url)
        else:
            ini = tmp_path / "triage.ini"
            ini.write_text(f"[backend]\nurl = {url}\n", encoding="utf-8")
            args = ["--config", str(ini), *args]
        rc = cli.main(args)
        err = capsys.readouterr().err
        assert rc == EXIT_USAGE
        assert err.startswith("error: ") and repr(url) in err
        assert err.count("\n") == 1
        assert not (tmp_path / "run.jsonl").exists()

    def test_reply_without_string_content_fails_only_its_task(
        self, tmp_path, capsys, stub_server
    ):
        url, handler = stub_server
        for content in (None, 12):
            handler.responses.append((200, json.dumps({"message": {"content": content}})))
        rows = [GOOD_ROW, {**GOOD_ROW, "id": "a2"}]
        corpus = write_corpus(tmp_path / "c.jsonl", rows)
        out = tmp_path / "run.jsonl"
        rc = cli.main(["run", "--backend", url, "--models", "demo", "--techniques",
                       "ZSL", "--corpus", str(corpus), "--out", str(out)])
        assert rc == EXIT_OK
        errors = [r.error for r in load_run_records(out)]
        assert len(errors) == 2
        assert all("malformed server reply" in e for e in errors)

    @pytest.mark.parametrize("case", ["ok", "unreachable", "existing output"])
    def test_backend_closed_after_run(self, tmp_path, monkeypatch, stub_server, case):
        url, handler = stub_server
        handler.responses.append((200, json.dumps({"message": {"content": "CAT2"}})))
        built: list[OllamaBackend] = []
        closed: list[OllamaBackend] = []

        class Recording(OllamaBackend):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

            def close(self):
                closed.append(self)
                super().close()

        monkeypatch.setattr(cli, "OllamaBackend", Recording)
        out = tmp_path / "run.jsonl"
        if case == "existing output":
            out.write_text("{}\n", encoding="utf-8")
        corpus = write_corpus(tmp_path / "c.jsonl", [GOOD_ROW])
        rc = cli.main([
            "run", "--backend", "http://127.0.0.1:9" if case == "unreachable" else url,
            "--models", "demo", "--techniques", "ZSL",
            "--corpus", str(corpus), "--out", str(out),
        ])
        assert rc == {"ok": EXIT_OK, "unreachable": EXIT_FAILURE}.get(case, EXIT_USAGE)
        assert len(built) == 1 and closed == built

    def test_bad_parallelism_exit_two_before_any_request(self, tmp_path, capsys):
        rc = cli.main(
            [
                "run", "--backend", "http://127.0.0.1:9",
                "--models", "demo",
                "--parallelism", "0",
                "--out", str(tmp_path / "run.jsonl"),
            ]
        )
        assert rc == EXIT_USAGE
        assert "parallelism must be >= 1" in capsys.readouterr().err


    def test_names_unknown_to_the_registry_noted_on_live_runs(
        self, tmp_path, capsys, stub_server
    ):
        url, handler = stub_server
        reply = json.dumps({"message": {"content": "FINAL: CAT2"}})
        handler.responses.extend([(200, reply)] * 2)
        corpus = write_corpus(tmp_path / "c.jsonl", [GOOD_ROW])
        args = ["run", "--corpus", str(corpus), "--techniques", "ZSL",
                "--models", "llama3.3,llama3.3:70b-instruct-q4_K_M"]
        out = tmp_path / "live.jsonl"
        assert cli.main([*args, "--backend", url, "--out", str(out)]) == EXIT_OK
        notes = [
            line for line in capsys.readouterr().err.splitlines()
            if line.startswith("note: ")
        ]
        assert notes == [
            "note: model 'llama3.3' is not in the registry; grouped as G2"
        ]
        groups = {r.trace.model: r.trace.model_group.value for r in load_run_records(out)}
        assert groups == {"llama3.3": "G2", "llama3.3:70b-instruct-q4_K_M": "G1"}

        scripted = tmp_path / "scripted.jsonl"
        assert cli.main([*args, "--backend", "scripted", "--out", str(scripted)]) == EXIT_OK
        assert "note: " not in capsys.readouterr().err


class TestRunBadSettings:
    @pytest.mark.parametrize(
        "flags, ini, message",
        [
            pytest.param(
                ["--temperature", "-1"], "", "temperature must be >= 0",
                id="temperature-flag",
            ),
            pytest.param(
                [], "[generation]\ntemperature = nan\n", "temperature must be >= 0",
                id="temperature-nan",
            ),
            pytest.param(
                [], "[generation]\nmax_output_tokens = 0\n", "token limits",
                id="max_output_tokens-0",
            ),
            pytest.param(
                [], "[generation]\ninput_token_budget = 0\n", "token limits",
                id="input_token_budget-0",
            ),
            pytest.param(
                [], "[generation]\nrequest_timeout = 0\n", "request_timeout",
                id="request_timeout-0",
            ),
            pytest.param(
                [], "[generation]\nrequest_timeout = -5\n", "request_timeout",
                id="request_timeout-negative",
            ),
            pytest.param(
                [], "[generation]\nrequest_timeout = nan\n", "request_timeout",
                id="request_timeout-nan",
            ),
            pytest.param(
                [], "[backend]\nretries = -1\n", "retries must be >= 0",
                id="retries-negative",
            ),
        ],
    )
    def test_exit_two_before_any_request(
        self, tmp_path, capsys, stub_server, flags, ini, message
    ):
        url, handler = stub_server
        config = tmp_path / "triage.ini"
        config.write_text(ini, encoding="utf-8")
        out = tmp_path / "run.jsonl"
        rc = cli.main(
            [
                "--config", str(config),
                "run", "--backend", url,
                "--models", "demo",
                "--techniques", "ZSL",
                "--out", str(out),
                *flags,
            ]
        )
        err = capsys.readouterr().err
        assert rc == EXIT_USAGE
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()
        assert handler.paths_seen == []


class TestOfflineWithoutRequests:
    def test_offline_commands_never_import_requests(self, tmp_path):
        # A fresh process where `import requests` always fails. The offline
        # commands leave http.client unloaded too; a live run then works
        # against a stdlib stub.
        src = str(Path(triagebench.__file__).resolve().parents[1])
        script = f"""
import sys
sys.path.insert(0, {src!r})
sys.modules["requests"] = None
from triagebench.cli import main
run, out, live = sys.argv[1:4]
codes = [
    main(["demo"]),
    main(["run", "--backend", "scripted", "--models", "demo",
          "--techniques", "ZSL,PRP", "--out", run]),
    main(["report", run, "--out-dir", out]),
    main(["validate"]),
]
print("codes", codes)
print("http.client loaded:", "http.client" in sys.modules)

import json, threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def do_GET(self):
        self.reply(b"{{}}")

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        self.reply(json.dumps({{"message": {{"content": "FINAL: CAT2"}}}}).encode())

    def reply(self, body):
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass

server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
threading.Thread(target=server.serve_forever, daemon=True).start()
url = f"http://127.0.0.1:{{server.server_address[1]}}"
print("live", main(["run", "--backend", url, "--models", "demo",
                    "--techniques", "ZSL", "--out", live]))
"""
        live = tmp_path / "live.jsonl"
        proc = subprocess.run(
            [sys.executable, "-c", script,
             str(tmp_path / "run.jsonl"), str(tmp_path / "report"), str(live)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "demo metrics match golden" in proc.stdout
        assert "codes [0, 0, 0, 0]" in proc.stdout
        assert "http.client loaded: False" in proc.stdout
        assert "live 0" in proc.stdout
        assert (tmp_path / "report" / "metrics.csv").exists()
        records = load_run_records(live)
        assert len(records) == 24
        assert all(r.error is None for r in records)


@pytest.fixture()
def scripted_run_file(tmp_path):
    out = tmp_path / "run.jsonl"
    rc = cli.main(
        [
            "run", "--backend", "scripted",
            "--models", "demo",
            "--techniques", "ZSL,PHP",
            "--out", str(out),
        ]
    )
    assert rc == EXIT_OK
    return out


class TestReport:
    def test_all_formats_default(self, scripted_run_file, tmp_path, capsys):
        out_dir = tmp_path / "reports"
        rc = cli.main(["report", str(scripted_run_file), "--out-dir", str(out_dir)])
        assert rc == EXIT_OK
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == ["metrics.csv", "metrics.md", "plot_data.json"]

    def test_format_selection(self, scripted_run_file, tmp_path):
        out_dir = tmp_path / "reports"
        rc = cli.main(
            [
                "report", str(scripted_run_file),
                "--out-dir", str(out_dir),
                "--format", "csv",
            ]
        )
        assert rc == EXIT_OK
        assert [p.name for p in out_dir.iterdir()] == ["metrics.csv"]

    def test_compare_paper_table(self, scripted_run_file, tmp_path):
        out_dir = tmp_path / "reports"
        rc = cli.main(
            [
                "report", str(scripted_run_file),
                "--out-dir", str(out_dir),
                "--format", "md",
                "--compare-paper",
            ]
        )
        assert rc == EXIT_OK
        text = (out_dir / "metrics.md").read_text(encoding="utf-8")
        assert "Reference" in text
        assert "no data" in text  # single-model run covers only a few scopes

    def test_records_and_report_hold_no_reference_cycles(
        self, scripted_run_file, tmp_path
    ):
        # Why report may pause the cyclic collector: reference counting
        # alone frees all it builds, skipped and repeated lines included.
        lines = scripted_run_file.read_bytes().splitlines(keepends=True)
        scripted_run_file.write_bytes(
            b"".join(lines) + b"not json\n" + lines[0] + lines[1][:200]
        )
        gc.collect()
        gc.disable()
        try:
            records = load_run_records(scripted_run_file)
            report = compute_metrics(records)
            render_report(
                report, tmp_path / "r", REPORT_FORMATS, compare_to_reference(report)
            )
            assert len(records) == 48
            del records, report
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("invalid", [False, True], ids=["ok", "invalid-record"])
    def test_collector_paused_then_restored(
        self, scripted_run_file, tmp_path, monkeypatch, enabled, invalid
    ):
        if invalid:
            corrupt_lines_2_and_3(scripted_run_file)
        paused = []
        for name in ("compute_metrics", "render_report"):
            def record_state(*args, _fn=getattr(cli, name)):
                paused.append(not gc.isenabled())
                return _fn(*args)

            monkeypatch.setattr(cli, name, record_state)
        (gc.enable if enabled else gc.disable)()
        try:
            rc = cli.main(
                ["report", str(scripted_run_file), "--out-dir", str(tmp_path / "r")]
            )
            assert gc.isenabled() is enabled
        finally:
            gc.enable()
        assert rc == (EXIT_USAGE if invalid else EXIT_OK)
        assert paused == ([] if invalid else [True, True])

    def test_missing_run_file_exit_two(self, tmp_path, capsys):
        rc = cli.main(
            ["report", str(tmp_path / "none.jsonl"), "--out-dir", str(tmp_path)]
        )
        assert rc == EXIT_USAGE
        assert "cannot read run file" in capsys.readouterr().err

    def test_keyed_invalid_record_exit_two_naming_line(
        self, scripted_run_file, tmp_path, capsys
    ):
        corrupt_lines_2_and_3(scripted_run_file)
        rc = cli.main(
            ["report", str(scripted_run_file), "--out-dir", str(tmp_path / "r")]
        )
        assert rc == EXIT_USAGE
        assert f"{scripted_run_file}:2: invalid record" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "where, value, message",
        [
            pytest.param(("trace", "model"), 5, "model must be str, got 5",
                         id="model-int"),
            pytest.param(("trace", "incident_id"), 7, "incident_id must be str",
                         id="incident_id-int"),
            pytest.param(("trace", "template_hash"), None, "template_hash must be str",
                         id="template_hash-null"),
            pytest.param(("trace", "rounds_used"), "3", "rounds_used must be int",
                         id="rounds_used-str"),
            pytest.param(("trace", "rounds_used"), 2.5, "rounds_used must be int",
                         id="rounds_used-float"),
            pytest.param(("trace", "rounds_used"), True, "rounds_used must be int",
                         id="rounds_used-bool"),
            pytest.param(("trace", "converged"), 1, "converged must be bool",
                         id="converged-int"),
            pytest.param(("trace", "telemetry_totals", "total_latency_ms"), "x",
                         "total_latency_ms must be int or float", id="latency-str"),
            pytest.param(("trace", "telemetry_totals", "total_response_chars"), "x",
                         "total_response_chars must be int", id="chars-str"),
            pytest.param(("trace", "telemetry_totals", "total_response_chars"), "12",
                         "total_response_chars must be int", id="chars-digits"),
            pytest.param(("error",), 3, "error must be str, got 3", id="error-int"),
            pytest.param(("ground_truth",), "UNPARSED",
                         "ground_truth may not be UNPARSED", id="truth-unparsed"),
            pytest.param(("correct",), "no", "correct is 'no', but final",
                         id="correct-str"),
            pytest.param(("correct",), "flip", "correct is (True|False), but final",
                         id="correct-flipped"),
        ],
    )
    def test_wrongly_typed_or_contradicting_field_exit_two(
        self, scripted_run_file, tmp_path, capsys, where, value, message
    ):
        lines = scripted_run_file.read_text(encoding="utf-8").splitlines()
        d = json.loads(lines[1])
        *parents, key = where
        target = d
        for part in parents:
            target = target[part]
        target[key] = (not target[key]) if value == "flip" else value
        lines[1] = json.dumps(d)
        scripted_run_file.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        rc = cli.main(
            ["report", str(scripted_run_file), "--out-dir", str(tmp_path / "r")]
        )
        err = capsys.readouterr().err
        assert rc == EXIT_USAGE
        assert err.startswith(f"error: {scripted_run_file}:2: invalid record: ")
        assert re.search(message, err) and "Traceback" not in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("kind", ["directory", "non-utf8"])
    def test_unreadable_run_file_exit_two_one_line(self, tmp_path, capsys, kind):
        path = tmp_path / "run.jsonl"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"\xff\xfe not text\n")
        rc = cli.main(["report", str(path), "--out-dir", str(tmp_path / "r")])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read run file {path}: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_empty_run_file_exit_one(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.touch()
        rc = cli.main(["report", str(empty), "--out-dir", str(tmp_path / "r")])
        assert rc == EXIT_FAILURE
        assert "no records" in capsys.readouterr().err


class TestDemo:
    def test_matches_golden(self, capsys):
        assert cli.main(["demo"]) == EXIT_OK
        assert "match golden" in capsys.readouterr().out

    def test_out_dir_keeps_artifacts(self, tmp_path):
        out_dir = tmp_path / "demo-out"
        assert cli.main(["demo", "--out-dir", str(out_dir)]) == EXIT_OK
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == [
            "demo_run.jsonl",
            "metrics.csv",
            "metrics.md",
            "plot_data.json",
        ]
        assert len(load_run_records(out_dir / "demo_run.jsonl")) == 120

    def test_diff_reported_on_mismatch(self):
        _, summary = run_demo()
        assert diff_against_golden(summary) is None
        tampered = summary.replace(b'"n_records":120', b'"n_records":119')
        diff = diff_against_golden(tampered)
        assert diff is not None
        assert "119" in diff


class TestParser:
    def test_no_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == EXIT_USAGE

    def test_bad_format_choice(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(
                ["report", "x.jsonl", "--out-dir", str(tmp_path), "--format", "pdf"]
            )
        assert exc.value.code == EXIT_USAGE
