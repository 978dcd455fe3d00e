import configparser
import dataclasses
import functools
import hashlib
import inspect
import json
import os
import re
import shutil
import stat
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

import triagebench
from triagebench import cli, runner, techniques
from triagebench.backend import GenerationParams, OllamaBackend, ScriptedBackend
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
from triagebench.runner import RunPlan, RunRecord, load_run_records
from triagebench.taxonomy import CategoryCode
from triagebench.techniques import (
    TechniqueConfig,
    TechniqueId,
    default_templates,
    load_templates,
)
from triagebench.util import canonical_dumps

from helpers import corrupt_lines_2_and_3, make_trace, stored_lines
from oracles import v1_from_v2


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv(cli.ENV_BACKEND_URL, raising=False)
    monkeypatch.delenv(cli.ENV_CONFIG, raising=False)


def write_corpus(path, rows):
    with path.open("w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    return path


def _tweaked_template_dir(tmp_path):
    """A copy of the bundled templates with one line added to zsl/round1.txt."""
    templates = tmp_path / "tpl"
    shutil.copytree(Path(triagebench.__file__).parent / "templates", templates)
    with (templates / "zsl" / "round1.txt").open("a", encoding="utf-8") as fh:
        fh.write("Answer briefly.\n")
    return templates


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

    @pytest.mark.parametrize("text", [
        "[DEFAULT]\nretries = 9\n",
        "[DEFAULT]\nretries = 9\n[backend]\nurl = http://x:1\n",
        "[DEFAULT]\nmodels = a\n[backend]\nurl = http://x:1\n",
    ], ids=["alone", "beside-its-section", "beside-another-section"])
    def test_default_section_rejected(self, tmp_path, text):
        ini = tmp_path / "bad.ini"
        ini.write_text(text, encoding="utf-8")
        with pytest.raises(CliError, match=r"unknown config section \[DEFAULT\]"):
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

    def test_percent_read_as_written(self, tmp_path):
        ini = tmp_path / "triage.ini"
        ini.write_text(
            "[backend]\nurl = http://127.0.0.1:9/%7Eapi\n"
            "[run]\ntemplates_dir = templates/%(x)s\n",
            encoding="utf-8",
        )
        config = load_config_file(ini, CliConfig())
        assert config == dataclasses.replace(
            CliConfig(),
            backend_url="http://127.0.0.1:9/%7Eapi",
            templates_dir="templates/%(x)s",
        )

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

    def test_run_and_report_from_a_file_with_every_key(self, tmp_path):
        templates = tmp_path / "templates"
        shutil.copytree(Path(triagebench.__file__).parent / "templates", templates)
        (templates / "php" / "round2.txt").write_text(
            "Your answers so far: {previous_answers}.\n", encoding="utf-8"
        )
        ini = tmp_path / "triage.ini"
        ini.write_text(
            "[backend]\nurl = http://127.0.0.1:9\nretries = 1\n"
            "[generation]\ntemperature = 0.0\nmax_output_tokens = 512\n"
            "input_token_budget = 4096\nrequest_timeout = 30.0\nseed = 7\n"
            "[run]\nmodels = Llama 3.1 8B, Qwen3 8B\ntechniques = ZSL, PHP, PRP\n"
            f"max_rounds = 2\nparallelism = 1\ntemplates_dir = {templates}\n",
            encoding="utf-8",
        )
        parser = configparser.ConfigParser()
        parser.read(ini, encoding="utf-8")
        assert {(section, key) for section, key, *_ in CONFIG_KEYS} == {
            (section, key) for section in parser.sections() for key in parser[section]
        }
        out = tmp_path / "run.jsonl"
        rc = cli.main(
            ["--config", str(ini), "run", "--backend", "scripted", "--out", str(out)]
        )
        assert rc == EXIT_OK
        traces = [d["trace"] for d in stored_lines(out).values()]
        assert Counter((t["model"], t["technique"]) for t in traces) == {
            (model, technique): 24
            for model in ("Llama 3.1 8B", "Qwen3 8B")
            for technique in ("ZSL", "PHP", "PRP")
        }
        assert max(t["rounds_used"] for t in traces) == 2
        custom = load_templates(templates).template_hash
        assert custom != default_templates().template_hash
        header = json.loads(out.read_text(encoding="utf-8").splitlines()[0])["run"]
        assert {k: v for k, v in header.items() if k not in ("prompts", "corpus_digest",
                                                             "taxonomy_hash")} == {
            "temperature": 0.0, "max_output_tokens": 512, "input_token_budget": 4096,
            "seed": 7, "max_rounds": 2, "template_hash": custom,
        }
        report = tmp_path / "report"
        assert cli.main(["report", str(out), "--out-dir", str(report)]) == EXIT_OK
        rows = (report / "metrics.csv").read_text(encoding="utf-8").splitlines()
        assert [row for row in rows if row.startswith("technique,")] == [
            "technique,PHP,48,22,45.8,0.0,,",
            "technique,PRP,48,22,45.8,0.0,,",
            "technique,ZSL,48,28,58.3,0.0,,",
        ]

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
            seed=params.seed,
            max_rounds=TechniqueConfig().max_rounds,
            parallelism=plan["parallelism"],
            templates_dir=None,
        )

    @pytest.mark.parametrize("flags, seed", [([], 0), (["--seed", "5"], 5)])
    def test_live_payload_always_carries_the_seed(
        self, tmp_path, stub_server, flags, seed
    ):
        # One seed default, GenerationParams', so a resumed run that builds
        # its own GenerationParams() sends what the CLI sent.
        assert CliConfig().seed == GenerationParams().seed == 0
        url, handler = stub_server
        reply = {"message": {"role": "assistant", "content": "FINAL: CAT2"}}
        handler.responses.append((200, json.dumps(reply)))
        corpus = write_corpus(tmp_path / "c.jsonl", [GOOD_ROW])
        rc = cli.main(
            [
                "run", "--backend", url, *flags,
                "--models", "demo",
                "--techniques", "ZSL",
                "--corpus", str(corpus),
                "--out", str(tmp_path / "run.jsonl"),
            ]
        )
        assert rc == EXIT_OK
        assert handler.requests_seen[0]["options"]["seed"] == seed

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
    @pytest.mark.parametrize("kind", ["directory", "non-utf8", "lone-surrogate"])
    def test_exit_two_one_line(self, tmp_path, capsys, command, kind):
        path = tmp_path / "c.jsonl"
        if kind == "directory":
            path.mkdir()
        elif kind == "non-utf8":
            path.write_bytes(b"\xff" + json.dumps(GOOD_ROW).encode() + b"\n")
        else:
            # Valid UTF-8 whose escape decodes to text no writer can encode.
            write_corpus(path, [GOOD_ROW, {**GOOD_ROW, "id": "a2", "text": "x \ud800"}])
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

    def test_mapping_is_owner_only(self, tmp_path, umask_022):
        src = write_corpus(tmp_path / "raw.jsonl", [GOOD_ROW])
        rc = cli.main(["anonymize", str(src), "--out", str(tmp_path / "clean.jsonl"),
                       "--write-mapping", str(tmp_path / "mapping.json")])
        assert rc == EXIT_OK
        assert _modes(tmp_path) == {
            "raw.jsonl": 0o644, "clean.jsonl": 0o644, "mapping.json": 0o600,
        }

    def test_existing_mapping_is_replaced_owner_only(self, tmp_path, umask_022):
        src = write_corpus(tmp_path / "raw.jsonl", [{**GOOD_ROW, "text": "From 10.1.1.1."}])
        mapping = tmp_path / "mapping.json"
        mapping.write_text("old\n", encoding="utf-8")
        mapping.chmod(0o644)
        rc = cli.main(["anonymize", str(src), "--out", str(tmp_path / "clean.jsonl"),
                       "--write-mapping", str(mapping)])
        assert rc == EXIT_OK
        assert _modes(tmp_path)["mapping.json"] == 0o600
        assert json.loads(mapping.read_text(encoding="utf-8")) == {"a1": {"[IP_1]": "10.1.1.1"}}
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "clean.jsonl", "mapping.json", "raw.jsonl"
        ]

    def test_failed_mapping_move_leaves_no_staged_file(self, tmp_path, capsys, monkeypatch):
        src = write_corpus(tmp_path / "raw.jsonl", [GOOD_ROW])
        mapping = tmp_path / "mapping.json"
        mapping.write_text("old\n", encoding="utf-8")

        real_replace = os.replace

        def refuse(src, dst):
            # The corpus moves into place first; only the mapping's move fails.
            if Path(dst) != mapping:
                return real_replace(src, dst)
            raise PermissionError(13, "Permission denied", str(src), None, str(dst))

        monkeypatch.setattr(cli.os, "replace", refuse)
        rc = cli.main(["anonymize", str(src), "--out", str(tmp_path / "clean.jsonl"),
                       "--write-mapping", str(mapping)])
        assert rc == EXIT_FAILURE
        assert capsys.readouterr().err == f"error: cannot write {mapping}: Permission denied\n"
        assert mapping.read_text(encoding="utf-8") == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "clean.jsonl", "mapping.json", "raw.jsonl"
        ]

    def test_failed_rewrite_in_place_keeps_the_corpus_whole(
        self, tmp_path, capsys, monkeypatch
    ):
        src = write_corpus(tmp_path / "c.jsonl", [
            {**GOOD_ROW, "id": f"a{i}", "text": f"From 10.1.1.{i}."} for i in range(3)
        ])
        before = src.read_bytes()

        def refuse(src, dst):
            raise PermissionError(13, "Permission denied", str(src), None, str(dst))

        monkeypatch.setattr(cli.os, "replace", refuse)
        rc = cli.main(["anonymize", str(src), "--out", str(src)])
        assert rc == EXIT_FAILURE
        assert capsys.readouterr().err == f"error: cannot write {src}: Permission denied\n"
        assert src.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["c.jsonl"]

    def test_mapping_to_a_fifo_is_written_in_place(self, tmp_path):
        src = write_corpus(tmp_path / "raw.jsonl", [GOOD_ROW])
        fifo = tmp_path / "mapping.fifo"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # so the writer's open returns
        try:
            rc = cli.main(["anonymize", str(src), "--out", str(tmp_path / "clean.jsonl"),
                           "--write-mapping", str(fifo)])
            assert rc == EXIT_OK
            assert os.read(reader, 4096) == b"{}\n"
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(fifo.stat().st_mode)

    def test_mapping_through_a_symlink_is_written_through_it(self, tmp_path, umask_022):
        # The /dev/stdout-redirected-to-a-file case: the link stays, its
        # target gets the new content.
        src = write_corpus(tmp_path / "raw.jsonl", [{**GOOD_ROW, "text": "From 10.1.1.1."}])
        target = tmp_path / "real.json"
        target.write_text("old\n", encoding="utf-8")
        link = tmp_path / "mapping.json"
        link.symlink_to(target)
        rc = cli.main(["anonymize", str(src), "--out", str(tmp_path / "clean.jsonl"),
                       "--write-mapping", str(link)])
        assert rc == EXIT_OK
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert json.loads(target.read_text(encoding="utf-8")) == {"a1": {"[IP_1]": "10.1.1.1"}}
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "clean.jsonl", "mapping.json", "raw.jsonl", "real.json"
        ]

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

    def test_custom_rule_that_can_match_empty_text(self, tmp_path, capsys):
        src = write_corpus(
            tmp_path / "raw.jsonl",
            [{**GOOD_ROW, "text": "ping from host"},
             {**GOOD_ROW, "id": "a2", "text": "ping INC-42 from host"}],
        )
        out = tmp_path / "clean.jsonl"
        rc = cli.main(
            ["anonymize", str(src), "--out", str(out), "--custom", r"TICKET=(INC-\d+)?"]
        )
        assert rc == EXIT_OK
        assert [r.text for r in load_corpus(out).records] == [
            "ping from host", "ping [TICKET_1] from host"
        ]
        assert "CUSTOM=1" in capsys.readouterr().out

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


class _Writes:
    """A stdout that keeps each write and notes each flush."""

    def __init__(self) -> None:
        self.calls: list[str | None] = []

    def write(self, text: str) -> int:
        self.calls.append(text)
        return len(text)

    def flush(self) -> None:
        self.calls.append(None)


class TestProgress:
    @pytest.mark.parametrize(
        "error, line",
        [
            (None, "[2/12000] Gemma 3 27B ZSL inc-ü: CAT1\n"),
            ("down: Grüße", "[2/12000] Gemma 3 27B ZSL inc-ü: error (down: Grüße)\n"),
        ],
    )
    def test_one_write_per_record_then_a_flush(self, monkeypatch, error, line):
        # One write, "\n" included: print would write the text and its end
        # separately, which is two syscalls on an unbuffered stdout.
        trace = make_trace(incident_id="inc-ü", model="Gemma 3 27B")
        if error is not None:
            trace = dataclasses.replace(trace, turns=(), error=error)
        out = _Writes()
        monkeypatch.setattr(sys, "stdout", out)
        cli._progress(RunRecord(trace, CategoryCode.CAT1), 2, 12000)
        assert out.calls == [line, None]

    @pytest.mark.parametrize(
        "model, incident_id, error, line",
        [
            ("m\nFAKE", "inc", None, "[2/12000] 'm\\nFAKE' ZSL inc: CAT1\n"),
            ("m", "a\nFAKE [9/9] x", None, "[2/12000] m ZSL 'a\\nFAKE [9/9] x': CAT1\n"),
            ("m", "a\u2028b", None, "[2/12000] m ZSL 'a\\u2028b': CAT1\n"),
            ("m", "tab\there", None, "[2/12000] m ZSL 'tab\\there': CAT1\n"),
            ("m", "inc", "down\r\nFAKE", "[2/12000] m ZSL inc: error ('down\\r\\nFAKE')\n"),
        ],
    )
    def test_a_name_that_is_not_printable_is_shown_as_its_repr(
        self, monkeypatch, model, incident_id, error, line
    ):
        trace = make_trace(incident_id=incident_id, model=model)
        if error is not None:
            trace = dataclasses.replace(trace, turns=(), error=error)
        out = _Writes()
        monkeypatch.setattr(sys, "stdout", out)
        cli._progress(RunRecord(trace, CategoryCode.CAT1), 2, 12000)
        assert out.calls == [line, None]

    def test_each_record_prints_one_line(self, tmp_path, capsys):
        row = dict(GOOD_ROW, id="a\nFAKE [9/9] x")
        corpus = write_corpus(tmp_path / "c.jsonl", [row, dict(GOOD_ROW, id="b")])
        rc = cli.main([
            "run", "--backend", "scripted", "--models", "demo",
            "--techniques", "ZSL", "--corpus", str(corpus),
            "--out", str(tmp_path / "run.jsonl"),
        ])
        assert rc == EXIT_OK
        assert capsys.readouterr().out.splitlines() == [
            "[1/2] demo ZSL 'a\\nFAKE [9/9] x': CAT2",
            "[2/2] demo ZSL b: CAT2",
            "2 of 2 tasks executed (0 resumed, 0 failed-as-recorded)",
        ]


class TestTracerSeams:
    """The benchmark's tracer (perfbench/tracing.py) wraps these names where
    their callers look them up; a refactor that calls around one of them
    would leave its layer unmeasured, so each must still be called at run
    time, and as often as its layer's rule says."""

    SEAMS = [
        (techniques, "parse_category"),
        (techniques, "truncate_to_budget"),
        (techniques.TemplateSet, "system"),
        (techniques.TemplateSet, "round"),
        (runner, "classify"),
        (runner, "canonical_dumps"),
        (runner.RunPlan, "task_keys"),
        (runner, "resume_scan"),
        (ScriptedBackend, "complete"),
        (cli, "execute"),
        (cli, "load_run_records"),
        (cli, "load_corpus"),
        (cli, "build_demo_script"),
        (cli, "_progress"),
    ]

    def test_each_traced_name_runs_once_per_call_of_its_layer(
        self, tmp_path, monkeypatch, capsys
    ):
        calls = Counter()
        serialized = []

        def counted(name, fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[name] += 1
                result = fn(*args, **kwargs)
                if name == "canonical_dumps":
                    serialized.append(result)
                return result

            return wrapper

        for owner, name in self.SEAMS:
            monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
        demo = Path(triagebench.__file__).parent / "data" / "demo_corpus.jsonl"
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(demo.read_text("utf-8").splitlines(True)[:4]), "utf-8")
        out = tmp_path / "run.jsonl"
        args = [
            "run", "--backend", "scripted",
            "--models", "demo,m2",
            "--techniques", "ZSL,PHP,SHP,HTP,PRP",
            "--corpus", str(corpus),
            "--out", str(out),
        ]
        assert cli.main(args) == EXIT_OK
        capsys.readouterr()
        rows = load_run_records(out)
        tasks = len(rows)
        assert tasks == 2 * 5 * 4
        replies = calls["complete"]
        assert replies == sum(r.rounds_used for r in rows) > tasks
        # Once per backend call: render the user message, truncate, parse.
        for name in ("round", "truncate_to_budget", "parse_category"):
            assert calls[name] == replies, name
        # Once per task, plus once per technique for the plan's budget check.
        assert calls["system"] == tasks + 5
        # Once per record: classify it, serialize it, report its progress.
        for name in ("classify", "canonical_dumps", "_progress"):
            assert calls[name] == tasks, name
        # The tracer counts the bytes of each serialized line as the str it
        # returns, UTF-8 encoded, plus its "\n": that must be the line written.
        assert all(type(line) is str for line in serialized)
        assert b"".join(line.encode("utf-8") + b"\n" for line in serialized) == (
            out.read_bytes()
        )
        for name in ("task_keys", "execute", "load_corpus", "build_demo_script"):
            assert calls[name] == 1, name
        # Each run-file reader once per call of its layer: resume_scan per
        # execute(resume=True), load_run_records per report; a new run
        # reads no file.
        assert calls["resume_scan"] == calls["load_run_records"] == 0
        calls.clear()
        assert cli.main([*args, "--resume"]) == EXIT_OK
        assert calls["resume_scan"] == calls["execute"] == 1
        assert calls["load_run_records"] == 0
        assert cli.main(["report", str(out), "--out-dir", str(tmp_path / "r")]) == EXIT_OK
        assert calls["load_run_records"] == calls["resume_scan"] == 1


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

    def test_repeated_model_runs_once(self, tmp_path, capsys):
        out = tmp_path / "run.jsonl"
        rc = cli.main(
            [
                "run", "--backend", "scripted",
                "--models", "demo,demo",
                "--techniques", "ZSL",
                "--out", str(out),
            ]
        )
        assert rc == EXIT_OK
        assert len(out.read_bytes().splitlines()) == 24
        stdout = capsys.readouterr().out
        assert "[24/24]" in stdout and "[25/" not in stdout

    @pytest.mark.parametrize("budget, rc", [(334, EXIT_USAGE), (335, EXIT_OK)])
    def test_budget_too_small_for_a_system_prompt_refused_before_any_record(
        self, tmp_path, capsys, budget, rc
    ):
        config = tmp_path / "triage.ini"
        config.write_text(f"[generation]\ninput_token_budget = {budget}\n", "utf-8")
        out = tmp_path / "run.jsonl"
        args = ["--config", str(config), "run", "--backend", "scripted",
                "--techniques", "ZSL", "--out", str(out)]
        assert cli.main(args) == rc
        captured = capsys.readouterr()
        if rc == EXIT_USAGE:
            assert captured.err == (
                "error: input_token_budget 334 is too small for the ZSL system prompt\n"
            )
            assert not out.exists()
        else:
            assert "24 of 24 tasks executed (0 resumed, 0 failed" in captured.out
            assert [r.error for r in load_run_records(out)] == [None] * 24

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

    # Line 38 cut inside, or just before its "\n" (complete JSON, no newline).
    TORN_AT = [pytest.param(100, id="inside"), pytest.param(-1, id="before-newline")]

    def _torn_run(self, tmp_path, cut):
        full = tmp_path / "full.jsonl"
        assert cli.main([*self.RESUME_ARGS, "--out", str(full)]) == EXIT_OK
        lines = full.read_bytes().splitlines(keepends=True)
        torn = tmp_path / "torn.jsonl"
        torn.write_bytes(b"".join(lines[:37]) + lines[37][:cut])
        return full, torn

    @pytest.mark.parametrize("cut", TORN_AT)
    def test_resume_after_torn_tail_matches_uninterrupted_run(
        self, tmp_path, capsys, cut
    ):
        full, torn = self._torn_run(tmp_path, cut)
        capsys.readouterr()
        assert cli.main([*self.RESUME_ARGS, "--out", str(torn), "--resume"]) == EXIT_OK
        assert "203 of 240 tasks executed (37 resumed" in capsys.readouterr().out
        assert load_run_records(torn) == load_run_records(full)
        assert torn.read_bytes() == full.read_bytes()

    def test_report_skips_a_last_line_without_its_newline(
        self, tmp_path, capsys, caplog
    ):
        _, torn = self._torn_run(tmp_path, -1)
        out_dir = tmp_path / "report"
        assert cli.main(["report", str(torn), "--out-dir", str(out_dir)]) == EXIT_OK
        assert "Records: 37\n" in (out_dir / "metrics.md").read_text(encoding="utf-8")
        assert "torn.jsonl:38: ignoring torn trailing line" in caplog.text

    def test_line_nested_too_deep_is_skipped_as_malformed(
        self, tmp_path, capsys, caplog
    ):
        out = tmp_path / "run.jsonl"
        args = ["run", "--backend", "scripted", "--techniques", "ZSL", "--out", str(out)]
        assert cli.main(args) == EXIT_OK
        records = len(out.read_bytes().splitlines())
        clean = tmp_path / "clean"
        assert cli.main(["report", str(out), "--out-dir", str(clean)]) == EXIT_OK
        with out.open("a", encoding="utf-8") as fh:
            fh.write('{"trace": ' + "[" * 100_000 + "]" * 100_000 + "}\n")
        deep = tmp_path / "deep"
        assert cli.main(["report", str(out), "--out-dir", str(deep)]) == EXIT_OK
        metrics = [(d / "metrics.csv").read_bytes() for d in (clean, deep)]
        assert metrics[0] == metrics[1]
        assert f"run.jsonl:{records + 1}: skipping malformed record line" in caplog.text
        capsys.readouterr()
        assert cli.main([*args, "--resume"]) == EXIT_OK
        assert f"0 of {records} tasks executed" in capsys.readouterr().out

    def test_resume_with_other_templates_exit_two_before_any_record(
        self, tmp_path, capsys
    ):
        out = tmp_path / "run.jsonl"
        args = ["run", "--backend", "scripted", "--techniques", "ZSL", "--out", str(out)]
        assert cli.main(args) == EXIT_OK
        out.write_bytes(b"".join(out.read_bytes().splitlines(keepends=True)[:10]))
        before = out.read_bytes()
        ours, theirs = _tweaked_template_dir(tmp_path), default_templates()
        capsys.readouterr()
        rc = cli.main([*args, "--templates", str(ours), "--resume"])
        assert rc == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {out}:1: the run header differs from the plan's in template_hash"
            f" '{theirs.template_hash}' (plan: '{load_templates(ours).template_hash}');"
            f" resume would mix runs\n"
        )
        assert captured.out == ""
        assert out.read_bytes() == before

    def test_resume_counts_only_the_plan_tasks(self, tmp_path, capsys):
        out = tmp_path / "run.jsonl"
        args = ["run", "--backend", "scripted", "--out", str(out)]
        rc = cli.main([*args, "--models", "demo,Qwen3 8B", "--techniques", "ZSL"])
        assert rc == EXIT_OK
        capsys.readouterr()
        rc = cli.main([*args, "--models", "demo", "--techniques", "ZSL,SHP", "--resume"])
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("[25/48] demo SHP inc-001: ")
        assert lines[-2].startswith("[48/48] ")
        assert lines[-1] == "24 of 48 tasks executed (24 resumed, 0 failed-as-recorded)"

    def test_unwritable_run_file_location_exit_one(self, tmp_path, capsys):
        (tmp_path / "f").touch()
        out = tmp_path / "f" / "x.jsonl"
        assert cli.main(["run", "--backend", "scripted", "--out", str(out)]) == EXIT_FAILURE
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {tmp_path / 'f'}: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    def test_failed_write_mid_run_exit_one_naming_the_run_file(self, capsys):
        args = ["run", "--backend", "scripted", "--techniques", "ZSL"]
        assert cli.main([*args, "--out", "/dev/full"]) == EXIT_FAILURE
        err = capsys.readouterr().err
        assert err == "error: cannot write /dev/full: No space left on device\n"

    def test_model_name_not_utf8_exit_two_before_any_record(self, tmp_path, capsys):
        # What Python makes of the argv bytes b"m\xff".
        out = tmp_path / "run.jsonl"
        rc = cli.main(["run", "--backend", "scripted", "--techniques", "ZSL",
                       "--models", "m\udcff", "--out", str(out)])
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: model name 'm\\udcff' is not UTF-8\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--models", "--techniques"])
    def test_empty_axis_exit_two_before_any_record(self, tmp_path, capsys, flag):
        out = tmp_path / "run.jsonl"
        rc = cli.main(["run", "--backend", "scripted", flag, "", "--out", str(out)])
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: plan needs at least one model, technique and incident\n"
        )
        assert not out.exists()

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
        for name, text, err in [
            ("htp/round2.txt", 'Reply as {"category": "CATk"}.\n',
             "error: bad template htp/round2.txt: KeyError: '\"category\"'\n"),
            ("zsl/round1.txt", "{hints}\n",
             "error: bad template zsl/round1.txt: renders an empty message\n"),
        ]:
            templates = tmp_path / name.replace("/", "-")
            shutil.copytree(Path(triagebench.__file__).parent / "templates", templates)
            (templates / name).write_text(text, encoding="utf-8")
            out = tmp_path / "run.jsonl"
            rc = cli.main(
                ["run", "--backend", "scripted", "--templates", str(templates),
                 "--out", str(out)]
            )
            assert rc == EXIT_USAGE
            assert capsys.readouterr().err == err
            assert not out.exists()

    def test_script_follows_task_order(self, tmp_path, monkeypatch):
        def run(out):
            args = ["run", "--backend", "scripted", "--models", "m1,m2", "--out"]
            assert cli.main([*args, str(out)]) == EXIT_OK
            lines = out.read_text(encoding="utf-8").splitlines()
            assert not any("error" in json.loads(line) for line in lines)
            return stored_lines(out)

        in_run_order = run(tmp_path / "run_order.jsonl")

        def reversed_order(plan, done=frozenset()):
            return [
                (model.name, technique.value, incident.id)
                for model in reversed(plan.models)
                for technique in reversed(plan.techniques)
                for incident in reversed(plan.corpus.records)
                if (model.name, technique.value, incident.id) not in done
            ]

        monkeypatch.setattr(runner.RunPlan, "run_order", reversed_order)
        reordered = run(tmp_path / "reordered.jsonl")

        assert list(reordered)[0][:2] == ("m2", "PRP")  # the patched order ran
        assert reordered == in_run_order
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

    @pytest.mark.parametrize("max_rounds", [1, 2, 3, 4, 5])
    def test_script_follows_max_rounds(self, tmp_path, capsys, max_rounds):
        out = tmp_path / "run.jsonl"
        args = ["run", "--backend", "scripted", "--max-rounds", str(max_rounds)]
        assert cli.main([*args, "--out", str(out)]) == EXIT_OK
        assert "120 of 120 tasks executed (0 resumed, 0 failed" in (
            capsys.readouterr().out
        )
        correct, rounds = Counter(), Counter()
        for row in load_run_records(out):
            correct[row.technique] += row.correct
            rounds[row.technique] = max(rounds[row.technique], row.rounds_used)
        # ZSL, SHP and HTP run a fixed number of rounds; PHP and PRP keep
        # the demo's counts once max_rounds lets every shape finish.
        fixed = {"ZSL": 14, "SHP": 16, "HTP": 8}
        assert {t: correct[t] for t in fixed} == fixed
        if max_rounds >= 3:
            assert correct["PHP"] == 18 and correct["PRP"] == 15
        assert rounds["PHP"] == rounds["PRP"] == min(max_rounds, 4)

    def test_replies_left_over_exit_one(self, tmp_path, monkeypatch, capsys):
        build = cli.build_demo_script
        monkeypatch.setattr(
            cli, "build_demo_script", lambda *args: [*build(*args), "FINAL: CAT1"]
        )
        rc = cli.main(
            [
                "run", "--backend", "scripted",
                "--models", "demo",
                "--techniques", "ZSL",
                "--out", str(tmp_path / "run.jsonl"),
            ]
        )
        assert rc == EXIT_FAILURE
        captured = capsys.readouterr()
        assert "24 of 24 tasks executed" in captured.out
        assert captured.err == (
            "error: 1 scripted replies left over; the script no longer "
            "matches the engines\n"
        )


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
        # The third decodes to a lone surrogate, which no run file can hold;
        # the fourth is nested too deep to decode.
        for content in (None, 12, "FINAL: CAT2 \ud83d"):
            handler.responses.append((200, json.dumps({"message": {"content": content}})))
        handler.responses.append((200, "[" * 100_000 + "]" * 100_000))
        rows = [GOOD_ROW, *({**GOOD_ROW, "id": f"a{n}"} for n in (2, 3, 4))]
        corpus = write_corpus(tmp_path / "c.jsonl", rows)
        out = tmp_path / "run.jsonl"
        rc = cli.main(["run", "--backend", url, "--models", "demo", "--techniques",
                       "ZSL", "--corpus", str(corpus), "--out", str(out)])
        assert rc == EXIT_OK
        errors = [r.error for r in load_run_records(out)]
        assert len(errors) == 4
        assert all("malformed server reply" in e for e in errors)

    def test_counters_too_large_for_a_float_are_stored_as_null(
        self, tmp_path, capsys, stub_server
    ):
        url, handler = stub_server
        body = {"message": {"content": "FINAL: CAT2"}, "total_duration": 10**400,
                "prompt_eval_count": 10**400, "eval_count": 10**400}
        handler.responses.append((200, json.dumps(body)))
        corpus = write_corpus(tmp_path / "c.jsonl", [GOOD_ROW])
        out = tmp_path / "run.jsonl"
        rc = cli.main(["run", "--backend", url, "--models", "demo", "--techniques",
                       "ZSL", "--corpus", str(corpus), "--out", str(out)])
        assert rc == EXIT_OK
        [d] = stored_lines(out).values()
        assert "error" not in d
        telemetry = d["trace"]["turns"][0]["completion"]["telemetry"]
        assert telemetry["prompt_tokens"] is None
        assert telemetry["output_tokens"] is None
        assert telemetry["server_eval_duration_ms"] is None

    def test_error_reply_body_quoted_on_one_line(
        self, tmp_path, capsys, caplog, stub_server
    ):
        url, handler = stub_server
        handler.responses += [(500, "a\nb"), (400, "a\nb")]
        ini = tmp_path / "triage.ini"
        ini.write_text("[backend]\nretries = 0\n", encoding="utf-8")
        corpus = write_corpus(tmp_path / "c.jsonl", [GOOD_ROW, {**GOOD_ROW, "id": "a2"}])
        out = tmp_path / "run.jsonl"
        rc = cli.main(["--config", str(ini), "run", "--backend", url, "--models",
                       "demo", "--techniques", "ZSL", "--corpus", str(corpus),
                       "--out", str(out)])
        assert rc == EXIT_OK
        errors = [r.error for r in load_run_records(out)]
        assert "server error 500: 'a\\nb'" in errors[0]
        assert "unexpected status 400: 'a\\nb'" in errors[1]
        assert not any("\n" in e for e in errors)
        stdout = capsys.readouterr().out.splitlines()
        assert [line[:5] for line in stdout] == ["[1/2]", "[2/2]", "2 of "]
        failed = [r.getMessage() for r in caplog.records if "failed" in r.getMessage()]
        assert len(failed) == 2 and not any("\n" in m for m in failed)

    def test_serial_run_sends_model_by_model(self, tmp_path, stub_server):
        url, handler = stub_server
        reply = json.dumps({"message": {"content": "FINAL: CAT2"}})
        handler.responses.extend([(200, reply)] * 18)
        corpus = write_corpus(tmp_path / "c.jsonl", [GOOD_ROW, {**GOOD_ROW, "id": "a2"}])
        rc = cli.main(["run", "--backend", url, "--models", "a,b,c", "--techniques",
                       "ZSL,PHP", "--corpus", str(corpus),
                       "--out", str(tmp_path / "run.jsonl")])
        assert rc == EXIT_OK
        models = [payload["model"] for payload in handler.requests_seen]
        assert len(models) == 18 and not handler.responses
        # One block of requests per model: a one-model server loads each once.
        assert sum(a != b for a, b in zip(models, models[1:])) == 2

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
        groups = {r.model: r.group for r in load_run_records(out)}
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


def _claim_cat7(d):
    """Line 2's answer (CAT2, its truth) becomes CAT7, graded to agree."""
    d["correct"] = False
    return "CAT7"


def _chars_as_float(d):
    """Line 2's first reply length, stored as a float of the same value."""
    return float(d["trace"]["turns"][0]["completion"]["telemetry"]["response_chars"])


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


@pytest.fixture()
def umask_022():
    old = os.umask(0o022)
    try:
        yield
    finally:
        os.umask(old)


def _modes(directory):
    return {p.name: stat.S_IMODE(p.stat().st_mode) for p in directory.iterdir()}


class TestReport:
    def test_artifacts_take_the_umask_mode(self, scripted_run_file, tmp_path, umask_022):
        out_dir = tmp_path / "reports"
        assert cli.main(["report", str(scripted_run_file), "--out-dir", str(out_dir)]) == EXIT_OK
        assert _modes(out_dir) == dict.fromkeys(
            ["metrics.csv", "metrics.md", "plot_data.json"], 0o644
        )
        os.umask(0o077)
        assert cli.main(["report", str(scripted_run_file), "--out-dir", str(out_dir)]) == EXIT_OK
        assert set(_modes(out_dir).values()) == {0o600}

    def test_artifact_that_cannot_be_replaced_keeps_the_moved_ones_whole(
        self, scripted_run_file, tmp_path, capsys
    ):
        good, out_dir = tmp_path / "good", tmp_path / "d"
        assert cli.main(["report", str(scripted_run_file), "--out-dir", str(good)]) == EXIT_OK
        (out_dir / "metrics.md").mkdir(parents=True)
        capsys.readouterr()
        rc = cli.main(["report", str(scripted_run_file), "--out-dir", str(out_dir)])
        assert rc == EXIT_FAILURE
        err = capsys.readouterr().err
        assert err == f"error: cannot write {out_dir / 'metrics.md'}: Is a directory\n"
        assert sorted(p.name for p in out_dir.iterdir()) == ["metrics.csv", "metrics.md"]
        assert (out_dir / "metrics.csv").read_bytes() == (good / "metrics.csv").read_bytes()

    def test_other_or_missing_schema_version_exit_two(
        self, scripted_run_file, tmp_path, capsys
    ):
        # Line 2 of another version, line 3 of none: report and resume
        # both refuse line 2.
        rows = [json.loads(x) for x in scripted_run_file.read_text("utf-8").splitlines()]
        rows[1]["schema_version"] = 1
        del rows[2]["schema_version"]
        text = "".join(json.dumps(r) + "\n" for r in rows)
        scripted_run_file.write_text(text, "utf-8")
        refusal = (
            f"error: {scripted_run_file}:2: invalid record: ValueError:"
            " schema_version is 1, but this file is version 2\n"
        )
        rc = cli.main(["report", str(scripted_run_file), "--out-dir", str(tmp_path / "r")])
        assert (rc, capsys.readouterr().err) == (EXIT_USAGE, refusal)
        rc = cli.main(["run", "--backend", "scripted", "--techniques", "ZSL,PHP",
                       "--out", str(scripted_run_file), "--resume"])
        assert (rc, capsys.readouterr().err) == (EXIT_USAGE, refusal)
        assert scripted_run_file.read_text("utf-8") == text

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

    def test_peak_memory_grows_by_a_row_per_record(self, tmp_path, capsys):
        # One small row per task is kept, not its transcript (about 5 KB).
        full = tmp_path / "full.jsonl"
        args = ["run", "--backend", "scripted", "--models", "m1,m2,m3,m4"]
        assert cli.main([*args, "--out", str(full)]) == EXIT_OK
        lines = full.read_bytes().splitlines(keepends=True)
        assert len(lines) == 480
        half = tmp_path / "half.jsonl"
        half.write_bytes(b"".join(lines[:240]))

        def peak(path):
            tracemalloc.start()
            try:
                rc = cli.main(["report", str(path), "--out-dir", str(tmp_path / "r")])
                assert rc == EXIT_OK
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(half)  # leaves the first call's one-off costs out of the next two
        assert (peak(full) - peak(half)) / 240 < 1500

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
            pytest.param(("trace", "rounds_used"), "3", "rounds_used must be int",
                         id="rounds_used-str"),
            pytest.param(("trace", "rounds_used"), 2.5, "rounds_used must be int",
                         id="rounds_used-float"),
            pytest.param(("trace", "rounds_used"), True, "rounds_used must be int",
                         id="rounds_used-bool"),
            pytest.param(("trace", "telemetry_totals", "total_latency_ms"), "x",
                         "total_latency_ms must be int or float", id="latency-str"),
            pytest.param(("trace", "telemetry_totals", "total_response_chars"), "x",
                         "total_response_chars must be int", id="chars-str"),
            pytest.param(("trace", "telemetry_totals", "total_response_chars"), "12",
                         "total_response_chars must be int", id="chars-digits"),
            pytest.param(("error",), 3, "error must be str, got 3", id="error-int"),
            # Line 2's first turn sends the system prompt, then the user message.
            pytest.param(("trace", "turns", 0, "completion", "text"), 5,
                         "text must be str, got 5", id="text-int"),
            pytest.param(("trace", "turns", 0, "sent", 1, "content"), 5,
                         "content must be str, got 5", id="content-int"),
            pytest.param(("trace", "turns", 0, "sent", 1, "content"), ["x"],
                         r"content must be str, got \['x'\]", id="content-list"),
            pytest.param(("trace", "turns", 0, "sent", 0),
                         lambda d: {"role": "assistant", "content": None},
                         "content must be str, got None", id="system-as-assistant-null"),
            pytest.param(("trace", "turns", 0, "sent", 0),
                         lambda d: {"role": "user"}, "KeyError: 'content'",
                         id="system-reference-as-user"),
            pytest.param(("trace", "turns", 0, "sent", 0, "content"), "",
                         "system message content must be nonempty",
                         id="system-content-empty"),
            pytest.param(("run",), lambda d: {}, "a run header on a record after the first",
                         id="second-header"),
            pytest.param(("trace", "turns", 0, "completion", "telemetry", "latency_ms"),
                         False, "latency_ms must be int or float, got False",
                         id="latency_ms-bool"),
            pytest.param(("trace", "turns", 0, "completion", "telemetry", "latency_ms"),
                         10**400, "OverflowError: int too large to convert to float",
                         id="latency_ms-huge-int"),
            pytest.param(("trace", "turns", 0, "completion", "telemetry", "response_chars"),
                         _chars_as_float, r"response_chars must be int, got \d+\.0",
                         id="response_chars-float"),
            pytest.param(("trace", "turns", 0, "completion", "telemetry", "prompt_tokens"),
                         "many", "prompt_tokens must be int or float, got 'many'",
                         id="prompt_tokens-str"),
            pytest.param(("ground_truth",), "UNPARSED",
                         "ground_truth may not be UNPARSED", id="truth-unparsed"),
            pytest.param(("correct",), "no", "correct is 'no', but final",
                         id="correct-str"),
            pytest.param(("correct",), "flip", "correct is (True|False), but final",
                         id="correct-flipped"),
            # Line 2 is PHP, two turns, 0 ms, 86 reply characters.
            pytest.param(("trace", "rounds_used"), "plus1",
                         "rounds_used is 3, but the turns give 2", id="rounds_used-off"),
            pytest.param(("trace", "telemetry_totals", "total_latency_ms"), "plus1",
                         "total_latency_ms is 1.0, but the turns give 0.0",
                         id="latency-off"),
            pytest.param(("trace", "telemetry_totals", "total_response_chars"), "plus1",
                         "total_response_chars is 87, but the turns give 86",
                         id="chars-off"),
            pytest.param(("trace", "final"), _claim_cat7,
                         "final is CAT7, but its turns and error give CAT2",
                         id="final-not-last-turn"),
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
        if value == "flip":
            target[key] = not target[key]
        elif value == "plus1":
            target[key] += 1
        elif callable(value):
            target[key] = value(d)
        else:
            target[key] = value
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

    @pytest.mark.parametrize(
        "lineno, more_turns, message",
        [
            # Line 1 is ZSL, one turn; line 2 is PHP, two agreeing turns.
            pytest.param(1, lambda turns: turns * 3,
                         "turns is 3, but ZSL runs 1 without an error and fewer with one",
                         id="zsl-three-turns"),
            pytest.param(2, lambda turns: turns + turns[-1:],
                         "turns 1 and 2 agree, but PHP goes on to turn 3",
                         id="php-turn-after-agreeing"),
        ],
    )
    def test_turns_no_run_gives_exit_two(
        self, scripted_run_file, tmp_path, capsys, lineno, more_turns, message
    ):
        lines = scripted_run_file.read_text(encoding="utf-8").splitlines()
        d = json.loads(lines[lineno - 1])
        trace = d["trace"]
        # Every summary field agrees with the new turns; only their number
        # is one no run gives.
        trace["turns"] = more_turns(trace["turns"])
        trace["rounds_used"] = len(trace["turns"])
        trace["telemetry_totals"] = {
            f"total_{key}": sum(t["completion"]["telemetry"][key] for t in trace["turns"])
            for key in ("latency_ms", "response_chars")
        }
        lines[lineno - 1] = json.dumps(d)
        scripted_run_file.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        rc = cli.main(
            ["report", str(scripted_run_file), "--out-dir", str(tmp_path / "r")]
        )
        err = capsys.readouterr().err
        assert rc == EXIT_USAGE
        where = f"{scripted_run_file}:{lineno}"
        assert err == f"error: {where}: invalid record: ValueError: {message}\n"
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

    def test_joined_run_files_exit_two_naming_the_second_header(
        self, scripted_run_file, tmp_path, capsys
    ):
        # Each file's first line carries its header, so the lines of another
        # run (here with another template set) start with a second one.
        templates = _tweaked_template_dir(tmp_path)
        other = tmp_path / "other.jsonl"
        rc = cli.main(
            ["run", "--backend", "scripted", "--models", "demo", "--techniques",
             "ZSL", "--templates", str(templates), "--out", str(other)]
        )
        assert rc == EXIT_OK
        ours = scripted_run_file.read_bytes().splitlines(keepends=True)
        theirs = other.read_bytes().splitlines(keepends=True)
        mixed = tmp_path / "mixed.jsonl"
        mixed.write_bytes(b"".join(ours[:3] + theirs[:2]))
        capsys.readouterr()
        rc = cli.main(["report", str(mixed), "--out-dir", str(tmp_path / "r")])
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: {mixed}:4: invalid record: ValueError: a run header on a"
            f" record after the first\n"
        )
        assert not (tmp_path / "r").exists()

    def test_more_turns_than_max_rounds_exit_two(self, tmp_path, capsys):
        # A PHP run (max_rounds 3) whose line 2 has five turns that never
        # agree, every other field kept consistent with them.
        out = tmp_path / "run.jsonl"
        args = ["run", "--backend", "scripted", "--techniques", "PHP", "--out", str(out)]
        assert cli.main(args) == EXIT_OK
        lines = out.read_text(encoding="utf-8").splitlines()
        d = json.loads(lines[1])
        trace = d["trace"]
        turn = trace["turns"][-1]
        trace["turns"] = [
            {**turn, "parsed": code,
             "completion": {**turn["completion"], "text": f"FINAL: {code}"}}
            for code in ("CAT10", "CAT11", "CAT7", "CAT11", "CAT7")
        ]
        for t in trace["turns"]:
            t["completion"]["telemetry"] = {
                **t["completion"]["telemetry"], "response_chars": len(t["completion"]["text"])
            }
        trace["rounds_used"], trace["final"] = 5, "CAT7"
        trace["telemetry_totals"]["total_response_chars"] = sum(
            len(t["completion"]["text"]) for t in trace["turns"]
        )
        d["correct"] = d["ground_truth"] == "CAT7"
        lines[1] = json.dumps(d)
        out.write_text("\n".join(lines) + "\n", encoding="utf-8")
        before = out.read_bytes()
        refusal = (
            f"error: {out}:2: invalid record: ValueError: turns is 5, but PHP runs"
            f" at most max_rounds 3\n"
        )
        capsys.readouterr()
        rc = cli.main(["report", str(out), "--out-dir", str(tmp_path / "r")])
        assert (rc, capsys.readouterr().err) == (EXIT_USAGE, refusal)
        rc = cli.main([*args, "--resume"])
        assert (rc, capsys.readouterr().err) == (EXIT_USAGE, refusal)
        assert out.read_bytes() == before
        # Read with a larger max_rounds, the same line is one a run gives, but
        # a three-turn line that never agrees (line 6, the first) is not.
        lines[0] = lines[0].replace('"max_rounds":3', '"max_rounds":5')
        out.write_text("\n".join(lines) + "\n", encoding="utf-8")
        rc = cli.main(["report", str(out), "--out-dir", str(tmp_path / "r")])
        assert (rc, capsys.readouterr().err) == (
            EXIT_USAGE,
            f"error: {out}:6: invalid record: ValueError: turns is 3, but PHP stops"
            f" before max_rounds 5 only once two answers agree\n",
        )
        out.write_text("\n".join(lines[:5]) + "\n", encoding="utf-8")
        assert cli.main(["report", str(out), "--out-dir", str(tmp_path / "r")]) == EXIT_OK

    @pytest.mark.parametrize(
        "technique, edit, message",
        [
            # Line 2 of either run has three turns that never agree.
            pytest.param("PHP", "cut", "turns is 1, but PHP stops before max_rounds 3"
                         " only once two answers agree", id="php-one-turn"),
            pytest.param("PHP", "error", "turns is 3, but PHP records an error only"
                         " before max_rounds 3", id="php-error-after-max-rounds"),
            pytest.param("PRP", "cut", "turns is 2, but PRP stops before max_rounds 3"
                         " only once two answers agree", id="prp-two-turns"),
            pytest.param("PRP", "error", "turns is 3, but PRP records an error only"
                         " before max_rounds 3", id="prp-error-after-max-rounds"),
        ],
    )
    def test_turns_short_of_max_rounds_or_failed_after_it_exit_two(
        self, tmp_path, capsys, technique, edit, message
    ):
        # A scripted run (max_rounds 3) whose line 2 is cut short of
        # max_rounds without two agreeing answers, or records an error after
        # its third turn; every other field is kept consistent with the edit.
        out = tmp_path / "run.jsonl"
        args = ["run", "--backend", "scripted", "--techniques", technique,
                "--out", str(out)]
        assert cli.main(args) == EXIT_OK
        lines = out.read_text(encoding="utf-8").splitlines()
        d = json.loads(lines[1])
        trace = d["trace"]
        assert trace["rounds_used"] == 3
        if edit == "cut":
            trace["turns"] = trace["turns"][:1 if technique == "PHP" else 2]
            trace["final"] = trace["turns"][-1]["parsed"]
        else:
            d["error"], trace["final"] = "backend down", "UNPARSED"
        trace["rounds_used"] = len(trace["turns"])
        trace["telemetry_totals"]["total_response_chars"] = sum(
            t["completion"]["telemetry"]["response_chars"] for t in trace["turns"]
        )
        d["correct"] = d["ground_truth"] == trace["final"]
        lines[1] = json.dumps(d)
        out.write_text("\n".join(lines) + "\n", encoding="utf-8")
        before = out.read_bytes()
        refusal = f"error: {out}:2: invalid record: ValueError: {message}\n"
        capsys.readouterr()
        rc = cli.main(["report", str(out), "--out-dir", str(tmp_path / "r")])
        assert (rc, capsys.readouterr().err) == (EXIT_USAGE, refusal)
        assert not (tmp_path / "r").exists()
        rc = cli.main([*args, "--resume"])
        assert (rc, capsys.readouterr().err) == (EXIT_USAGE, refusal)
        assert out.read_bytes() == before

    @pytest.mark.parametrize("flag, field", [
        (["--temperature", "0.5"], "temperature 0.0 (plan: 0.5)"),
        (["--seed", "3"], "seed 0 (plan: 3)"),
        (["--max-rounds", "4"], "max_rounds 3 (plan: 4)"),
    ])
    def test_resume_with_other_settings_exit_two_naming_them(
        self, scripted_run_file, capsys, flag, field
    ):
        before = scripted_run_file.read_bytes()
        capsys.readouterr()
        rc = cli.main(["run", "--backend", "scripted", "--techniques", "ZSL,PHP",
                       "--out", str(scripted_run_file), "--resume", *flag])
        assert (rc, capsys.readouterr().err) == (EXIT_USAGE, (
            f"error: {scripted_run_file}:1: the run header differs from the plan's"
            f" in {field}; resume would mix runs\n"
        ))
        assert scripted_run_file.read_bytes() == before

    def test_artifact_that_cannot_be_replaced_exit_one_naming_it(
        self, scripted_run_file, tmp_path, capsys
    ):
        out_dir = tmp_path / "r"
        (out_dir / "metrics.csv").mkdir(parents=True)
        rc = cli.main(["report", str(scripted_run_file), "--out-dir", str(out_dir)])
        assert rc == EXIT_FAILURE
        err = capsys.readouterr().err
        assert err == f"error: cannot write {out_dir / 'metrics.csv'}: Is a directory\n"
        assert sorted(p.name for p in out_dir.iterdir()) == ["metrics.csv"]


V1_RUN = Path(__file__).parent / "data" / "run_v1_zsl_demo.jsonl"


class TestVersion1RunFile:
    """V1_RUN is `run --backend scripted --techniques ZSL` as written before
    the run header: schema version 1, a whole system prompt on every line."""

    ARGS = ["run", "--backend", "scripted", "--techniques", "ZSL"]

    def test_report_writes_the_bytes_of_the_same_run_in_version_2(self, tmp_path):
        v2 = tmp_path / "run.jsonl"
        assert cli.main([*self.ARGS, "--out", str(v2)]) == EXIT_OK
        for path, out_dir in ((V1_RUN, tmp_path / "v1"), (v2, tmp_path / "v2")):
            assert cli.main(["report", str(path), "--out-dir", str(out_dir)]) == EXIT_OK
        for name in ("metrics.csv", "metrics.md", "plot_data.json"):
            assert (tmp_path / "v1" / name).read_bytes() == (
                tmp_path / "v2" / name
            ).read_bytes(), name

    def test_version_2_lines_rebuild_the_version_1_file(self, tmp_path):
        v2 = tmp_path / "run.jsonl"
        assert cli.main([*self.ARGS, "--out", str(v2)]) == EXIT_OK
        lines = [json.loads(x) for x in v2.read_text(encoding="utf-8").splitlines()]
        header = lines[0]["run"]
        rebuilt = "".join(canonical_dumps(v1_from_v2(d, header)) + "\n" for d in lines)
        assert rebuilt.encode("utf-8") == V1_RUN.read_bytes()
        assert v2.stat().st_size < V1_RUN.stat().st_size / 1.9

    def test_resume_exit_two_naming_schema_version_1(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        path.write_bytes(b"".join(V1_RUN.read_bytes().splitlines(keepends=True)[:10]))
        before = path.read_bytes()
        capsys.readouterr()
        rc = cli.main([*self.ARGS, "--out", str(path), "--resume"])
        assert (rc, capsys.readouterr().err) == (EXIT_USAGE, (
            f"error: {path}:1: schema_version 1 is read-only: report reads it, but"
            f" resume appends only to a version 2 file\n"
        ))
        assert path.read_bytes() == before


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

    def test_run_file_bytes_are_pinned(self, tmp_path):
        # The demo's scripted latencies are 0.0, so its run file is the same
        # on every Python; a writer that changes one byte of a line fails here.
        out_dir = tmp_path / "demo-out"
        assert cli.main(["demo", "--out-dir", str(out_dir)]) == EXIT_OK
        data = (out_dir / "demo_run.jsonl").read_bytes()
        assert len(data) == 210_764
        assert hashlib.sha256(data).hexdigest() == (
            "404ca60220b65511f707efbb921d84e758bb64b1bbddf0a826368aadd661ed4c"
        )

    def test_artifacts_take_the_umask_mode(self, tmp_path, umask_022):
        out_dir = tmp_path / "demo-out"
        assert cli.main(["demo", "--out-dir", str(out_dir)]) == EXIT_OK
        assert set(_modes(out_dir).values()) == {0o644}

    def test_unwritable_out_dir_exit_one(self, tmp_path, capsys):
        (tmp_path / "f").touch()
        assert cli.main(["demo", "--out-dir", str(tmp_path / "f")]) == EXIT_FAILURE
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {tmp_path / 'f'}: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_artifact_that_cannot_be_replaced_exit_one_naming_it(
        self, tmp_path, capsys
    ):
        out_dir = tmp_path / "d"
        (out_dir / "metrics.csv").mkdir(parents=True)
        assert cli.main(["demo", "--out-dir", str(out_dir)]) == EXIT_FAILURE
        err = capsys.readouterr().err
        assert err == f"error: cannot write {out_dir / 'metrics.csv'}: Is a directory\n"
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "demo_run.jsonl", "metrics.csv",
        ]

    def test_write_golden_replaces_the_golden_file_whole(self, tmp_path, monkeypatch):
        golden = tmp_path / "golden.json"
        golden.write_text("old\n", encoding="utf-8")
        monkeypatch.setattr(cli, "golden_path", lambda: golden)
        assert cli.main(["demo", "--write-golden"]) == EXIT_OK
        assert diff_against_golden(golden.read_bytes()) is None
        assert [p.name for p in tmp_path.iterdir()] == ["golden.json"]

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
