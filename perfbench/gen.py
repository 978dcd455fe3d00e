"""Seeded input generator for the benchmark workloads.

Writes the two files the program and the stub see: the corpus JSONL and the
stub's answer schedule. The same seed gives byte-identical files. Incident
texts are the bundled demo corpus texts; ids, order and (for the stub
workloads) the answers come from the seed.
"""
from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

TECHNIQUES = ("ZSL", "PHP", "SHP", "HTP", "PRP")
CODES = tuple(f"CAT{k}" for k in range(1, 13))

# Registry names, so records carry their real group.
G1_MODELS = ("Qwen3 32B", "Gemma 3 27B", "Phi-4 14B", "Mistral Small 24B")
G2_MODELS = ("Llama 3.1 8B", "Qwen3 8B", "Mistral 7B", "Granite3.2 8B")
GROUP = {**{m: "G1" for m in G1_MODELS}, **{m: "G2" for m in G2_MODELS}}

# Share of stub answers that hit the ground truth.
STUB_ACCURACY = 0.6


@dataclass(frozen=True)
class Inputs:
    corpus: Path
    schedule: Path | None
    models: tuple[str, ...]
    incidents: dict[str, str]  # id -> ground truth
    answers: dict[str, list[str]]  # "model|TECH|id" -> per-round answers


def _source_records(demo_corpus: Path) -> list[dict]:
    return [
        json.loads(line)
        for line in demo_corpus.read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]


def _incidents(rng: random.Random, source: list[dict], n: int, tagged: bool) -> list[dict]:
    """n incidents cycling through the source texts, with unique seeded ids.

    Tagged texts start with the id so the stub can recover the incident
    from the messages it receives.
    """
    out = []
    for k in range(n):
        src = source[k % len(source)]
        incident_id = f"inc-{rng.getrandbits(48):012x}-{k}"
        text = f"[{incident_id}] {src['text']}" if tagged else src["text"]
        out.append(
            {"id": incident_id, "text": text, "ground_truth": src["ground_truth"],
             "source": "synthetic", "language": "en"}
        )
    rng.shuffle(out)
    return out


def _write_corpus(path: Path, records: list[dict]) -> None:
    path.write_text(
        "".join(json.dumps(r, sort_keys=True) + "\n" for r in records), encoding="utf-8"
    )


def system_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _answers(rng: random.Random, truth: str, technique: str) -> list[str]:
    """Per-round answers whose final is fixed whatever the engine's stop rule.

    ZSL answers once. The other techniques get a free first answer and the
    intended final from round 2 on, so PHP/PRP converge on it at round 2
    (first == final) or round 3, and SHP/HTP end on it.
    """
    final = truth if rng.random() < STUB_ACCURACY else rng.choice(
        [c for c in CODES if c != truth]
    )
    if technique == "ZSL":
        return [final]
    return [rng.choice(CODES), final, final]


def generate(
    workdir: Path,
    seed: int,
    demo_corpus: Path,
    n_incidents: int,
    n_models: int,
    stub: dict | None = None,
    system_prompts: dict[str, str] | None = None,
) -> Inputs:
    """Write corpus.jsonl (and schedule.json when stub is given) into workdir.

    Offline: one G1 and one G2 model. Stub: n_models models alternating
    G1/G2. stub holds the simulated server's delays; system_prompts maps
    technique -> system prompt text, which the stub hashes to recover the
    technique from a request.
    """
    rng = random.Random(seed)
    g1 = rng.sample(G1_MODELS, len(G1_MODELS))
    g2 = rng.sample(G2_MODELS, len(G2_MODELS))
    models = tuple((g1, g2)[i % 2][i // 2] for i in range(n_models))
    records = _incidents(rng, _source_records(demo_corpus), n_incidents, stub is not None)
    corpus = workdir / "corpus.jsonl"
    _write_corpus(corpus, records)
    incidents = {r["id"]: r["ground_truth"] for r in records}

    if stub is None:
        return Inputs(corpus, None, models, incidents, {})

    answers = {
        f"{model}|{tech}|{r['id']}": _answers(rng, r["ground_truth"], tech)
        for r in records
        for tech in TECHNIQUES
        for model in models
    }
    schedule = workdir / "schedule.json"
    schedule.write_text(
        json.dumps(
            {
                **stub,
                "techniques": {system_digest(t): tech for tech, t in system_prompts.items()},
                "answers": answers,
            },
            sort_keys=True,
        ),
        encoding="utf-8",
    )
    return Inputs(corpus, schedule, models, incidents, answers)
