"""Local-first benchmark harness for LLM-based security incident triage.

Classifies incident reports into a fixed 12-category taxonomy by prompting
locally served chat models with five multi-turn strategies, then scores
accuracy and efficiency per model and technique.
"""

from .anonymizer import RedactionRule, anonymize, audit, default_rules
from .backend import (
    GenerationParams,
    ModelGroup,
    ModelSpec,
    OllamaBackend,
    ScriptedBackend,
    resolve_model,
)
from .corpus import Corpus, IncidentRecord, load_corpus, save_corpus
from .metrics import MetricsReport, compare_to_reference, compute_metrics
from .runner import RunPlan, RunRecord, execute, load_run_records
from .taxonomy import CategoryCode, Taxonomy, builtin_taxonomy, parse_category
from .techniques import ClassificationTrace, TechniqueConfig, TechniqueId, classify

__version__ = "0.1.0"

__all__ = [
    "CategoryCode",
    "Taxonomy",
    "builtin_taxonomy",
    "parse_category",
    "RedactionRule",
    "anonymize",
    "audit",
    "default_rules",
    "Corpus",
    "IncidentRecord",
    "load_corpus",
    "save_corpus",
    "GenerationParams",
    "ModelGroup",
    "ModelSpec",
    "OllamaBackend",
    "ScriptedBackend",
    "resolve_model",
    "TechniqueId",
    "TechniqueConfig",
    "ClassificationTrace",
    "classify",
    "RunPlan",
    "RunRecord",
    "execute",
    "load_run_records",
    "MetricsReport",
    "compute_metrics",
    "compare_to_reference",
    "__version__",
]
