"""Deterministic redaction of sensitive identifiers with stable placeholders.

Each distinct matched value becomes the same "[STEM_n]" placeholder
everywhere in a document, numbered by first appearance per stem. Rules are
applied in list order, so the default order matters: EMAIL runs before
HOSTNAME so an address is redacted whole instead of losing its domain part
first. Placeholders never match the builtin patterns, which is what makes
anonymize idempotent.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum


class RuleCompileError(ValueError):
    """A redaction rule could not be compiled (bad pattern or stem)."""


class RuleKind(str, Enum):
    IPV4 = "IPV4"
    IPV6 = "IPV6"
    EMAIL = "EMAIL"
    HOSTNAME = "HOSTNAME"
    CUSTOM = "CUSTOM"


# Four octets 0-255 with word boundaries; the lookarounds keep version-like
# runs ("1.2.3.4.5") and trailing ".N" fragments from part-matching, while a
# sentence-ending "10.0.0.6." still matches.
_IPV4 = (
    r"(?<!\d\.)\b"
    r"(?:(?:25[0-5]|2[0-4]\d|1\d{2}|[1-9]?\d)\.){3}"
    r"(?:25[0-5]|2[0-4]\d|1\d{2}|[1-9]?\d)"
    r"\b(?!\.\d)"
)

# Full, leading-::, middle-:: and trailing-:: forms. Times ("12:30:45") and
# MAC addresses stay unmatched because they contain no "::" and fewer than
# seven colons.
_IPV6 = (
    r"(?<![0-9A-Fa-f:])"
    r"(?:"
    r"(?:[0-9A-Fa-f]{1,4}:){7}[0-9A-Fa-f]{1,4}"
    r"|(?:[0-9A-Fa-f]{1,4}:){1,7}:"
    r"|(?:[0-9A-Fa-f]{1,4}:){1,6}(?::[0-9A-Fa-f]{1,4}){1,6}"
    r"|::(?:[0-9A-Fa-f]{1,4}(?::[0-9A-Fa-f]{1,4}){0,6})?"
    r")"
    r"(?![0-9A-Fa-f:])"
)

_EMAIL = r"\b[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}\b"

# Dotted labels ending in an alphabetic TLD of >=2 chars. Abbreviations like
# "e.g" fail the TLD length test; pure-numeric hosts are left to IPV4.
_HOSTNAME = (
    r"\b(?:[A-Za-z0-9](?:[A-Za-z0-9-]{0,61}[A-Za-z0-9])?\.)+"
    r"[A-Za-z]{2,63}\b"
)

_STEM_RE = re.compile(r"^[A-Z][A-Z0-9]*$")


@dataclass(frozen=True)
class RedactionRule:
    """A redaction rule, checked and compiled when built.

    Raises RuleCompileError for a bad stem or a missing or invalid pattern,
    so a rule set is refused before any text is touched.
    """

    kind: RuleKind
    placeholder_stem: str
    pattern: str | None = None
    regex: re.Pattern = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not _STEM_RE.match(self.placeholder_stem or ""):
            raise RuleCompileError(
                f"bad placeholder stem {self.placeholder_stem!r}: "
                "must be uppercase, nonempty, no whitespace"
            )
        if not self.pattern:
            raise RuleCompileError(f"{self.kind.value} rule requires a pattern")
        try:
            regex = re.compile(self.pattern)
        except re.error as exc:
            raise RuleCompileError(
                f"invalid {self.kind.value} pattern {self.pattern!r}: {exc}"
            ) from exc
        object.__setattr__(self, "regex", regex)


_DEFAULT_RULES = (
    RedactionRule(RuleKind.IPV4, "IP", _IPV4),
    RedactionRule(RuleKind.IPV6, "IP6", _IPV6),
    RedactionRule(RuleKind.EMAIL, "EMAIL", _EMAIL),
    RedactionRule(RuleKind.HOSTNAME, "HOST", _HOSTNAME),
)


def default_rules() -> tuple[RedactionRule, ...]:
    """Builtin rule set in canonical application order."""
    return _DEFAULT_RULES


@dataclass
class RedactionReport:
    counts: dict[str, int] = field(default_factory=dict)  # kind -> replacements
    mapping: dict[str, str] = field(default_factory=dict)  # placeholder -> original


@dataclass(frozen=True)
class Finding:
    kind: RuleKind
    span: tuple[int, int]
    value: str


def anonymize(
    text: str,
    rules: list[RedactionRule] | tuple[RedactionRule, ...] | None = None,
    keep_mapping: bool = False,
) -> tuple[str, RedactionReport]:
    """Replace every rule match with a stable "[STEM_n]" placeholder.

    Equal matched values share one placeholder within the document; numbering
    is per stem in order of first appearance. Non-matching text is preserved
    byte for byte, and an empty match is left as it is and not counted. The
    value mapping is only retained when keep_mapping is set (it
    re-identifies the document and is written nowhere by default).
    """
    report = RedactionReport()  # counts only for kinds that actually fired
    assigned: dict[tuple[str, str], str] = {}  # (stem, value) -> placeholder
    next_n: dict[str, int] = {}

    for rule in default_rules() if rules is None else rules:
        def _sub(m: re.Match, rule: RedactionRule = rule) -> str:
            value = m.group(0)
            if not value:  # a pattern that can match empty text
                return value
            stem = rule.placeholder_stem
            key = (stem, value)
            placeholder = assigned.get(key)
            if placeholder is None:
                n = next_n.get(stem, 0) + 1
                next_n[stem] = n
                placeholder = f"[{stem}_{n}]"
                assigned[key] = placeholder
                if keep_mapping:
                    report.mapping[placeholder] = value
            report.counts[rule.kind.value] = report.counts.get(rule.kind.value, 0) + 1
            return placeholder

        text = rule.regex.sub(_sub, text)

    return text, report


def audit(text: str) -> list[Finding]:
    """Report every residual default-rule match without modifying the text.

    Each rule is matched against the text independently, so overlapping
    findings (a hostname inside an email address) are all reported. Empty
    result means anonymize with the default rules would return the text
    unchanged.
    """
    findings = []
    for rule in default_rules():
        for m in rule.regex.finditer(text):
            findings.append(Finding(rule.kind, m.span(), m.group(0)))
    findings.sort(key=lambda f: (f.span, f.kind.value))
    return findings
