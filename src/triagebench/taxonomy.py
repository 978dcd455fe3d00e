"""NIST SP 800-61r3 incident taxonomy and answer-text parsing.

Twelve categories (CAT1..CAT12) with names, descriptions and response
priorities, plus the extraction cascade that turns free-form model replies
back into category codes. UNPARSED is a sentinel for replies from which no
category could be recovered; it never appears in the taxonomy itself.

The name-matching regexes and the prompt block are built once per Taxonomy
instance, on first use, and cached on it; parsing a reply compiles nothing.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property


class TaxonomyError(ValueError):
    """Invalid taxonomy content or an operation on the UNPARSED sentinel."""


class CategoryCode(str, Enum):
    CAT1 = "CAT1"
    CAT2 = "CAT2"
    CAT3 = "CAT3"
    CAT4 = "CAT4"
    CAT5 = "CAT5"
    CAT6 = "CAT6"
    CAT7 = "CAT7"
    CAT8 = "CAT8"
    CAT9 = "CAT9"
    CAT10 = "CAT10"
    CAT11 = "CAT11"
    CAT12 = "CAT12"
    UNPARSED = "UNPARSED"

    @classmethod
    def taxonomy_codes(cls) -> tuple["CategoryCode", ...]:
        """The 12 real codes, in order, excluding the UNPARSED sentinel."""
        return tuple(c for c in cls if c is not cls.UNPARSED)

    @classmethod
    def from_number(cls, k: int) -> "CategoryCode":
        code = _BY_NUMBER.get(k)
        if code is None:
            raise TaxonomyError(f"category number out of range: {k}")
        return code


# k -> CATk, built once: no Enum call per lookup.
_BY_NUMBER = dict(enumerate(CategoryCode.taxonomy_codes(), 1))


@dataclass(frozen=True)
class Category:
    code: CategoryCode
    name: str
    description: str
    priority: int

    def __post_init__(self) -> None:
        # A blank name would compile to a pattern that matches between any
        # two non-word characters.
        if not isinstance(self.name, str) or not self.name.strip():
            raise TaxonomyError(f"{self.code.value}: blank category name")
        if not 1 <= self.priority <= 5:
            raise TaxonomyError(
                f"{self.code.value}: priority {self.priority} outside 1..5"
            )


@dataclass(frozen=True)
class Taxonomy:
    categories: tuple[Category, ...]

    def __post_init__(self) -> None:
        expected = CategoryCode.taxonomy_codes()
        codes = tuple(c.code for c in self.categories)
        if codes != expected:
            raise TaxonomyError(
                "taxonomy must contain exactly CAT1..CAT12 in order, "
                f"got {[c.value for c in codes]}"
            )
        # Some letters match under IGNORECASE yet casefold apart (i and
        # dotless ı), so compare what the parser compares: its patterns.
        for (pattern, _), named in zip(self._name_scan[1], self.categories):
            for other in self.categories:
                if other is not named and pattern.fullmatch(" ".join(other.name.split())):
                    raise TaxonomyError(
                        f"{named.code.value} and {other.code.value}: the parser "
                        f"cannot tell {named.name!r} from {other.name!r}"
                    )

    @cached_property
    def prompt_block(self) -> str:
        """One line per category, "CODE — Name: Description", for system prompts."""
        return "\n".join(
            f"{c.code.value} — {c.name}: {c.description}" for c in self.categories
        )

    @cached_property
    def _name_scan(
        self,
    ) -> tuple[re.Pattern, tuple[tuple[re.Pattern, CategoryCode], ...]]:
        """(any-name prefilter, per-category patterns in table order).

        Each name matches in full, case-insensitively, tolerant of whitespace
        runs; the lookarounds stop "Malware" from matching inside e.g.
        "Malwarebytes". The prefilter is the alternation of all names under
        the same lookarounds; since the regex engine backtracks into every
        alternative, it finds a match exactly when some single pattern does.
        A leading lookahead on the names' first characters lets the scan skip
        cheaply the positions where no name can start; it changes no result.
        """
        bodies = [
            r"\s+".join(map(re.escape, c.name.split())) for c in self.categories
        ]
        firsts = sorted({c.name.lstrip()[0] for c in self.categories})
        prefilter = re.compile(
            "(?=[" + "".join(map(re.escape, firsts)) + "])"
            r"(?<!\w)(?:" + "|".join(bodies) + r")(?!\w)",
            re.IGNORECASE,
        )
        patterns = tuple(
            (re.compile(r"(?<!\w)" + body + r"(?!\w)", re.IGNORECASE), c.code)
            for body, c in zip(bodies, self.categories)
        )
        return prefilter, patterns


_BUILTIN_ROWS: tuple[tuple[str, str, str, int], ...] = (
    ("CAT1", "Account Compromise",
     "Unauthorized access to user or administrator accounts.", 5),
    ("CAT2", "Malware",
     "Infection by malicious code compromising devices or data.", 5),
    ("CAT3", "Denial-of-Service Attack (DoS/DDoS)",
     "Making systems or networks unavailable.", 4),
    ("CAT4", "Data Exfiltration or Leakage",
     "Unauthorized access, copying, or disclosure of sensitive data.", 5),
    ("CAT5", "Vulnerability Exploitation",
     "Use of known or unknown flaws to compromise assets.", 5),
    ("CAT6", "Insider Abuse",
     "Intentional or negligent actions by internal users.", 5),
    ("CAT7", "Social Engineering",
     "Deceiving people to obtain access or information.", 3),
    ("CAT8", "Physical or Infrastructure Incident",
     "Physical breach impacting computational assets.", 4),
    ("CAT9", "Unauthorized Modification",
     "Unauthorized changes to systems, data, or configurations.", 3),
    ("CAT10", "Misuse of Resources",
     "Unauthorized use of systems for other purposes.", 2),
    ("CAT11", "Vendor/Third-Party Problem",
     "Incident originating from a third-party security failure.", 4),
    ("CAT12", "Intrusion Attempt",
     "Hostile attempts to break in not yet confirmed as successful.", 3),
)

_BUILTIN = Taxonomy(
    categories=tuple(
        Category(CategoryCode(code), name, desc, prio)
        for code, name, desc, prio in _BUILTIN_ROWS
    )
)

# Answer contract stated once in every system prompt; parsing rule (1) keys
# on the "FINAL: CATk" line it demands.
ANSWER_CONTRACT = (
    'End your reply with exactly one line of the form "FINAL: CATk", '
    "where k is the number of the chosen category (1-12)."
)


def builtin_taxonomy() -> Taxonomy:
    """The 12-category NIST SP 800-61r3 table shipped with the package."""
    return _BUILTIN


# Rule (1): the declared answer contract, anywhere in a line, last one wins.
_FINAL_RE = re.compile(r"FINAL\s*:\s*\[?CAT\s?(\d{1,2})\]?", re.IGNORECASE)
# Rule (2): a standalone CATk token (no space; "cat 3" in prose must not hit).
_TOKEN_RE = re.compile(r"\bCAT(\d{1,2})\b", re.IGNORECASE)


def _last_valid(numbers: list[str]) -> CategoryCode | None:
    """The code of the last number in 1..12, read from the end."""
    for k in reversed(numbers):
        code = _BY_NUMBER.get(int(k))
        if code is not None:
            return code
    return None


def parse_category(reply: str, taxonomy: Taxonomy | None = None) -> CategoryCode:
    """Extract a category code from a model reply.

    Cascade, first hit wins: (1) last "FINAL: CATk" contract line,
    (2) last standalone CATk token, (3) last full category-name occurrence,
    (4) UNPARSED. Total over arbitrary text; never raises. Rules (1) and (2)
    read only the numbers their regex's findall returns, from the end, and
    keep the last one in 1..12. Among name occurrences the one ending last
    wins, then the longer one, then the category earlier in the table.
    Rule (3) first runs one combined scan for any name and returns UNPARSED
    at once when it finds none.
    """
    taxonomy = taxonomy or _BUILTIN
    if not reply:
        return CategoryCode.UNPARSED

    code = _last_valid(_FINAL_RE.findall(reply))
    if code is not None:
        return code

    code = _last_valid(_TOKEN_RE.findall(reply))
    if code is not None:
        return code

    prefilter, patterns = taxonomy._name_scan
    if prefilter.search(reply) is None:
        return CategoryCode.UNPARSED

    best: tuple[int, int, CategoryCode] | None = None
    for pattern, code in patterns:
        for m in pattern.finditer(reply):
            key = (m.end(), m.end() - m.start(), code)
            if best is None or key[:2] > best[:2]:
                best = key
    if best is not None:
        return best[2]

    return CategoryCode.UNPARSED
