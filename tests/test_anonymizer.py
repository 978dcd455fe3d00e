import random

import pytest

from triagebench.anonymizer import (
    Finding,
    RedactionReport,
    RedactionRule,
    RuleCompileError,
    RuleKind,
    anonymize,
    audit,
    default_rules,
)

WORDS = (
    "alert", "reviewed", "endpoint", "traffic", "ticket", "escalated",
    "blocked", "observed", "login", "outbound", "scan", "quarantined",
)

IPS = ("10.0.0.5", "192.168.1.254", "8.8.8.8", "172.16.254.1", "255.255.255.255")
IP6S = ("2001:db8::1", "fe80::aa12:ff:fe34:5678", "::1", "2001:0db8:85a3:0000:0000:8a2e:0370:7334")
EMAILS = ("alice@example.com", "bob.smith+oncall@corp.example.org", "x@y.io")
HOSTS = ("db01.internal.example.com", "vpn.corp.net", "files.example.org")


def random_document(rng: random.Random, n_tokens: int = 40) -> str:
    parts = []
    for _ in range(n_tokens):
        roll = rng.random()
        if roll < 0.12:
            parts.append(rng.choice(IPS))
        elif roll < 0.18:
            parts.append(rng.choice(IP6S))
        elif roll < 0.28:
            parts.append(rng.choice(EMAILS))
        elif roll < 0.38:
            parts.append(rng.choice(HOSTS))
        else:
            parts.append(rng.choice(WORDS))
    # Mix in punctuation and newlines around tokens.
    sep = lambda: rng.choice([" ", " ", ", ", ".\n", " (", ") "])
    return "".join(p + sep() for p in parts)


class TestBuiltinPatterns:
    def test_ipv4_redacted(self):
        text, report = anonymize("seen from 10.1.2.3 twice")
        assert text == "seen from [IP_1] twice"
        assert report.counts == {"IPV4": 1}

    def test_ipv4_octet_bounds(self):
        text, _ = anonymize("bad 999.1.1.1 and good 255.255.255.255")
        assert "999.1.1.1" in text  # 999 is not an octet
        assert "[IP_1]" in text

    def test_version_string_not_ipv4(self):
        text, report = anonymize("upgraded to release 1.2.3.4.5")
        assert report.counts == {}
        assert "1.2.3.4.5" in text

    def test_ipv6_forms(self):
        for addr in IP6S:
            text, report = anonymize(f"peer {addr} responded")
            assert addr not in text, addr
            assert report.counts.get("IPV6") == 1, addr

    def test_email_redacted_whole(self):
        # EMAIL runs before HOSTNAME so the domain part never leaks out.
        text, report = anonymize("contact bob.smith+oncall@corp.example.org now")
        assert text == "contact [EMAIL_1] now"
        assert report.counts == {"EMAIL": 1}

    def test_hostname_redacted(self):
        text, _ = anonymize("beacon to db01.internal.example.com observed")
        assert text == "beacon to [HOST_1] observed"

    def test_plain_words_untouched(self):
        sample = "routine patching completed without incident"
        text, report = anonymize(sample)
        assert text == sample
        assert report.counts == {}


class TestPlaceholders:
    def test_repeat_value_shares_placeholder(self):
        text, _ = anonymize("10.0.0.5 then 10.0.0.9 then 10.0.0.5 again")
        assert text == "[IP_1] then [IP_2] then [IP_1] again"

    def test_numbering_is_first_appearance_per_stem(self):
        text, _ = anonymize("a@b.io and 1.2.3.4 and c@d.io")
        assert text == "[EMAIL_1] and [IP_1] and [EMAIL_2]"

    def test_mapping_only_on_request(self):
        _, report = anonymize("ping 10.0.0.5", keep_mapping=False)
        assert report.mapping == {}
        _, report = anonymize("ping 10.0.0.5", keep_mapping=True)
        assert report.mapping == {"[IP_1]": "10.0.0.5"}


class TestCustomRules:
    def test_custom_rule_applies(self):
        rules = list(default_rules()) + [
            RedactionRule(RuleKind.CUSTOM, "TICKET", pattern=r"\bINC-\d{5}\b")
        ]
        text, report = anonymize("see INC-00042 for details", rules)
        assert text == "see [TICKET_1] for details"
        assert report.counts == {"CUSTOM": 1}

    def test_empty_match_left_as_is_and_not_counted(self):
        rules = [RedactionRule(RuleKind.CUSTOM, "TICKET", pattern=r"(INC-\d+)?")]
        assert anonymize("ping from host", rules) == ("ping from host", RedactionReport())
        text, report = anonymize("ping INC-42 from host", rules)
        assert text == "ping [TICKET_1] from host"
        assert report.counts == {"CUSTOM": 1}

    def test_bad_regex_rejected_up_front(self):
        with pytest.raises(RuleCompileError):
            RedactionRule(RuleKind.CUSTOM, "X", pattern="(unclosed")

    def test_bad_stem_rejected(self):
        for stem in ("", "lower", "1NUM", "HAS SPACE"):
            with pytest.raises(RuleCompileError):
                RedactionRule(RuleKind.CUSTOM, stem, pattern="x")

    def test_custom_rule_requires_pattern(self):
        with pytest.raises(RuleCompileError):
            RedactionRule(RuleKind.CUSTOM, "X", pattern=None)


class TestAudit:
    def test_clean_text_empty(self):
        assert audit("nothing sensitive here") == []

    def test_findings_carry_span_and_value(self):
        findings = audit("from 10.0.0.5 port 443")
        assert findings == [Finding(RuleKind.IPV4, (5, 13), "10.0.0.5")]

    def test_overlapping_findings_all_reported(self):
        # The email's domain is also a hostname; audit reports both.
        kinds = {f.kind for f in audit("mail alice@mail.example.com")}
        assert RuleKind.EMAIL in kinds
        assert RuleKind.HOSTNAME in kinds

    def test_sorted_by_position(self):
        findings = audit("8.8.8.8 then bob@x.io then 10.0.0.1")
        assert [f.span[0] for f in findings] == sorted(f.span[0] for f in findings)


class TestIdempotence:
    def test_placeholders_never_rematch(self):
        once, _ = anonymize("10.0.0.5 wrote to admin@example.com on db.example.net")
        twice, report = anonymize(once)
        assert twice == once
        assert report.counts == {}

    def test_audit_empty_after_anonymize_randomized(self):
        rng = random.Random(20260823)
        for _ in range(200):
            doc = random_document(rng)
            redacted, _ = anonymize(doc)
            assert audit(redacted) == [], doc
            again, report = anonymize(redacted)
            assert again == redacted
            assert report.counts == {}

    def test_counts_match_distinct_spans(self):
        doc = "10.0.0.5 10.0.0.5 b@c.de"
        _, report = anonymize(doc)
        assert report.counts == {"IPV4": 2, "EMAIL": 1}
