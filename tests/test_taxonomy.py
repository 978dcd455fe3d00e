import dataclasses

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from triagebench.taxonomy import (
    ANSWER_CONTRACT,
    CategoryCode,
    Taxonomy,
    TaxonomyError,
    builtin_taxonomy,
    parse_category,
)

from helpers import renamed
from oracles import oracle_parse_category

CODES = list(CategoryCode.taxonomy_codes())


def with_names(taxonomy, renames: dict[int, object]):
    """The given table with some names (by number) replaced."""
    return renamed(
        [renames.get(k, c.name) for k, c in enumerate(taxonomy.categories, start=1)]
    )


class TestBuiltinTaxonomy:
    def test_twelve_categories_in_code_order(self, taxonomy):
        assert [c.code for c in taxonomy.categories] == CODES
        assert [c.code.value for c in taxonomy.categories] == [
            f"CAT{k}" for k in range(1, 13)
        ]

    def test_unparsed_excluded(self, taxonomy):
        assert CategoryCode.UNPARSED not in [c.code for c in taxonomy.categories]
        assert len(CODES) == 12

    def test_names_unique_and_nonempty(self, taxonomy):
        names = [c.name for c in taxonomy.categories]
        assert len(set(names)) == 12
        assert all(names)

    def test_priorities_in_band(self, taxonomy):
        assert all(1 <= c.priority <= 5 for c in taxonomy.categories)

    def test_from_number_bounds(self):
        assert CategoryCode.from_number(1) is CategoryCode.CAT1
        assert CategoryCode.from_number(12) is CategoryCode.CAT12
        for bad in (0, 13, -1):
            with pytest.raises(TaxonomyError):
                CategoryCode.from_number(bad)


class TestPromptBlock:
    def test_each_code_and_name_once(self, taxonomy):
        block = taxonomy.prompt_block
        for cat in taxonomy.categories:
            assert block.count(f"{cat.code.value} ") == 1
            assert block.count(cat.name) == 1
            assert cat.description in block

    def test_line_per_category(self, taxonomy):
        lines = taxonomy.prompt_block.splitlines()
        assert len(lines) == 12
        assert lines[0].startswith("CAT1 ")

    def test_contract_names_the_final_line(self):
        assert 'FINAL: CATk' in ANSWER_CONTRACT


class TestLoadTaxonomy:
    """The checks a Taxonomy makes on the table it is built from."""

    def test_rejects_wrong_count(self, taxonomy):
        with pytest.raises(TaxonomyError):
            Taxonomy(categories=taxonomy.categories[:11])

    def test_rejects_unparsed_in_the_table(self, taxonomy):
        unparsed = dataclasses.replace(taxonomy.categories[11], code=CategoryCode.UNPARSED)
        with pytest.raises(TaxonomyError, match="exactly CAT1..CAT12 in order"):
            Taxonomy(categories=(*taxonomy.categories[:11], unparsed))

    @pytest.mark.parametrize("blank", ["", "   ", "\t\n", "\u00a0"])
    def test_rejects_blank_name(self, taxonomy, blank):
        # A blank CAT12 used to match between any two non-word characters:
        # "no idea... really" parsed as CAT12.
        with pytest.raises(TaxonomyError, match="CAT12: blank"):
            with_names(taxonomy, {12: blank})

    def test_rejects_non_string_name(self, taxonomy):
        with pytest.raises(TaxonomyError, match="CAT3"):
            with_names(taxonomy, {3: 42})

    @pytest.mark.parametrize(
        "renames, pair",
        [
            pytest.param(dict.fromkeys(range(1, 13), "Same Name"), "CAT1 and CAT2",
                         id="twelve-equal"),
            # The parser matches "Social Engineering" and the clash on the
            # same text, so the earlier one would silently win every time.
            pytest.param({12: "Social  Engineering"}, "CAT7 and CAT12", id="spaces"),
            pytest.param({12: "social\nengineering"}, "CAT7 and CAT12", id="newline"),
            pytest.param({12: " SOCIAL ENGINEERING "}, "CAT7 and CAT12", id="upper"),
            # Dotless i matches i under IGNORECASE but casefolds apart from
            # it; both names would match the same span of "a FILE leak".
            pytest.param({5: "File Leak", 9: "F\u0131le  leak"}, "CAT5 and CAT9",
                         id="dotless-i-later"),
            pytest.param({9: "File Leak", 5: "F\u0131le  leak"}, "CAT5 and CAT9",
                         id="dotless-i-earlier"),
        ],
    )
    def test_rejects_names_the_parser_confuses(self, taxonomy, renames, pair):
        with pytest.raises(TaxonomyError, match=f"{pair}: the parser cannot tell"):
            with_names(taxonomy, renames)

    def test_names_that_only_casefold_alike_load(self, taxonomy):
        # "ß" casefolds to "ss", but the parser's IGNORECASE match keeps them
        # apart, so each name still parses to its own code.
        table = with_names(taxonomy, {4: "Stra\u00dfe Leak", 9: "Strasse Leak"})
        assert parse_category("a stra\u00dfe leak", table) is CategoryCode.CAT4
        assert parse_category("a STRASSE LEAK", table) is CategoryCode.CAT9

    def test_override_parses_with_its_own_names(self, taxonomy):
        override = with_names(taxonomy, {2: "Ransomware"})
        # Each table matches only its own names.
        assert parse_category("Malware, surely", taxonomy) is CategoryCode.CAT2
        assert parse_category("Malware, surely", override) is CategoryCode.UNPARSED
        assert parse_category("ransomware", override) is CategoryCode.CAT2
        assert parse_category("ransomware", taxonomy) is CategoryCode.UNPARSED


class TestParseContractLine:
    @pytest.mark.parametrize("code", CODES)
    def test_round_trip_every_code(self, code):
        assert parse_category(f"FINAL: {code.value}") is code

    def test_case_and_spacing_tolerated(self):
        assert parse_category("final: cat 7") is CategoryCode.CAT7
        assert parse_category("Final :CAT2") is CategoryCode.CAT2
        assert parse_category("FINAL: [CAT3]") is CategoryCode.CAT3

    def test_last_contract_line_wins(self):
        text = "FINAL: CAT2\nwait, reconsidering\nFINAL: CAT9"
        assert parse_category(text) is CategoryCode.CAT9

    def test_contract_beats_later_bare_token(self):
        text = "FINAL: CAT4\nP.S. it could also be CAT8"
        assert parse_category(text) is CategoryCode.CAT4

    def test_out_of_range_number_skipped(self):
        assert parse_category("FINAL: CAT13") is CategoryCode.UNPARSED
        assert parse_category("FINAL: CAT13\nFINAL: CAT4") is CategoryCode.CAT4


class TestParseFallbacks:
    def test_last_standalone_token(self):
        assert parse_category("could be CAT3 or maybe CAT11.") is CategoryCode.CAT11

    def test_token_case_insensitive(self):
        assert parse_category("leaning cat9 here") is CategoryCode.CAT9

    def test_token_needs_word_boundary(self):
        assert parse_category("CONCATENATE12 things") is CategoryCode.UNPARSED
        assert parse_category("CAT5x") is CategoryCode.UNPARSED

    def test_category_name_match(self, taxonomy):
        assert (
            parse_category("This is clearly Data Exfiltration or Leakage.", taxonomy)
            is CategoryCode.CAT4
        )

    def test_name_case_and_whitespace_insensitive(self, taxonomy):
        assert (
            parse_category("looks like social\n   engineering to me", taxonomy)
            is CategoryCode.CAT7
        )

    def test_last_name_occurrence_wins(self, taxonomy):
        text = "Not Account Compromise after all; settled on Malware."
        assert parse_category(text, taxonomy) is CategoryCode.CAT2

    def test_name_not_matched_inside_word(self, taxonomy):
        assert parse_category("Malwarebytes flagged it", taxonomy) is (
            CategoryCode.UNPARSED
        )

    def test_unparsed_cases(self):
        for text in ("", "no category here", "CATASTROPHE", "cat food"):
            assert parse_category(text) is CategoryCode.UNPARSED

    def test_equal_end_longer_name_wins(self):
        names = [f"name {k}" for k in range(1, 13)]
        names[1], names[7] = "Leak", "Data Leak"
        assert parse_category("a data leak", renamed(names)) is CategoryCode.CAT8
        names[1], names[7] = "Data Leak", "Leak"
        assert parse_category("a data leak", renamed(names)) is CategoryCode.CAT2


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=400))
def test_parse_total_over_arbitrary_text(text):
    # Never raises, always lands in the enum.
    assert parse_category(text) in set(CategoryCode)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(CODES),
    st.text(alphabet=st.characters(blacklist_characters="\x00"), max_size=80),
)
def test_parse_contract_survives_noise_suffix(code, noise):
    # The appended line is the last contract match, so it must win.
    text = f"{noise}\nFINAL: {code.value}"
    assert parse_category(text) is code


# Words for generated override names: prefixes of one another ("Malware" /
# "Malware Attack"), repeats ("a a" inside "a a a", where finditer's
# non-overlapping scan decides), and tokens that begin or end with
# punctuation, so the lookarounds meet non-word edges.
_NAME_WORDS = ["a", "b", "Malware", "Attack", "(DoS/DDoS)", ".Ünï"]
_WHITESPACE = [" ", "  ", "\n", "\t ", " \n\t "]
_NOISE = [
    "CAT3", "cat11", "cat 5", "CAT13", "CAT0", "concat7", "FINAL: CAT4",
    "final : [cat 12]", "FINAL: CAT99", "Malwarebytes", "aa", "...", "(", ")",
]
_CASES = [str, str.lower, str.upper, str.swapcase, str.title]


def _normalized(name: str) -> str:
    return " ".join(name.split()).casefold()


@st.composite
def _taxonomy_and_reply(draw):
    names = draw(
        st.lists(
            st.lists(st.sampled_from(_NAME_WORDS), min_size=1, max_size=2).map(
                " ".join
            ),
            min_size=12,
            max_size=12,
            unique_by=_normalized,
        )
    )
    mention = st.builds(
        lambda name, case, ws: case(ws.join(name.split())),
        st.sampled_from(names),
        st.sampled_from(_CASES),
        st.sampled_from(_WHITESPACE),
    )
    repeat = st.builds(
        lambda word, k, ws: ws.join([word] * k),
        st.sampled_from(_NAME_WORDS),
        st.integers(2, 4),
        st.sampled_from(_WHITESPACE),
    )
    fragment = st.one_of(mention, mention, repeat, st.sampled_from(_NOISE))
    separator = st.sampled_from(["", *_WHITESPACE, ", "])
    parts = draw(st.lists(st.tuples(fragment, separator), max_size=8))
    return names, "".join(f + sep for f, sep in parts)


_FILLER_NAMES = [f"filler {k}" for k in range(3, 13)]


@settings(max_examples=200, deadline=None)
@given(_taxonomy_and_reply())
# Non-overlapping scan: "a a" matches "a a a" once, ending before "a" does.
@example((["a a", "a", *_FILLER_NAMES], "so: a A\na"))
@example((["Malware", "Malware Attack", *_FILLER_NAMES], "malware  attack."))
def test_parse_equals_oracle_on_override_names(case):
    names, reply = case
    assert parse_category(reply, renamed(names)).value == (
        oracle_parse_category(reply, names)
    )


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=300))
def test_parse_equals_oracle_on_arbitrary_text(text):
    names = [c.name for c in builtin_taxonomy().categories]
    assert parse_category(text).value == oracle_parse_category(text, names)
