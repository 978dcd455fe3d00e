import pytest
from hypothesis import given
from hypothesis import strategies as st

from triagebench.backend import ModelGroup, Role
from triagebench.taxonomy import CategoryCode
from triagebench.techniques import TechniqueId
from triagebench.util import enum_decoder

ENUMS = (Role, CategoryCode, ModelGroup, TechniqueId)

_scalar = st.none() | st.booleans() | st.integers() | st.floats() | st.text()


def _json_for(cls) -> st.SearchStrategy:
    """JSON scalars and lists, with cls's values and names and spellings
    close to them drawn as often as arbitrary JSON."""
    near = st.sampled_from(
        [
            v
            for m in cls
            for v in (m.value, m.name, m.value.lower(), f" {m.value}", f"{m.value}\n")
        ]
    )
    return st.one_of(near, _scalar, st.lists(near | _scalar, max_size=3))


def _outcome(decode, value):
    try:
        return decode(value)
    except Exception as exc:  # compared by type and text below
        return type(exc), str(exc)


@pytest.mark.parametrize("cls", ENUMS, ids=lambda cls: cls.__name__)
@given(data=st.data())
def test_enum_decoder_agrees_with_the_enum_call(cls, data):
    value = data.draw(_json_for(cls))
    decoded = _outcome(enum_decoder(cls), value)
    expected = _outcome(cls, value)
    if isinstance(expected, cls):
        assert decoded is expected
    else:
        assert decoded == expected

