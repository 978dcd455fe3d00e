import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from triagebench import util
from triagebench.backend import ModelGroup, Role
from triagebench.taxonomy import CategoryCode
from triagebench.techniques import TechniqueId
from triagebench.util import canonical_dumps, enum_decoder, write_whole

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



_json = st.recursive(
    _scalar,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=12,
)


@given(value=_json)
def test_canonical_dumps_is_json_dumps_sorted_compact_unescaped(value):
    assert canonical_dumps(value) == json.dumps(
        value, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    )


@pytest.mark.parametrize("container", [dict, list])
def test_canonical_dumps_of_a_cycle_raises(container):
    cycle = container()
    if container is dict:
        cycle["self"] = cycle
    else:
        cycle.append(cycle)
    with pytest.raises(RecursionError):
        canonical_dumps(cycle)


def test_write_whole_leaves_no_file_when_the_write_fails(tmp_path):
    with pytest.raises(UnicodeEncodeError):
        write_whole(tmp_path / "out.json", "lone \ud800 surrogate", 0o600)
    assert list(tmp_path.iterdir()) == []
    target = tmp_path / "missing" / "out.json"
    with pytest.raises(FileNotFoundError) as raised:
        write_whole(target, "text", 0o600)
    assert raised.value.filename == str(target)


def test_write_whole_failed_move_keeps_the_old_file(tmp_path, monkeypatch):
    target = tmp_path / "out.txt"
    target.write_text("old\n", encoding="utf-8")

    def refuse(src, dst):
        raise PermissionError(13, "Permission denied", str(src), None, str(dst))

    monkeypatch.setattr(util.os, "replace", refuse)
    with pytest.raises(PermissionError) as raised:
        write_whole(target, "new\n", 0o666)
    assert (raised.value.filename, raised.value.filename2) == (str(target), None)
    assert target.read_text(encoding="utf-8") == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
