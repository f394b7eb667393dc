"""The canonical writer: ``serialize.dumps`` is exactly
``json.dumps(obj, indent=2) + "\\n"`` on every value fdsi writes, and every
file and stdout of the command line is in that layout.  The reader:
``serialize._read_json`` gives what ``json.loads`` gives, value or error."""

import enum
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdsi.cli import main
from fdsi.generators import CANNED
from fdsi.model import ValidationError
from fdsi.serialize import _loads, _read_json, _unique_keys, dumps


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 7


class _Name(str):
    pass


def _reference(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _canonical(text: str) -> str:
    return _reference(json.loads(text))


_ints = st.integers() | st.integers(-(10**40), 10**40)
# the default alphabet mixes ASCII, control characters, non-ASCII letters
# and astral code points; lone surrogates are written as escapes too
_text = st.text() | st.text(st.characters(min_codepoint=0, max_codepoint=0xDFFF))
_scalars = st.none() | st.booleans() | _ints | _text
_leaves = (
    _scalars
    | st.lists(_ints)
    | st.lists(_text)
    | st.lists(st.booleans())
    | st.lists(_ints).map(tuple)
)
_values = st.recursive(
    _leaves,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(_text, inner, max_size=5),
    max_leaves=30,
)


class TestDumps:
    @settings(max_examples=150, deadline=None)
    @given(_values)
    def test_same_text_as_json_indent_2(self, obj):
        assert dumps(obj) == _reference(obj)

    @pytest.mark.parametrize(
        "obj",
        [
            {},
            [],
            (),
            {"a": [], "b": {}, "c": ()},
            [[], [[]], {}],
            (1, (2, "x"), [True, None]),
            {"é\x00 \"\\": ["\ud800", "\U0001f600", "\x7f"]},
            [10**100, -(10**100), 0, -1],
            [True, False, True],
            [None, None],
            "plain",
            -7,
            None,
            False,
            # the model accepts int subclasses as values; json writes them,
            # and str subclasses, as their base type
            [_Level.LOW, _Level.HIGH],
            {_Name("k"): [_Name("v"), _Level.HIGH]},
        ],
    )
    def test_fixed_values(self, obj):
        assert dumps(obj) == _reference(obj)

    @pytest.mark.parametrize(
        "obj", [1.5, [1, 2.0], {1: 2}, {"a": {1, 2}}, {"a": object()}, b"x"]
    )
    def test_other_types_raise(self, obj):
        # the file formats are integers, strings, bools and null only
        with pytest.raises(TypeError):
            dumps(obj)


class TestCommandOutput:
    @pytest.mark.parametrize("name", CANNED)
    def test_canned_example_files(self, tmp_path, name):
        inst, alloc = tmp_path / "i.json", tmp_path / "a.json"
        assert main(["gen", "example", name, "-o", str(inst), "--allocation-out", str(alloc)]) == 0
        for path in (inst, alloc):
            text = path.read_text(encoding="utf-8")
            assert text == _canonical(text)

    def test_random_file(self, tmp_path):
        inst = tmp_path / "g.json"
        argv = ["gen", "random", "--agents", "8", "--items", "600", "--v-max", "1",
                "--s-max", "1", "--seed", "1", "-o", str(inst)]
        assert main(argv) == 0
        text = inst.read_text(encoding="utf-8")
        assert text == _canonical(text)
        assert len(json.loads(text)["items"]) == 600

    def test_stdout(self, tmp_path, capsys):
        inst, alloc = tmp_path / "i.json", tmp_path / "a.json"
        main(["gen", "example", "wsa-nonexistence", "-o", str(inst),
              "--allocation-out", str(alloc)])
        bill_joe = tmp_path / "bj.json"
        main(["gen", "example", "bill-joe", "-o", str(bill_joe)])
        capsys.readouterr()
        calls = [
            (["check", str(inst), str(alloc), "sa-ef1"], 0),
            # a witness names the observer, the target and the condition
            (["check", str(inst), str(alloc), "wsa-ef1"], 1),
            (["brute", str(inst), "ef1", "--count"], 0),
            # joe ends with an empty bundle
            (["solve", str(bill_joe), "sa-efl"], 0),
        ]
        outputs = []
        for argv, code in calls:
            assert main(argv) == code
            out = capsys.readouterr().out
            assert out == _canonical(out)
            outputs.append(json.loads(out))
        assert outputs[1]["witness"] is not None
        assert isinstance(outputs[2]["count"], int)
        assert outputs[3]["bundles"]["joe"] == []


# text, then an id; every kind of text the reader must treat as json does
_CORPUS = [
    ('{"agents": [{"id": "a1", "weight": 2}], "items": ["g1"]}', "object"),
    ('[1, -2, 3.5e-1, "x", true, false, null, [], {}]', "array"),
    ('"plain"', "string"),
    ("\ufeff{}", "bom"),
    ("\ufeff", "bom-only"),
    ("{} {}", "second-object"),
    ("{}x", "trailing-junk"),
    ("", "empty"),
    (" \t\n\r ", "whitespace-only"),
    (" \n{}\t\r\n ", "surrounding-whitespace"),
    ("NaN", "nan"),
    ("[Infinity, -Infinity, NaN]", "infinities"),
    ('{"a": 1, "a": 2}', "duplicate-key"),
    ('{"a": {"b": [{"c": 1, "c": 1}]}}', "nested-duplicate-key"),
    ('"\x01"', "raw-control-character"),
    ('"\\u0001\\t"', "escaped-control-character"),
    ('"\\ud800"', "escaped-lone-surrogate"),
    ('"\ud800"', "raw-lone-surrogate"),
    ("9" * 5000, "long-integer"),
    ("[" * 100_000, "deep-nesting"),
    ("tru", "truncated-true"),
    ("nul", "truncated-null"),
    ("-Infin", "truncated-infinity"),
    ('{"a" 1}', "missing-colon"),
    ("[1 2]", "missing-comma"),
    ('{"a": [1, 2', "truncated-array"),
]


def _outcome(read, arg):
    """What ``read(arg)`` gives: its value's repr (NaN is not equal to
    itself), or its exception's type name and message."""
    try:
        return ("value", repr(read(arg)))
    except (ValueError, RecursionError) as exc:
        return (type(exc).__name__, str(exc))


def _json_loads(text):
    return json.loads(text, object_pairs_hook=_unique_keys)


def _json_reader(path):
    """The reader as it was with the json package."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return _json_loads(fh.read())
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"malformed JSON in {path}: {exc}") from exc


class TestReader:
    @pytest.mark.parametrize("unloaded", [False, True], ids=["json-loaded", "json-unloaded"])
    @pytest.mark.parametrize("text", [t for t, _ in _CORPUS], ids=[i for _, i in _CORPUS])
    def test_same_outcome_as_json(self, tmp_path, monkeypatch, text, unloaded):
        path = tmp_path / "in.json"
        # a raw lone surrogate becomes bytes that are not UTF-8
        path.write_bytes(text.encode("utf-8", "surrogatepass"))
        expected = _outcome(_json_reader, path), _outcome(_json_loads, text)
        if unloaded:
            # as in a fresh call: a malformed text is the first to need json
            for name in [m for m in sys.modules if m == "json" or m.startswith("json.")]:
                monkeypatch.delitem(sys.modules, name)
        assert (_outcome(_read_json, path), _outcome(_loads, text)) == expected

    @settings(max_examples=200, deadline=None)
    @given(
        st.recursive(
            st.none() | st.booleans() | st.floats() | _ints | _text,
            lambda inner: st.lists(inner, max_size=5) | st.dictionaries(_text, inner, max_size=5),
            max_leaves=30,
        ),
        st.text(" \t\n\r"),
        st.text(" \t\n\r"),
        st.sampled_from([None, 0, 2]),
        st.booleans(),
        st.data(),
    )
    def test_same_outcome_as_json_on_dumped_values(
        self, obj, before, after, indent, ascii_only, data
    ):
        text = before + json.dumps(obj, indent=indent, ensure_ascii=ascii_only) + after
        # and on a random cut of it, which is malformed unless the cut
        # drops only whitespace
        cut = text[: data.draw(st.integers(0, len(text)), label="cut")]
        for t in (text, cut):
            assert _outcome(_loads, t) == _outcome(_json_loads, t)
