"""The canonical writer: ``serialize.dumps`` is exactly
``json.dumps(obj, indent=2) + "\\n"`` on every value fdsi writes, and every
file and stdout of the command line is in that layout."""

import enum
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdsi.cli import CANNED_NAMES, main
from fdsi.serialize import dumps


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
    @pytest.mark.parametrize("name", CANNED_NAMES)
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
