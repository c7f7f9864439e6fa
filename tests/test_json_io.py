"""The CLI's own JSON writer and reader and its negative-number test,
checked against the standard library code they replace."""

import json
import math
import random
import re

import pytest

from hyperlat import cli
from hyperlat.errors import InputError
from hyperlat.plot import format_float


def _round_floats(node, digits: int):
    """The report rounding the CLI did before `_json_text` rounded as it writes."""
    if isinstance(node, float):
        return float(format_float(node, digits))
    if isinstance(node, list):
        return [_round_floats(x, digits) for x in node]
    if isinstance(node, dict):
        return {k: _round_floats(v, digits) for k, v in node.items()}
    return node


STRINGS = ("", "plain", "kind", "é", "ünïcödé", "日本", "\U0001d49c", "\ud800",
           "tab\there", "nl\nx", "\x00\x1f\x7f", 'quote"back\\slash', "/", " ")
SCALARS = (None, True, False, 0, -1, 7, 2**70, -3**50, 0.0, -0.0, 1.5, -2.25, 1e-300,
           1e300, 5e-324, 0.1, 1 / 3, -math.pi, 123456789.123456789, 1e16, 1e22,
           math.nan, math.inf, -math.inf)
KEYS = STRINGS + ("config", "result")


def _scalar(rng):
    pick = rng.random()
    if pick < 0.3:
        return rng.choice(STRINGS)
    if pick < 0.6:
        return rng.choice(SCALARS)
    if pick < 0.8:
        return rng.uniform(-1e6, 1e6) * 10.0 ** rng.randint(-20, 20)
    return rng.randint(-10**25, 10**25)


def _report(rng, depth=0):
    """A random nested report: dicts, lists and tuples of scalars."""
    if depth >= 4 or rng.random() < 0.25:
        return _scalar(rng)
    size = rng.choice((0, 1, 2, 3, 5))
    kind = rng.choice(("dict", "dict", "list", "tuple"))
    if kind == "dict":
        return {rng.choice(KEYS): _report(rng, depth + 1) for _ in range(size)}
    items = [_report(rng, depth + 1) for _ in range(size)]
    return items if kind == "list" else tuple(items)


REPORTS = [_report(random.Random(seed)) for seed in range(400)]
REPORTS += [{}, [], (), {"a": {}, "b": [], "c": ()}, [[[]]], ({"x": (1.25, [0.1])},),
            {"result": {"floats": [1 / 7, -0.0, math.nan, math.inf, -math.inf]}}]
# lists and tuples of ints alone, and ints beside bools, floats and None
REPORTS += [[0], (7,), [1, -2, 3], (2 ** 70, -2 ** 70, 0), [True, 1, False, 0], (1, True),
            [False], [1, 2.5, None], {"rays": [[1, -1, 0], (0, 2 ** 70), [], ()]},
            [[[1, 2], [3]], ((-4,), [5, True])]]


@pytest.mark.parametrize("digits", [0, 12])
def test_writer_matches_dumps_of_the_rounded_report(digits):
    for report in REPORTS:
        want = json.dumps(_round_floats(report, digits), indent=2)
        assert cli._json_text(report, digits) == want, report


def test_writer_without_digits_matches_dumps():
    for report in REPORTS:
        assert cli._json_text(report) == json.dumps(report, indent=2), report


@pytest.mark.parametrize("node", [{1, 2}, {(1, 2): 3}, [object()], {"a": {1: 2}}])
def test_writer_refuses_what_no_report_holds(node):
    # reports key their dicts by strings; dumps would write an int key
    with pytest.raises(TypeError):
        cli._json_text(node)


def _files(tmp_path, texts):
    for i, text in enumerate(texts):
        path = tmp_path / f"f{i}.json"
        path.write_text(text, encoding="utf-8")
        yield str(path), text


def _utf8_json(node, **options):
    """`json.dumps(node)` in raw UTF-8 where it can be written so, escaped otherwise."""
    text = json.dumps(node, ensure_ascii=False, **options)
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate
        text = json.dumps(node, **options)
    return text


@pytest.mark.parametrize("indent, separators", [
    (None, None), (2, None), (0, (",", ":")), ("\t", (" ,", " :  "))])
def test_reader_matches_loads_on_valid_files(tmp_path, indent, separators, monkeypatch):
    texts = [_utf8_json({"report": report}, indent=indent, separators=separators) + tail
             for report, tail in zip(REPORTS, ["", "\n", " \r\n\t", "\n\n"] * 150)]
    texts += ['  {"gram": [[0, 1], [1, 0]]}  ', '{"a": -Infinity, "b": NaN, "c": 1E400}',
              '{"big": 1234567890123456789012345678901234567890, "e": 1e-7, "d": -0}']
    files = [(path, repr(json.loads(text))) for path, text in _files(tmp_path, texts)]

    def refuse(text):
        raise AssertionError("a valid file took the malformed-input path")

    monkeypatch.setattr(json, "loads", refuse)
    for path, want in files:
        assert repr(cli.load_json(path)) == want


MALFORMED = {
    "truncated": '{"gram": [[0, 1], [1,',
    "trailing data": '{"gram": [[1]]} {"x": 1}',
    "trailing comma": '{"gram": [[1]],}',
    "BOM": "\ufeff{\"gram\": [[1]]}",
    "empty": "",
    "whitespace only": " \n\t ",
    "bad escape": '{"name": "a\\qb"}',
    "control character": '{"name": "a\tb"}',
    "single quotes": "{'gram': 1}",
    "bare word": '{"gram": nul}',
}


@pytest.mark.parametrize("name", MALFORMED)
def test_reader_names_the_fault_as_loads_does(tmp_path, name):
    text = MALFORMED[name]
    (path, _), = _files(tmp_path, [text])
    with pytest.raises(json.JSONDecodeError) as fault:
        json.loads(text)
    exc = fault.value
    with pytest.raises(InputError) as refused:
        cli.load_json(path)
    assert str(refused.value) == (f"malformed JSON in {path}: {exc.msg} at line "
                                  f"{exc.lineno} column {exc.colno}")


def test_reader_refuses_a_top_level_that_is_not_an_object(tmp_path):
    (path, _), = _files(tmp_path, ["[1, 2]"])
    with pytest.raises(InputError, match="top level must be a JSON object"):
        cli.load_json(path)


def _text_mode_load_json(path):
    """Oracle: `cli.load_json` as it read the file in text mode."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    body = text.strip(" \t\n\r")
    try:
        data, end = cli._scan(body, 0)
    except (ValueError, StopIteration):
        end = None
    if end != len(body):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(
                f"malformed JSON in {path}: {exc.msg} at line {exc.lineno} "
                f"column {exc.colno}") from None
    if not isinstance(data, dict):
        raise InputError(f"{path}: top level must be a JSON object")
    return data


def _load_outcome(load, path):
    try:
        return repr(load(path))
    except InputError as exc:
        return f"input error: {exc}"


NEWLINE_TEXTS = [
    '{\n  "gram": [[0, 1],\n           [1, 0]]\n}\n',
    '\n\n{"a": [1,\n 2], "b": "x y"}\n\n',
    '{\n  "gram": [[0, 1],\n  [1,\n',  # truncated on its third line
    '{\n"a": 1,\n"b": 2,\n}\n',  # a trailing comma on the third line
    '{"a": 1}\n\n{"b": 2}\n',  # trailing data two lines down
    '{\n"name": "a\nb"\n}',  # a raw newline inside a string
    '\n\n\n',
    '[1,\n 2]\n',
    '{"a":\n nul}',
]


def test_reader_sees_newlines_and_bytes_as_a_text_mode_read(tmp_path):
    rng = random.Random(11)
    kinds = dict.fromkeys(("cannot read", "malformed JSON", "top level must", "{"), 0)
    files = []
    for i, text in enumerate(NEWLINE_TEXTS + [MALFORMED[name] for name in MALFORMED]):
        for j, newline in enumerate(("\n", "\r\n", "\r", None)):
            if newline is None:  # each newline its own style
                parts = text.split("\n")
                raw = parts[0] + "".join(rng.choice(("\n", "\r\n", "\r")) + p
                                         for p in parts[1:])
            else:
                raw = text.replace("\n", newline)
            data = raw.encode("utf-8")
            variants = [data, b"\xef\xbb\xbf" + data]
            at = rng.randint(0, len(data))
            variants += [data[:at] + bad + data[at:]
                         for bad in (b"\xff", b"\xe9", b"\xc3(", b"\xe2\x82")]
            variants.append(data + b"\xe2\x82")  # cut inside a character
            for k, content in enumerate(variants):
                path = tmp_path / f"t{i}-{j}-{k}.json"
                path.write_bytes(content)
                files.append(str(path))
    path = tmp_path / "utf16.json"
    path.write_bytes('{"a": 1}\r\n'.encode("utf-16"))
    files += [str(path), str(tmp_path / "missing.json"), str(tmp_path)]
    for path in files:
        want = _load_outcome(_text_mode_load_json, path)
        assert _load_outcome(cli.load_json, path) == want, path
        kinds[next(kind for kind in kinds if kind in want)] += 1
    assert min(kinds.values()) >= 4, kinds


def test_negative_number_matches_the_regex_it_replaces():
    tokens = ["-", "-.", "-.5", "-1,0", "--x", "-٣", "-.٣", "-²", "-x",
              "", "1", ".5", "-..5", "-0", "-.-1", "- 1"]
    alphabet = "-.0٣²x ,"
    rng = random.Random(5)
    tokens += ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, 4)))
               for _ in range(2000)]
    for token in tokens:
        assert cli._negative_number(token) == bool(re.match(r"^-\.?\d", token)), token
