"""The streamed record reader against ``json.loads``.

``conftest.record_decode_reference`` reads a record the way the CLI and
``read_record`` used to: the whole text, then ``json.loads``.  The
reader must give the same value, or the same refusal word for word,
however the record is laid out, and with reads cut down to a few bytes,
so that every token straddles a read.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rectatg
from rectatg import (
    MalformedRecordError,
    generate_theorem,
    generate_theorem_with_partition,
    load_record,
    parse_generation_set,
    save_record,
)
from rectatg import _record_scan, export
from rectatg.cli import main

from conftest import record_decode_reference

_THEOREMS = [
    generate_theorem_with_partition(parse_generation_set(text), hypothesis)
    for text, hypothesis in (
        ("p, q", (0,)),
        ("p, ~Q(X, f(a)), r", (0, 2)),
        ("a1, b_2, ~c3", (1, 5, 6)),
        ("p, q", (0, 1, 2, 3)),  # no premises
        ("P(a), R(g(b, h(c)))", (3,)),
    )
]


@contextlib.contextmanager
def _reads_of(size: int):
    saved = _record_scan._CHUNK
    _record_scan._CHUNK = size
    try:
        yield
    finally:
        _record_scan._CHUNK = saved


def _scanned(data: bytes, from_file: bool = True):
    """The reader's result in the reference's terms: a file's premises
    array is read back through ``stored_texts``."""
    try:
        if from_file:
            value = _record_scan.scan(io.BytesIO(data))
        else:
            value = _record_scan.read_text(data.decode("utf-8", "surrogatepass"))
    except (MalformedRecordError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    stored = value.get("premises") if isinstance(value, dict) else None
    if isinstance(stored, _record_scan.Stored):
        count, texts = _record_scan.stored_texts(stored)
        value["premises"] = (
            [text.decode("utf-8", "surrogatepass") for text in texts]
            if stored.strings else ("not all strings", stored.count)
        )
        assert not stored.strings or count == len(value["premises"])
    return "ok", repr(value)


def _expected(data: bytes, from_file: bool = True):
    kind, value = record_decode_reference(data, from_file)
    if kind != "ok":
        return kind, value
    premises = value.get("premises") if isinstance(value, dict) else None
    if from_file and isinstance(premises, list) and not all(type(s) is str for s in premises):
        value["premises"] = ("not all strings", len(premises))
    # repr, so that NaN equals NaN.
    return "ok", repr(value)


def _dump(pairs, indent, ensure_ascii: bool) -> str:
    """An object of the given key and value pairs, keys repeated as given."""
    if indent is None:
        return "{" + ", ".join(
            f"{json.dumps(k)}: {json.dumps(v, ensure_ascii=ensure_ascii)}" for k, v in pairs
        ) + "}"
    pad = "\n" + (" " * indent if isinstance(indent, int) else indent)
    body = ("," + pad).join(
        f"{json.dumps(k, ensure_ascii=ensure_ascii)}: "
        + json.dumps(v, indent=indent, ensure_ascii=ensure_ascii).replace("\n", pad)
        for k, v in pairs
    )
    return "{" + pad + body + "\n}\n"


@st.composite
def _records(draw) -> bytes:
    """A record, laid out any way: reindented, keys reordered, strings
    escaped, unknown and repeated keys."""
    data = json.loads(save_record(draw(st.sampled_from(_THEOREMS))))
    pairs = list(data.items())
    if draw(st.booleans()):
        pairs = draw(st.permutations(pairs))
    if draw(st.booleans()):
        note = draw(st.text(st.characters(blacklist_categories=("Cs",)), max_size=6))
        pairs.insert(draw(st.integers(0, len(pairs))), ("note", note + "/𝔭"))
    if draw(st.booleans()):
        # A second premises array, before or after the first: the last wins.
        other = draw(st.sampled_from([data["premises"][::-1], data["premises"][1:], [], ["x", 1]]))
        pairs.insert(draw(st.integers(0, len(pairs))), ("premises", other))
    text = _dump(pairs, draw(st.sampled_from([None, 0, 2, "\t"])), draw(st.booleans()))
    # Characters found only inside strings, spelled as escapes.
    for char in draw(st.sets(st.sampled_from("pq/¬∨𝔭"))):
        if char == "/":
            text = text.replace("/", "\\/")
        elif char == "𝔭":
            text = text.replace(char, "\\ud835\\udd2d")
        else:
            text = text.replace(char, f"\\u{ord(char):04x}")
    return text.encode("utf-8")


@st.composite
def _broken(draw) -> bytes:
    """A record spoilt in one of the ways json refuses."""
    data = draw(_records())
    how = draw(st.sampled_from(
        ("truncated", "garbage", "comma", "control", "utf-8", "bom", "splice")))
    at = draw(st.integers(0, len(data)))
    if how == "truncated":
        return data[:at]
    if how == "garbage":
        return data + draw(st.sampled_from([b" x", b"{}", b"]", b"1", b'"', b"\x00", b",", b"nul"]))
    if how == "comma":
        closes = [i for i, byte in enumerate(data) if byte in b"]}"]
        i = draw(st.sampled_from(closes))
        return data[:i] + draw(st.sampled_from([b",", b", ", b",\n  "])) + data[i:]
    if how == "control":
        quotes = [i for i, byte in enumerate(data) if byte == 0x22]
        i = draw(st.sampled_from(quotes)) + 1
        return data[:i] + bytes([draw(st.integers(0, 0x1F))]) + data[i:]
    if how == "utf-8":
        bad = draw(st.sampled_from([b"\xff", b"\xc2", b"\xe2\x88", b"\xed\xa0\x80", b"\x80"]))
        return data[:at] + bad + data[at:]
    if how == "bom":
        return b"\xef\xbb\xbf" + data
    end = draw(st.integers(at, len(data)))
    return data[:at] + draw(st.binary(max_size=4)) + data[end:]


_EXAMPLE = save_record(_THEOREMS[1]).encode()


@settings(max_examples=400, deadline=None)
@given(_records() | _broken(), st.sampled_from([1, 2, 3, 4, 5, 6, 7, 1 << 16]))
@example(_EXAMPLE, 1)
@example(_EXAMPLE.replace(b'",\n    "', b'", \n    "', 1), 7)  # one gap unlike the rest
@example(_EXAMPLE.replace(b'",\n    "', b'"x,\n    "', 1), 1 << 16)  # junk in one gap
@example(_EXAMPLE.replace(b"\n", b"\r\n"), 3)
@example(_EXAMPLE.replace(b"\n", b"\r").replace(b'"p', b'"\x01p', 1), 3)
@example(_EXAMPLE.replace(b"\n", b"\r\n")[:-40], 5)
@example(b"\xef\xbb\xbf" + _EXAMPLE, 2)
@example(b'{"premises": ["a\\', 4)
@example(b'{"premises": ["a\\u00', 4)
@example(b'{"premises": ["a\\u0041', 4)
@example(b'{"premises": ["\\ud835\\udd2d", "\\/", "\\x"]}', 1)
@example(b'{"a": [1.5e3, -0, 1E+2, 2e, NaN, -Infinity, Infinity, 01]}', 2)
@example(b'{"a": [-, 1.]}', 2)
@example(b'{"a": "\xe2\x88\xa8\xe2', 2)
@example(b'  \n', 1 << 16)
# Control characters in strings read after the gap is known.
@example(_EXAMPLE.replace(b'",\n    "', b'",\n    "\x1f', 3), 1 << 16)
@example(b'{"premises": ["a\\"b", "c\\\\"], "x": "\\"\\\\"}', 3)
# A string whose text is the inside of the gap after it.
@example(b'{"premises": ["x", ", "JUNK"z", "w"]}', 1 << 16)
@example(b'{"premises": ["x", ", ", ", "w"]}', 1 << 16)
def test_the_reader_agrees_with_json_loads(data, size):
    with _reads_of(size):
        assert _scanned(data) == _expected(data)
        try:
            data.decode("utf-8")
        except UnicodeDecodeError:
            return
        assert _scanned(data, from_file=False) == _expected(data, from_file=False)


@pytest.mark.parametrize("size", (7, 1 << 16))
def test_deep_nesting_is_refused_as_json_refuses_it(size):
    deep = b"[" * 200_000 + b"]" * 200_000
    data = _EXAMPLE.replace(b'"generators": [', b'"generators": ' + deep + b", [")
    with _reads_of(size):
        assert _scanned(data) == _expected(data) == (
            "MalformedRecordError", "record nests too deeply to decode")


@pytest.mark.parametrize("shallow", (None, 8))
@pytest.mark.parametrize("depth", (50, 1500, 2000, 20_000))
def test_nesting_is_refused_where_json_refuses_it(monkeypatch, shallow, depth):
    # From 3.12 on, json nests to the C recursion limit, not the
    # interpreter's; ``shallow`` asks json for its limit on any version.
    if shallow:
        monkeypatch.setattr(_record_scan, "_SHALLOW", shallow)
    deep = b"[" * depth + b"]" * depth
    data = _EXAMPLE.replace(b"{", b'{"note": ' + deep + b", ", 1)
    limit = sys.getrecursionlimit()
    with _reads_of(7):
        assert _scanned(data)[0] == _expected(data)[0]
        assert _scanned(data) == _expected(data)
    assert sys.getrecursionlimit() == limit


def test_an_integer_too_long_is_refused_before_a_later_error():
    data = b'{"removed_indices": [' + b"7" * 4301 + b"], x"
    assert _scanned(data) == _expected(data) == (
        "MalformedRecordError", "record holds a number too long to decode")


def test_invalid_utf8_after_a_json_error_is_reported_first():
    data = b'{"a": nope, "b": "\xff"}'
    assert _scanned(data) == _expected(data)
    assert _scanned(data)[0] == "ValueError"


def test_a_file_cut_after_the_first_pass_holds_fewer_texts():
    source = io.BytesIO(b'{"premises": ["a\\u0041", "b"]}')
    stored = _record_scan.scan(source)["premises"]
    source.truncate(20)  # inside the escape
    count, texts = _record_scan.stored_texts(stored)
    assert (count, list(texts)) == (2, [])


def _n_record(tmp_path, n: int, hypothesis=(0,)) -> Path:
    g = parse_generation_set(", ".join(f"p{i}" for i in range(n)))
    path = tmp_path / f"n{n}.json"
    with open(path, "wb") as out:
        out.writelines(export._record_lines(generate_theorem_with_partition(g, hypothesis)))
    return path


def test_the_first_pass_holds_one_read(tmp_path):
    # The n=14 record is 1.5 MB; json.loads would hold all of it and
    # 16381 strings.  A read is checked as UTF-8 by decoding it, which
    # makes a string of twice its size.
    path = _n_record(tmp_path, 14)
    with open(path, "rb", buffering=0) as source:
        tracemalloc.start()
        try:
            record = export._read_record_file(source)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 384 * 1024, peak
    assert record["premises"].count == (1 << 14) - 1 and record["premises"].strings


def test_the_second_pass_reads_the_file_a_read_at_a_time(tmp_path):
    path = _n_record(tmp_path, 14, (0, 127, 128))
    theorem = generate_theorem_with_partition(
        parse_generation_set(", ".join(f"p{i}" for i in range(14))), (0, 127, 128))
    with open(path, "rb", buffering=0) as source:
        record = export._read_record_file(source)
        tracemalloc.start()
        try:
            assert export._texts_match(record["premises"], theorem.premises)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 512 * 1024, peak


def test_a_record_file_and_its_text_load_alike(tmp_path):
    for theorem in _THEOREMS:
        text = save_record(theorem)
        path = tmp_path / "record.json"
        path.write_text(text, encoding="utf-8")
        with open(path, "rb", buffering=0) as source:
            record = export._read_record_file(source)
            assert export.rebuild_record(record) == load_record(text) == theorem


def _child_env() -> dict[str, str]:
    package_root = str(Path(rectatg.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=package_root + (os.pathsep + path if path else ""))


_PROBE = (
    "import sys\n"
    "from rectatg.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print('json' in sys.modules)\n"
    "sys.exit(code)\n"
)


@pytest.mark.parametrize("escaped", (False, True))
def test_check_record_imports_json_only_for_an_escaped_string(tmp_path, escaped):
    text = save_record(generate_theorem(parse_generation_set("p, q, r")))
    if escaped:
        # Every name and premise holding p spells it as an escape.
        text = text.replace("p", "\\u0070")
    path = tmp_path / "record.json"
    path.write_text(text, encoding="utf-8")
    argv = [sys.executable, "-S", "-c", _PROBE, "check", "--record", str(path)]
    done = subprocess.run(argv, capture_output=True, text=True, env=_child_env(), timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines() == [
        "full: UNSAT; removals: 8/8 SAT", "theorem: verified", str(escaped)]


def test_check_record_reads_a_pipe(tmp_path):
    path = tmp_path / "record.json"
    path.write_text(save_record(generate_theorem(parse_generation_set("p, q"))), encoding="utf-8")
    # Through a pipe, which cannot seek back for the second pass.
    done = subprocess.run(
        [sys.executable, "-m", "rectatg", "check", "--record", "/dev/stdin"],
        input=path.read_bytes(), capture_output=True, env=_child_env(), timeout=60)
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == b"full: UNSAT; removals: 4/4 SAT\ntheorem: verified\n"


def test_a_refusal_reports_the_position_json_reports(capsys, tmp_path):
    path = tmp_path / "bad.json"
    data = b'{\r\n  "version": 1,\r\n  "generators": [}\r\n'
    path.write_bytes(data)
    assert main(["check", "--record", str(path)]) == 2
    # "\r\n" is one character, as the file read as text has it.
    message = "record is not valid JSON: Expecting value: line 3 column 18 (char 35)"
    assert capsys.readouterr().err == f"error: {message}\n"
    assert record_decode_reference(data) == ("MalformedRecordError", message)
