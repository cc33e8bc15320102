"""The record reader: a JSON theorem record read from its bytes in two passes.

Only the record paths import this module.  A record is read through one
buffer, ``_CHUNK`` bytes a read, and never held whole.

The first pass (``scan``) reads the whole file.  It checks the JSON
grammar as ``json.loads`` does and decodes every value but a top-level
``premises`` array.  Of that array, the last one when the key repeats,
it keeps a ``Stored``: where the array starts, how many elements it
has and whether every one is a string.  The caller checks its caps and
rebuilds the theorem; the second pass (``stored_texts``) then reads the
stored texts back from the array, in order, as the comparison asks for
them.

A string with no backslash is its raw bytes, so a record as the writers
write it is read without ``json``.  Only a string with an escape is
handed to ``json``, one string at a time.

A file is read as ``open(path, encoding="utf-8").read()`` would read
it, and a refusal is worded as ``json.loads`` words it on that text:
- invalid UTF-8 anywhere comes first, then a leading byte order mark,
  then the first JSON error;
- the position of a JSON error counts characters, with ``\\r\\n`` read
  as one newline;
- nesting is refused where json's decoder refuses it: up to 3.11 that
  is where the interpreter's recursion limit is reached, and from 3.12
  on, where json finds its C recursion limit (``_json_depth``);
- an integer of more digits than the interpreter converts is "too long".

A ``str`` given to the library (``read_text``) is read as ``json.loads``
reads it: no UTF-8 check and no newline translation.
"""

from __future__ import annotations

import codecs
import io
import re
import sys
from typing import Iterator

from .errors import MalformedRecordError

# 64 KiB reads, the size of the CLI's writes.
_CHUNK = 1 << 16
_WS = re.compile(rb"[ \t\n\r]*")
# The bytes of a string up to its closing quote, an escape or a control
# character, which JSON does not allow in a string.
_PLAIN = re.compile(rb'[^"\\\x00-\x1f]*')
_DIGITS = re.compile(rb"[0-9]*")
# An integer that ends inside the buffer: most numbers in a record.
_INT = re.compile(rb"-?(?:0|[1-9][0-9]{0,15})(?=[ \t\n\r,\]}])")
_EXPONENT = re.compile(rb"[eE][-+]?(?=[0-9])")
_HEX4 = re.compile(rb"[0-9a-fA-F]{4}")
# Every byte but a quote, a backslash and the control characters.
_NOT_SPECIAL = bytes(b for b in range(0x20, 0x100) if b not in b'"\\')
_CONSTANTS = ((b"null", None), (b"true", True), (b"false", False), (b"NaN", float("nan")),
              (b"Infinity", float("inf")), (b"-Infinity", float("-inf")))
# The most bytes read ahead: "-Infinity", or an escape "\uXXXX" and the
# byte after it.
_AHEAD = 16
# From 3.13 on, json names a trailing comma.
_TRAILING = sys.version_info >= (3, 13)
# From 3.12 on, json's decoder nests up to the C recursion limit, which
# Python does not expose; past this many levels the reader asks json.
# Up to 3.11 it nests as far as the interpreter's recursion limit, as
# the reader does.
_SHALLOW = 64 if sys.version_info >= (3, 12) else sys.maxsize


class _Bad(Exception):
    """A JSON error: json's message and the byte offset it names."""

    def __init__(self, message: str, offset: int):
        super().__init__(message)
        self.message, self.offset = message, offset


class _TooLong(Exception):
    """An integer of more digits than ``int`` converts."""


class Stored:
    """A premises array in a record: the offset of its ``[``, its length
    and whether every element is a string."""

    __slots__ = ("reader", "offset", "count", "strings")

    def __init__(self, reader: "_Reader", offset: int, count: int, strings: bool):
        self.reader, self.offset, self.count, self.strings = reader, offset, count, strings


class _Reader:
    """A record's bytes through one buffer, from ``pos`` to ``end``; the
    buffer starts at byte ``base`` of the source."""

    def __init__(self, source, checked: bool):
        if not source.seekable():
            # A pipe is read into memory once: the second pass reads again.
            source = io.BytesIO(source.read())
        self.source, self.checked, self.chunk = source, checked, _CHUNK
        self.buf = bytearray(_CHUNK + _AHEAD)
        self.view = memoryview(self.buf)
        self.base = self.pos = self.end = 0
        self.eof = False
        self.comma = -1  # the offset of the last comma read
        self.utf8 = b""  # the end of the last read, until its character is whole
        self.limit = self.recursion = 0  # json's nesting limit, once asked

    @property
    def here(self) -> int:
        return self.base + self.pos

    def bad(self, message: str, offset: int | None = None):
        raise _Bad(message, self.here if offset is None else offset)

    def seek(self, offset: int) -> None:
        self.source.seek(offset)
        self.base, self.pos, self.end, self.eof = offset, 0, 0, False

    def fill(self) -> bool:
        """Read once more after the unread bytes, at most ``_AHEAD`` of
        them; False at the end of the source."""
        if self.eof:
            return False
        rest = self.end - self.pos
        self.view[:rest] = self.view[self.pos : self.end]
        self.base += self.pos
        read = self.source.readinto(self.view[rest : rest + self.chunk])
        self.pos, self.end, self.eof = 0, rest + read, not read
        if self.checked:
            # The decoder keeps a character cut by the read for the next
            # one; at the end of the file it must be whole.  This is no
            # call of its own, so a RecursionError cannot come between a
            # read and its check.
            data = self.view[rest : self.end]
            data = self.utf8 + data if self.utf8 else data
            try:
                self.utf8 = bytes(data[codecs.utf_8_decode(data, "strict", self.eof)[1] :])
            except UnicodeDecodeError as exc:
                at = self.base + self.end - len(data) + exc.start
                if exc.end - exc.start == 1:
                    what = f"byte 0x{data[exc.start]:02x} in position {at}"
                else:
                    what = f"bytes in position {at}-{at + exc.end - exc.start - 1}"
                raise ValueError(f"'utf-8' codec can't decode {what}: {exc.reason}") from None
        return bool(read)

    def ensure(self, count: int) -> None:
        """Read until ``count`` bytes are unread or the source ends."""
        while self.end - self.pos < count and self.fill():
            pass

    def skip(self) -> int:
        """Skip whitespace; the next byte, or -1 at the end."""
        while True:
            self.pos = _WS.match(self.buf, self.pos, self.end).end()
            if self.pos < self.end:
                return self.buf[self.pos]
            if not self.fill():
                return -1

    def run(self, pattern: re.Pattern) -> bytes:
        """The bytes ``pattern`` matches from ``pos``, across reads."""
        parts = []
        while True:
            stop = pattern.match(self.buf, self.pos, self.end).end()
            parts.append(self.buf[self.pos : stop])
            self.pos = stop
            if stop < self.end or not self.fill():
                return b"".join(parts)

    def string(self, keep: bool) -> tuple[bytes, bool]:
        """Read the string at ``pos``: its raw bytes between the quotes
        when ``keep``, and whether it holds an escape."""
        start = self.here
        self.pos += 1
        parts, escaped = [], False
        while True:
            stop = _PLAIN.match(self.buf, self.pos, self.end).end()
            if keep:
                parts.append(self.buf[self.pos : stop])
            self.pos = stop
            if stop == self.end:
                if not self.fill():
                    self.bad("Unterminated string starting at", start)
                continue
            if self.buf[stop] == 0x22:  # "
                self.pos += 1
                return b"".join(parts), escaped
            if self.buf[stop] != 0x5C:  # \
                self.bad("Invalid control character at")
            self.ensure(7)
            pos = self.pos
            if pos + 1 == self.end:
                self.bad("Unterminated string starting at", start)
            if self.buf[pos + 1] == 0x75:  # u
                # json wants four hex digits and a character after them.
                if self.end - pos < 7 or not _HEX4.match(self.buf, pos + 2, pos + 6):
                    self.bad("Invalid \\uXXXX escape", self.here + 1)
                size = 6
            elif self.buf[pos + 1] in b'"\\/bfnrt':
                size = 2
            else:
                self.bad("Invalid \\escape")
            if keep:
                parts.append(self.buf[pos : pos + size])
            self.pos, escaped = pos + size, True

    def text(self) -> str:
        """The string at ``pos``, decoded."""
        raw, escaped = self.string(True)
        return _unescaped(raw) if escaped else raw.decode("utf-8", "surrogatepass")

    def number(self) -> int | float:
        """The number at ``pos``, read as json reads it: a fraction or an
        exponent with no digits after it ends the number before it."""
        start = self.here
        self.ensure(2)
        sign = self.pos < self.end and self.buf[self.pos] == 0x2D  # -
        self.pos += sign
        first = self.buf[self.pos] if self.pos < self.end else -1
        if first == 0x30:  # 0
            self.pos += 1
            raw = b"0"
        elif 0x31 <= first <= 0x39:
            raw = self.run(_DIGITS)
        else:
            self.bad("Expecting value", start)
        raw = b"-" + raw if sign else raw
        is_float = False
        self.ensure(3)
        if self.buf.startswith(b".", self.pos, self.end) and self.pos + 1 < self.end \
                and 0x30 <= self.buf[self.pos + 1] <= 0x39:
            self.pos += 1
            raw += b"." + self.run(_DIGITS)
            is_float = True
            self.ensure(3)
        exponent = _EXPONENT.match(self.buf, self.pos, self.end)
        if exponent:
            self.pos = exponent.end()
            raw += exponent.group() + self.run(_DIGITS)
            is_float = True
        if is_float:
            return float(raw)
        try:
            return int(raw)
        except ValueError:
            raise _TooLong from None

    def nest(self, level: int) -> None:
        """Refuse an array or object at nesting ``level`` where json's
        decoder refuses it."""
        if level <= _SHALLOW:
            return
        if not self.limit:
            self.limit = _json_depth()
            # The reader recurses once per level, in Python frames only.
            self.recursion = sys.getrecursionlimit()
            sys.setrecursionlimit(self.recursion + self.limit + 100)
        if level > self.limit:
            raise RecursionError

    def value(self, depth: int = 0, top: bool = False):
        """Decode the value at ``pos``, inside ``depth`` arrays and
        objects.  With ``top``, an object's ``premises`` array is only
        scanned (``premises``).  Arrays and objects recurse once per
        level, so up to 3.11 nesting ends in a RecursionError about where
        json's decoder ends."""
        self.ensure(_AHEAD)
        buf, pos = self.buf, self.pos
        first = buf[pos] if pos < self.end else -1
        if first == 0x22:  # "
            return self.text()
        if first == 0x7B or first == 0x5B:  # { [
            self.nest(depth + 1)
        if first == 0x7B:
            self.pos += 1
            data = {}
            next_byte = self.skip()
            if next_byte == 0x7D:  # }
                self.pos += 1
                return data
            while True:
                if next_byte != 0x22:
                    if next_byte == 0x7D and _TRAILING:
                        self.bad("Illegal trailing comma before end of object", self.comma)
                    self.bad("Expecting property name enclosed in double quotes")
                key = self.text()
                if self.skip() != 0x3A:  # :
                    self.bad("Expecting ':' delimiter")
                self.pos += 1
                start = self.skip()
                data[key] = self.premises() if top and key == "premises" and start == 0x5B \
                    else self.value(depth + 1)
                next_byte = self.skip()
                if next_byte == 0x7D:
                    self.pos += 1
                    return data
                if next_byte != 0x2C:  # ,
                    self.bad("Expecting ',' delimiter")
                self.comma = self.here
                self.pos += 1
                next_byte = self.skip()
        if first == 0x5B:  # [
            self.pos += 1
            items: list = []
            next_byte = self.skip()
            if next_byte == 0x5D:  # ]
                self.pos += 1
                return items
            while True:
                items.append(self.value(depth + 1))
                next_byte = self.skip()
                if next_byte == 0x5D:
                    self.pos += 1
                    return items
                if next_byte != 0x2C:
                    self.bad("Expecting ',' delimiter")
                self.comma = self.here
                self.pos += 1
                if self.skip() == 0x5D and _TRAILING:
                    self.bad("Illegal trailing comma before end of array", self.comma)
        for word, constant in _CONSTANTS:
            if buf.startswith(word, pos, self.end):
                self.pos += len(word)
                return constant
        small = _INT.match(buf, pos, self.end)
        if small:
            self.pos = small.end()
            return int(small.group())
        return self.number()

    def premises(self) -> Stored:
        """Scan the array at ``pos``: its length, and whether every element
        is a string.  Once the gap between two strings is known, plain
        strings with that gap between them are checked a read at a time
        (``plain_run``); any other element is read on its own, and one
        that is no string is decoded, so its errors are json's."""
        offset = self.here
        self.pos += 1
        count, strings, gap, fast_from = 0, True, None, 0
        next_byte = self.skip()
        if next_byte == 0x5D:
            self.pos += 1
            return Stored(self, offset, 0, True)
        while True:
            if next_byte == 0x22 and gap is not None and self.here >= fast_from:
                found = self.plain_run(gap)
                if found < 0:
                    # Another layout here: the rest of this read goes one
                    # element at a time.
                    fast_from = self.base + self.end
                count += max(found, 0)
            if next_byte == 0x22:
                self.string(False)
            else:
                self.value(2)
                strings = False
            count += 1
            after = self.here
            next_byte = self.skip()
            if next_byte == 0x5D:
                self.pos += 1
                return Stored(self, offset, count, strings)
            if next_byte != 0x2C:
                self.bad("Expecting ',' delimiter")
            self.comma = self.here
            self.pos += 1
            next_byte = self.skip()
            if next_byte == 0x5D and _TRAILING:
                self.bad("Illegal trailing comma before end of array", self.comma)
            if gap is None and strings and next_byte == 0x22 and after > self.base:
                # The bytes between two strings, from one quote to the next.
                gap = bytes(self.view[after - self.base - 1 : self.pos + 1])

    def plain_run(self, gap: bytes) -> int:
        """From the string at ``pos``, the number of plain strings each
        followed by ``gap`` in this read, and ``pos`` moved to the string
        after them; -1 when the bytes are not that.

        Deleting every byte but quotes, backslashes and control characters
        leaves a quote, then the gap's quote, control characters and quote
        once per gap: so no string holds one of those bytes.  And ``gap``
        is found as often as that after the first quote, so each gap is
        ``gap`` exactly.  Counted from the first quote, a string whose
        text is the inside of the gap (``, `` for the gap ``", "``) would
        be taken for a gap, and the bytes after it for a string."""
        buf, pos = self.buf, self.pos
        last = buf.rfind(gap, pos + 1, self.end)
        if last < 0:
            return 0
        stop = last + len(gap) - 1
        found = buf.count(gap, pos + 1, stop + 1)
        specials = bytes(self.view[pos : stop + 1]).translate(None, _NOT_SPECIAL)
        if specials != b'"' + gap.translate(None, _NOT_SPECIAL) * found:
            return -1
        self.comma = self.base + last + gap.index(b",")
        self.pos = stop
        return found

    def texts(self, offset: int, count: int) -> Iterator[bytes]:
        """The first ``count`` strings of the array at ``offset``, in
        UTF-8.  The first pass checked the array, so between strings there
        are only commas and whitespace: the quotes of a read's plain
        strings split it at once."""
        self.seek(offset + 1)
        buf, view = self.buf, self.view
        while count:
            if self.pos == self.end and not self.fill():
                return
            pos, end = self.pos, self.end
            limit = buf.find(b"\\", pos, end)
            limit = end if limit < 0 else limit
            parts = bytes(view[pos:limit]).split(b'"')
            done = min((len(parts) - 1) >> 1, count)
            yield from parts[1 : 2 * done : 2]
            count -= done
            if not count:
                return
            if len(parts) & 1:
                if limit < end:
                    return  # a backslash between strings: not the array scanned
                self.pos = limit
                continue
            # The next string goes past the read or holds an escape.
            self.pos = limit - len(parts[-1]) - 1
            try:
                raw, escaped = self.string(True)
            except _Bad:
                return  # the file changed after the first pass
            yield _unescaped(raw).encode("utf-8", "surrogatepass") if escaped else raw
            count -= 1

    def where(self, offset: int) -> str:
        """json's "line L column C (char P)" for a byte offset, counted in
        the characters that reading the source as text gives."""
        decoder = codecs.getincrementaldecoder("utf-8")("surrogatepass")
        if self.checked:
            decoder = io.IncrementalNewlineDecoder(decoder, translate=True)
        self.seek(0)
        chars, line, last, left = 0, 1, -1, offset
        while True:
            read = self.source.readinto(self.view[: min(left, len(self.view))]) if left else 0
            left -= read
            piece = decoder.decode(bytes(self.view[:read]), final=not read)
            newlines = piece.count("\n")
            if newlines:
                line += newlines
                last = chars + piece.rindex("\n")
            chars += len(piece)
            if not read:
                return f"line {line} column {chars - last} (char {chars})"

    def scan(self, top: bool = True):
        """The first pass: the decoded value; with ``top``, a record with a
        ``Stored`` for its premises array."""
        try:
            try:
                self.ensure(3)
                if self.buf.startswith(codecs.BOM_UTF8, 0, self.end):
                    self.bad("Unexpected UTF-8 BOM (decode using utf-8-sig)", 0)
                self.skip()
                data = self.value(top=top)
                if self.skip() != -1:
                    self.bad("Extra data")
                self.checked = False  # the second pass reads checked bytes
                return data
            except (_Bad, _TooLong, RecursionError):
                # A file is decoded whole before it is parsed, so a UTF-8
                # error anywhere is reported first.
                while self.checked and not self.eof:
                    self.pos = self.end
                    self.fill()
                raise
            finally:
                if self.recursion:
                    sys.setrecursionlimit(self.recursion)
        except _Bad as exc:
            where = self.where(exc.offset)
            message = f"record is not valid JSON: {exc.message}: {where}"
            raise MalformedRecordError(message) from None
        except RecursionError:
            raise MalformedRecordError("record nests too deeply to decode") from None
        except _TooLong:
            # CPython refuses to convert integers of more than 4300 digits.
            raise MalformedRecordError("record holds a number too long to decode") from None


def _json_depth() -> int:
    """The deepest nesting of arrays json decodes from here."""
    import json

    low, high = _SHALLOW, 1 << 20  # json decodes low levels, and not high
    while high - low > 1:
        mid = (low + high) // 2
        try:
            json.loads("[" * mid + "]" * mid)
            low = mid
        except RecursionError:
            high = mid
    return low


def _unescaped(raw: bytes) -> str:
    """A string's raw bytes that hold an escape, decoded by json."""
    import json

    return json.loads('"' + raw.decode("utf-8", "surrogatepass") + '"')


def scan(source) -> object:
    """The first pass over a binary file, read as a text file would be."""
    return _Reader(source, True).scan()


def read_text(text: str) -> object:
    """``text`` decoded whole, as ``json.loads`` decodes it."""
    return _Reader(io.BytesIO(text.encode("utf-8", "surrogatepass")), False).scan(top=False)


def stored_texts(stored) -> tuple[int, Iterator[bytes | None]]:
    """The number of stored premise texts and the texts in UTF-8, None
    for an element that is no string: from a decoded list or from a
    record file's array.  Anything else holds no texts (-1)."""
    if isinstance(stored, list):
        return len(stored), (
            s.encode("utf-8", "surrogatepass") if type(s) is str else None for s in stored
        )
    if isinstance(stored, Stored) and stored.strings:
        return stored.count, stored.reader.texts(stored.offset, stored.count)
    return -1, iter(())
