"""Certificates and their exact, solver-independent verification.

A certificate pins a rational bound xi and exact slot values (a, b, c) per
mediated triple (u, v, w), u = (v + w)/2, such that the sign-normalized
companion of f minus xi equals the sum of the triple expressions
2a x^v + b x^w - 2c x^u plus passthrough square terms, with every triple in
the rotated cone 2ab >= c^2.  The companion bounds f from below through |x|,
and on the orthant each triple expression is nonnegative (x^u is the
geometric mean of x^v and x^w), so a passing certificate proves f >= xi.

A polynomial f whose coefficient has a numerator or denominator of more
than MAX_DECIMAL_EXPONENT decimal digits, which the parser refuses, is
too-large before f is hashed: printing such a value for the hash takes
time quadratic in its digits.

Two caps on the certificate decide too-large before any other arithmetic.
The least common denominator D of all point coordinates may not have more
than MAX_DECIMAL_EXPONENT decimal digits, the parser's limit for one value, and
the least common denominator V of all values (slots, passthrough
coefficients, xi) must stay below 10^MAX_DECIMAL_EXPONENT times 2^B(f),
where B(f) sums ceil(log2 d) over the distinct denominators d of f's
coefficients: the values must carry those, and 2^B(f) bounds their least
common denominator without big-integer arithmetic.  A cap is settled by
the summed bit lengths of the distinct denominators when those stay below
it, and only otherwise by building the lcm, which stops at the cap.

A certificate holds its circuits in one form, integers (_Cones): each
distinct point once, as its coordinates in lowest terms, and each slot as
a numerator and a positive denominator in lowest terms, as Fraction keeps
them.  The reader builds that form straight from the JSON values, the
writer renders each slot and distinct coordinate once per layout, and
bit_size and the verifier read the integers.  The rational grammar is
polyring's alone: the reader reads each value with parse_parts and the
writer writes each with format_parts.

The writer (Certificate.pieces) gives either layout as a stream of text
pieces, one triple each, so that a certificate can be written to a file
or stdout without its text ever being held whole: it holds the texts of
the slots and of the distinct points (a third of the file on the scale
ladder's n = 40 rung) and the one piece it is writing.  dumps and
dumps_compact join the pieces.

The reader (Certificate.loads) takes the text whole or an open text
stream, which it reads _READ characters at a time.  It walks the
top-level object and its circuits list itself, as json's decoder would,
and decodes each circuit at once with json's scanner when the text read
holds all of it, else each of its triples on its own.  So it holds about
one read's text, the decoded values of one circuit or triple, and the
integers it keeps: each triple's point indices and slots, and each
distinct point once.  Any JSON layout is read, and every refusal is the
ValueError that json.loads and the checks after it would give the whole
text, whatever the reads: a JSON syntax error names its line, column and
character offset in the whole text.

Past the caps neither D nor V is formed: the arithmetic runs on integers
per triple and per distinct point.  Each distinct point is scaled once, by
the lcm of its own coordinates' denominators; a midpoint is checked on the
three scaled points, a cone on the triple's own numerators and
denominators, and the reconstruction sums the values that meet at each
point over their own denominators (see _sum) and compares that sum with
the companion's coefficient there.  This module imports only polyring and
the standard library.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice, repeat
from json.decoder import WHITESPACE
from math import gcd, lcm
from operator import add, floordiv, mul
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, TextIO, Tuple, Union

from .polyring import _TOO_MANY_DIGITS, Exponent, SparsePoly, _reduced, format_parts, format_rational
from .polyring import has_too_many_digits, is_even, parse_parts, parse_rational, pn_companion, poly_sha256


def _in_cone(pa: int, qa: int, pb: int, qb: int, pc: int, qc: int) -> bool:
    """Exact membership of (a, b, c) in the closed rotated cone, a, b >= 0
    and 2ab >= c^2, each given as a numerator p over a positive denominator
    q: 2ab >= c^2 is 2 pa pb qc^2 >= pc^2 qa qb."""

    return pa >= 0 and pb >= 0 and 2 * pa * pb * qc * qc >= pc * pc * qa * qb


def _indented(items: Sequence[str], level: int, brackets: str = "[]") -> str:
    """A JSON list (or object, brackets "{}") of rendered items in the
    json.dumps(indent=2) layout, opened at indent level `level`."""

    if not items:
        return brackets
    inner = "\n" + "  " * (level + 1)
    return f"{brackets[0]}{inner}{(',' + inner).join(items)}\n{'  ' * level}{brackets[1]}"


def _inline(items: Sequence[str], level: int, brackets: str = "[]") -> str:
    """The same list or object in the json.dumps layout without indent."""

    return f"{brackets[0]}{', '.join(items)}{brackets[1]}"


def _pieces(
    block: Callable[..., str], items: Iterable[Iterable[str]], level: int, brackets: str = "[]"
) -> Iterator[str]:
    """block(items, level, brackets) in pieces, each item given as its own
    pieces: the text before an item is joined to its first piece, and the
    closing bracket is a piece of its own."""

    opening, separator, closing = block(["\0", "\0"], level, brackets).split("\0")
    empty = True
    for item in items:
        item = iter(item)
        yield (opening if empty else separator) + next(item)
        yield from item
        empty = False
    yield brackets if empty else closing


def _bits(values: Iterable[Fraction]) -> int:
    """Bits of the numerators and denominators of the values."""

    return sum(x.numerator.bit_length() + x.denominator.bit_length() for x in values)


class _Cones:
    """The circuits of a certificate in integers.

    points lists each distinct point once, by value: its coordinates'
    numerators and denominators in lowest terms, interleaved as (x1, d1, x2,
    d2, ...).  refs holds three point indices per triple, for u, v and w,
    and slots six integers per triple, (pa, qa, pb, qb, pc, qc) with a =
    pa/qa and so on, each in lowest terms with q > 0.  sizes counts the
    triples of each circuit.
    """

    __slots__ = ("points", "refs", "slots", "sizes")

    def __init__(self, points: List[Tuple[int, ...]], refs: List[int], slots: List[int], sizes: List[int]) -> None:
        self.points, self.refs, self.slots, self.sizes = points, refs, slots, sizes

    @classmethod
    def over(cls, den: int, points: Sequence[Sequence[int]], refs: List[int], sizes: List[int],
             p: Sequence[int], q: Sequence[int]) -> "_Cones":
        """From distinct integer points X / den, and slot s = p[s] / q[s]
        with q[s] > 0, three slots per triple."""

        coords: Dict[int, Tuple[int, int]] = {}
        reduced = [
            tuple(chain.from_iterable(coords.get(x) or coords.setdefault(x, _reduced(x, den)) for x in pt))
            for pt in points
        ]
        g = list(map(gcd, p, q))
        slots = list(chain.from_iterable(zip(map(floordiv, p, g), map(floordiv, q, g))))
        return cls(reduced, refs, slots, sizes)


@dataclass(frozen=True, eq=False)
class Certificate:
    """Exact nonnegativity witness for f - xi on the companion side, its
    circuits held in integers (cones).

    == is identity (eq=False), since _Cones has no value equality: two
    certificates are the same when their dumps() are."""

    n: int
    xi: Fraction
    poly_sha256: str
    cones: _Cones
    passthrough: Tuple[Tuple[Exponent, Fraction], ...]

    @property
    def num_triples(self) -> int:
        return len(self.cones.refs) // 3  # three points per triple

    @property
    def bit_size(self) -> int:
        """Bits of every numerator and denominator written, a point's
        counted once per triple that refers to it."""

        cones = self.cones
        point_bits = [sum(map(int.bit_length, pt)) for pt in cones.points]
        return (
            sum(map(int.bit_length, cones.slots))
            + sum(map(point_bits.__getitem__, cones.refs))
            + _bits([self.xi, *(coef for _, coef in self.passthrough)])
        )

    def dumps(self) -> str:
        """The certificate file: JSON in the json.dumps(indent=2,
        sort_keys=True) layout, the join of pieces()."""

        return "".join(self.pieces())

    def dumps_compact(self) -> str:
        """The certificate in the json.dumps(sort_keys=True) layout, on one
        line, the join of pieces(compact=True)."""

        return "".join(self.pieces(compact=True))

    def pieces(self, compact: bool = False) -> Iterator[str]:
        """The certificate JSON with sorted keys, in the layout of dumps, or
        of dumps_compact if compact, as pieces of text to write in turn.

        Each triple is one piece, as is each passthrough term and each
        other field, with the brackets and separators around it; the
        document is never held whole.  The text of each slot, each distinct
        coordinate and each distinct point is rendered once per call and
        held while the pieces are written."""

        block = _inline if compact else _indented
        cones = self.cones
        slots = cones.slots
        values = list(map(format_parts, slots[0::2], slots[1::2]))
        coords: Dict[Tuple[int, int], str] = {}  # a coordinate (x, d) -> its block
        for pt in cones.points:
            for x, d in zip(pt[0::2], pt[1::2]):
                if (x, d) not in coords:
                    coords[x, d] = block([f'"{x}"', f'"{d}"'], 6)
        points = [block(list(map(coords.__getitem__, zip(pt[0::2], pt[1::2]))), 5) for pt in cones.points]
        template = block(['"a": "%s"', '"b": "%s"', '"c": "%s"', '"u": %s', '"v": %s', '"w": %s'], 4, "{}")
        refs = cones.refs
        triples = (
            (template % (a, b, c, points[u], points[v], points[w]),)
            for a, b, c, u, v, w in zip(values[0::3], values[1::3], values[2::3], refs[0::3], refs[1::3], refs[2::3])
        )
        circuits = (
            _pieces(block, [chain(['"triples": '], _pieces(block, islice(triples, size), 3))], 2, "{}")
            for size in cones.sizes
        )
        passthrough = (
            (
                block(
                    [
                        f'"coef": "{format_rational(coef)}"',
                        f'"exp": {block(list(map(json.dumps, exp)), 3)}',
                    ],
                    2,
                    "{}",
                ),
            )
            for exp, coef in self.passthrough
        )
        fields = [
            chain(['"circuits": '], _pieces(block, circuits, 1)),
            [f'"n": {json.dumps(self.n)}'],
            chain(['"passthrough": '], _pieces(block, passthrough, 1)),
            [f'"poly_sha256": {json.dumps(self.poly_sha256)}'],
            [f'"xi": "{format_rational(self.xi)}"'],
        ]
        return _pieces(block, fields, 0, "{}")

    @classmethod
    def loads(cls, source: Union[str, TextIO]) -> "Certificate":
        """The certificate in a JSON text: a str, taken as one read, or an
        open text stream, read _READ characters at a time.

        Any JSON layout is read.  The top-level object and its circuits
        list are walked here and each circuit, or each triple of a circuit
        not read whole, is decoded on its own, so the reader holds about
        one read's text and one circuit's values besides the certificate
        it builds.  A refusal is a ValueError whose text does not depend on
        how the text is read; a JSON syntax error names its place in the
        whole text, as json.loads would."""

        reader = _Reader()
        try:
            data, circuits = reader.document(_Text(source, reader.decoded))
        except RecursionError:
            raise ValueError("JSON is nested too deeply") from None
        return reader.certificate(data, circuits)


def _field(obj: object, key: str, where: str, kind: type = object, default=None):
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object")
    if key not in obj and default is not None:
        return default
    if key not in obj:
        raise ValueError(f"{where} misses field '{key}'")
    if not isinstance(obj[key], kind):
        raise ValueError(f"{where} field '{key}' must be a {kind.__name__}")
    return obj[key]


_TRIPLE_KEYS = frozenset("uvwabc")
# JSON integers and integer strings, which the writer emits, read as
# integers; a float or a bool is refused, where int() would truncate it
_INTEGRAL = frozenset((int, str))


def _integer(value: object, where: str) -> int:
    try:
        if type(value) in _INTEGRAL:
            return int(value)
    except ValueError:
        pass
    raise ValueError(f"{where} must be an integer, got {value!r}")


def _refuse_point(obj: List[object]) -> None:
    """Raise the ValueError for a point that is no list of [num, den] pairs
    of integers or integer strings."""

    for pair in obj:
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValueError(f"coordinate must be a [num, den] pair: {pair!r}")
    raise ValueError(f"coordinates must hold two integers each: {obj!r}")


_READ = 1 << 16  # characters asked of a stream per read


def _trailing_comma(text: str) -> Tuple[str, bool]:
    """json's refusal of text, which ends in a comma before its close: the
    message, and whether it is placed at the comma rather than the close.
    Python versions differ here."""

    try:
        json.loads(text)
    except json.JSONDecodeError as err:
        return err.msg, err.pos == text.rindex(",")
    raise AssertionError(f"json.loads took {text!r}")


_TRAILING_COMMA = {"}": _trailing_comma('{"": 0,}'), "]": _trailing_comma("[0,]")}


class _Text:
    """A JSON text, read from a stream in pieces or given whole, and a
    cursor in it that moves as json's decoder does.

    buf holds the text read and not yet passed, from index at on.  base is
    the offset of buf[0] in the whole text, lines counts the newlines before
    it and line_start is the offset after the last of them, so that a
    syntax error names its place in the whole text.
    """

    def __init__(self, source: Union[str, TextIO], hook: Callable[[dict], object]) -> None:
        self.scan = json.JSONDecoder(object_hook=hook).scan_once  # raw_decode without its frame
        whole = isinstance(source, str)
        self.stream = None if whole else source
        self.buf = source if whole else ""
        self.eof = whole  # the stream has given all its text
        self.at = self.base = self.lines = self.line_start = 0

    def read(self) -> None:
        """Drop the text passed, counting its newlines, and read on until
        the text left has grown by its own length and by at least _READ
        characters, or the stream ends: a value missed again and again
        costs time linear in its length."""

        buf, at = self.buf, self.at
        newlines = buf.count("\n", 0, at)
        if newlines:
            self.lines += newlines
            self.line_start = self.base + buf.rfind("\n", 0, at) + 1
        self.base += at
        pieces = [buf[at:]] if at < len(buf) else []  # a lone piece is joined without a copy
        want = max(len(buf) - at, _READ)
        while want > 0:
            piece = self.stream.read(want)
            if not piece:
                self.eof = True
                break
            pieces.append(piece)
            want -= len(piece)
        self.buf, self.at = "".join(pieces), 0

    def error(self, msg: str, at: int) -> json.JSONDecodeError:
        """json's syntax error msg at buf[at], placed in the whole text."""

        pos = self.base + at
        newline = self.buf.rfind("\n", 0, at)
        line = self.lines + self.buf.count("\n", 0, at) + 1
        column = at - newline if newline >= 0 else pos - self.line_start + 1
        err = json.JSONDecodeError(msg, self.buf, at)
        err.pos, err.lineno, err.colno = pos, line, column
        err.args = (f"{msg}: line {line} column {column} (char {pos})",)
        return err

    def skip(self, start: int = 0) -> int:
        """The index in buf of the first character from at + start on that
        is no whitespace, or len(buf) at the end of the text."""

        while True:
            end = WHITESPACE.match(self.buf, self.at + start).end()
            if end < len(self.buf) or self.eof:
                return end
            self.read()

    def next(self) -> str:
        """Move past whitespace; the next character, or "" at the end."""

        self.at = self.skip()
        return self.buf[self.at : self.at + 1]

    def value(self) -> object:
        """Decode the value at the cursor, with the hook, and move past it.
        A value that does not parse, or ends within two characters of the
        end of buf, is decoded again once more text is read, so that its
        result or error is the one of the whole text: a number may go on
        past buf, even after a "1." or "1e-" that the scanner leaves."""

        while True:
            try:
                value, end = self.scan(self.buf, self.at)
                if end + 2 < len(self.buf) or self.eof:
                    self.at = end
                    return value
            except StopIteration as stop:  # no value starts here
                if self.eof:
                    raise self.error("Expecting value", stop.value) from None
            except json.JSONDecodeError as err:
                if self.eof:
                    raise self.error(err.msg, err.pos) from None
            self.read()

    def whole(self) -> object:
        """The value at the cursor decoded at once, with the hook, if the
        text read holds all of it, and move past it; else None, with the
        cursor where it was and the hook run on the objects read."""

        if self.eof:
            return self.value()
        try:
            value, end = self.scan(self.buf, self.at)
        except (StopIteration, json.JSONDecodeError):  # cut off by the end of buf, or no JSON
            return None
        if end + 2 >= len(self.buf):
            return None
        self.at = end
        return value

    def more(self, close: str) -> bool:
        """Move past the "," or the close after a member or element, and
        past whitespace after a ","; whether it was a ",".  A "," before
        the close is refused as json refuses it."""

        after = self.next()
        if after == close:
            self.at += 1
            return False
        if after != ",":
            raise self.error("Expecting ',' delimiter", self.at)
        end = self.skip(1)  # the comma stays in buf, for a message placed at it
        if self.buf[end : end + 1] == close:
            msg, at_comma = _TRAILING_COMMA[close]
            raise self.error(msg, self.at if at_comma else end)
        self.at = end
        return True

    def members(self) -> Iterator[str]:
        """The keys of the object at the cursor, each given with the cursor
        at its value, which the caller passes; then move past the object.
        The checks and errors are those of json.decoder.JSONObject."""

        self.at += 1  # the "{"
        if self.next() == "}":
            self.at += 1
            return
        while True:
            if self.next() != '"':
                raise self.error("Expecting property name enclosed in double quotes", self.at)
            key = self.value()
            if self.next() != ":":
                raise self.error("Expecting ':' delimiter", self.at)
            self.at += 1
            self.next()
            yield key
            if not self.more("}"):
                return

    def elements(self) -> Iterator[None]:
        """Yield once per element of the array at the cursor, with the cursor
        at the element, which the caller passes; then move past the array.
        The checks and errors are those of json.decoder.JSONArray."""

        self.at += 1  # the "["
        if self.next() == "]":
            self.at += 1
            return
        while True:
            yield
            if not self.more("]"):
                return


class _Circuits:
    """A certificate's circuits list as the reader streams it: refs, slots
    and sizes hold its triples as _Cones does, up to the first circuit or
    triple that is malformed, and error is the ValueError of that one,
    raised once the checks before it pass."""

    __slots__ = ("refs", "slots", "sizes", "error")

    def __init__(self) -> None:
        self.refs: List[int] = []
        self.slots: List[int] = []
        self.sizes: List[int] = []
        self.error: Optional[ValueError] = None


class _Reader:
    """The certificate from its JSON text, in integers.

    A point recurs in many triples: each distinct point, keyed on its raw
    JSON values, is converted once per reader, and points of equal value
    share one index.  decoded is the object hook of every object decoded,
    so that every triple becomes a tuple (its three point indices and six
    slot integers) as soon as it is decoded and its point lists are freed
    at once; JSON decodes to no tuple, so a tuple is such a triple.
    document reads the text as json.loads would with that hook, in the
    same order and with the same errors, save that the circuits list of
    the top-level object is taken into a _Circuits as it is read.
    """

    def __init__(self) -> None:
        self.keys: Dict[Tuple[str, ...], int] = {}  # raw values of a point -> its index
        self.coords: Dict[Tuple[str, str], Tuple[int, int]] = {}  # a raw pair -> its integers
        self.index: Dict[Tuple[int, ...], int] = {}  # a point's integers -> its index
        self.points: List[Tuple[int, ...]] = []

    def decoded(self, obj: dict) -> object:
        return self.triple(obj) if obj.keys() >= _TRIPLE_KEYS else obj

    def point(self, obj: object) -> int:
        if not isinstance(obj, list):
            raise ValueError(f"point must be a list of coordinates: {obj!r}")
        try:
            # list.__len__ takes lists only, so once every length is 2 the
            # flattened values determine the pairs
            key = tuple(chain.from_iterable(obj)) if set(map(list.__len__, obj)) <= {2} else None
            # only keys of strings are kept, which no number equals
            i = self.keys.get(key)
        except TypeError:  # a coordinate that is not a list, or an unhashable value
            key = i = None
        if i is None:
            kinds = set(map(type, key or ()))
            if key is None or not kinds <= _INTEGRAL:  # 1.0 and True would read as 1
                _refuse_point(obj)
            coords: List[int] = []
            values = iter(key)
            for pair in zip(values, values):
                xd = self.coords.get(pair)
                if xd is None:
                    try:
                        num, den = int(pair[0]), int(pair[1])
                    except ValueError:
                        raise ValueError(f"coordinate {list(pair)!r} must hold two integers") from None
                    if den == 0:
                        raise ValueError(f"coordinate has a zero denominator: {list(pair)!r}")
                    xd = _reduced(num, den)
                    if kinds == {str}:
                        self.coords[pair] = xd
                coords += xd
            pt = tuple(coords)  # one tuple for the index and the points
            i = self.index.get(pt)
            if i is None:
                i = self.index[pt] = len(self.points)
                self.points.append(pt)
            if kinds == {str}:
                self.keys[key] = i
        return i

    def triple(self, t: object) -> tuple:
        if not isinstance(t, dict):
            raise ValueError("triple must be a JSON object")
        try:
            u, v, w, a, b, c = t["u"], t["v"], t["w"], t["a"], t["b"], t["c"]
        except KeyError as missing:
            raise ValueError(f"triple misses field {missing}") from None
        point = self.point
        return (point(u), point(v), point(w), *parse_parts(a), *parse_parts(b), *parse_parts(c))

    def document(self, text: _Text) -> Tuple[object, Optional[_Circuits]]:
        """The JSON value of the whole text, as json.loads gives it with
        decoded as the object hook, save that a circuits list of the
        top-level object is taken circuit by circuit into a _Circuits,
        which is given beside the value instead of in it."""

        streamed = None
        first = text.next()
        if first == "\ufeff" and text.base + text.at == 0:
            raise text.error("Unexpected UTF-8 BOM (decode using utf-8-sig)", 0)
        if first != "{":
            data = text.value()
        else:
            data = {}
            for key in text.members():
                if key == "circuits":  # of a key given twice the last counts
                    data.pop(key, None)
                    streamed = None
                if key == "circuits" and text.next() == "[":
                    streamed = self.circuits(text)
                else:
                    data[key] = text.value()
            data = self.decoded(data)
        if text.next():
            raise text.error("Extra data", text.at)
        return data, streamed

    def circuits(self, text: _Text) -> _Circuits:
        """The circuits list at the cursor, its triples taken into a
        _Circuits in the order that certificate checks them: up to the
        first element that is no circuit, or the first malformed triple."""

        found = _Circuits()
        refs, slots = found.refs, found.slots
        # characters of the element before: a circuit is tried whole once
        # twice as many are read, since one cut off by the end of the text
        # read has its triples decoded twice; decoding every circuit triple
        # by triple costs a certify-c7 certificate 14% more (BENCH_34.json)
        last = 0
        for _ in text.elements():
            start, mark = text.base + text.at, len(refs)
            group, error = self.circuit(text, refs, slots, 2 * last)
            last = text.base + text.at - start
            if found.error is not None:  # nothing after the first error is kept
                del refs[mark:], slots[2 * mark :]
                continue
            try:
                triples = _field(group, "triples", "circuit", list)
            except ValueError as err:  # the element keeps none of its triples
                del refs[mark:], slots[2 * mark :]
                found.error = err
                continue
            # a triple's error keeps the triples before it
            found.error = self.take(triples, refs, slots) or error
            found.sizes.append((len(refs) - mark) // 3)
        return found

    def circuit(
        self, text: _Text, refs: List[int], slots: List[int], room: int
    ) -> Tuple[object, Optional[ValueError]]:
        """Read one element of the circuits list.  A circuit is decoded at
        once if the text read holds all of it, which is tried when room
        characters of it are read, after reading on if room is at most one
        read.  Else its triples list is read one triple at a time, each
        taken into refs and slots as it comes and left empty in the object
        returned, with the error of the first malformed triple."""

        if text.next() != "{":
            return text.value(), None
        if not text.eof and len(text.buf) - text.at < room <= _READ:
            text.read()
        if text.eof or len(text.buf) - text.at >= room:
            group = text.whole()
            if group is not None:
                return group, None
        mark = len(refs)
        group, error = {}, None
        for key in text.members():
            if key == "triples":  # of a key given twice the last counts
                del refs[mark:], slots[2 * mark :]
                error = None
            if key == "triples" and text.next() == "[":
                group[key] = []
                error = self.take((text.value() for _ in text.elements()), refs, slots)
            else:
                group[key] = text.value()
        return self.decoded(group), error

    def take(self, triples: Iterable[object], refs: List[int], slots: List[int]) -> Optional[ValueError]:
        """Append the points and slots of each decoded triple to refs and
        slots until one is no object with every field; return that one's
        error, or None.  The triples are read to their end either way."""

        error = None
        for t in triples:
            if error is not None:
                continue
            if type(t) is tuple:
                refs += t[:3]
                slots += t[3:]
                continue
            try:
                self.triple(t)  # raises, as decoded has not made t a tuple
            except ValueError as err:
                error = err
        return error

    def certificate(self, data: object, circuits: Optional[_Circuits]) -> Certificate:
        n = _integer(_field(data, "n", "certificate"), "certificate field 'n'")
        xi = parse_rational(_field(data, "xi", "certificate"))
        sha = str(_field(data, "poly_sha256", "certificate"))
        if circuits is None:  # no list was read for the field: it is absent, or refused here
            _field(data, "circuits", "certificate", list, [])
            circuits = _Circuits()
        points, refs, slots, sizes = self.points, circuits.refs, circuits.slots, circuits.sizes
        # the triples before a malformed one are checked first, in order
        wrong = {i for i, pt in enumerate(points) if len(pt) != 2 * n}
        for i in refs if wrong else ():
            if i in wrong:
                raise ValueError(f"point of dimension {n} expected: {_pairs(points[i])}")
        if circuits.error is not None:
            raise circuits.error
        used = set(refs)
        if len(used) < len(points):  # points of triples decoded outside the circuits
            renumber = {i: k for k, i in enumerate(sorted(used))}
            points = [points[i] for i in sorted(used)]
            refs = list(map(renumber.__getitem__, refs))
        passthrough = []
        for item in _field(data, "passthrough", "certificate", list, []):
            raw = _field(item, "exp", "passthrough term", list)
            exp = tuple(_integer(x, "passthrough exponent") for x in raw)
            if len(exp) != n or any(x < 0 for x in exp):
                raise ValueError(f"bad passthrough exponent {exp}")
            passthrough.append((exp, parse_rational(_field(item, "coef", "passthrough term"))))
        return Certificate(n, xi, sha, _Cones(points, refs, slots, sizes), tuple(passthrough))


def _pairs(point: Sequence[int]) -> List[List[int]]:
    """A point's integers as its [num, den] pairs, for a message."""

    return [list(pair) for pair in zip(point[0::2], point[1::2])]


@dataclass
class VerifyResult:
    ok: bool
    reason: str

    def __bool__(self) -> bool:
        return self.ok


def _lcm_reaches(denominators: Iterable[int], limit: int) -> bool:
    """Whether the least common denominator reaches limit.

    The product of the distinct denominators is at most 2^S, S the sum of
    their ceil(log2 d), so an S below log2(limit) settles it without
    big-integer arithmetic; otherwise the lcm is built up to the limit."""

    distinct = set(denominators)
    if sum((d - 1).bit_length() for d in distinct) < limit.bit_length() - 1:
        return False
    den = 1
    for d in distinct:
        den = lcm(den, d)
        if den >= limit:
            return True
    return False


def _sum(parts: Dict[int, int]) -> Tuple[int, int]:
    """The sum of the fractions num/den of parts, den -> num, not reduced.

    Terms are added in pairs, level by level, so that operands grow evenly
    and only multiplications are needed: many large distinct denominators at
    one point cost about a product of their total size, where adding them
    one by one over their lcm costs its square."""

    fractions = list(parts.items())
    while len(fractions) > 1:
        summed = [(d1 * d2, n1 * d2 + n2 * d1) for (d1, n1), (d2, n2) in zip(fractions[0::2], fractions[1::2])]
        fractions = summed + fractions[len(summed) * 2 :]
    den, num = fractions[0]
    return num, den


def verify_certificate(f: SparsePoly, cert: Certificate) -> VerifyResult:
    """Exact, independent acceptance check of a certificate against f.

    Checks closed cone membership (non-strict), midpoint structure,
    passthrough shape, and the exact reconstruction of the companion of
    f - xi, on integers per triple and per distinct point.  A coefficient
    of f with more than 4300 digits above or below its fraction bar is
    refused as too-large, as is a common denominator of the points from
    10^4300 on or one of the values from 10^4300 * 2^B(f) on (see the
    module docstring).  A
    passing certificate proves f(x) >= xi for every real x.
    """

    n = cert.n
    if n != f.n:
        return VerifyResult(False, "shape-mismatch")
    if has_too_many_digits(f):
        return VerifyResult(False, "too-large")
    if cert.poly_sha256 != poly_sha256(f):
        return VerifyResult(False, "hash-mismatch")
    cones = cert.cones
    points, refs, slots = cones.points, cones.refs, cones.slots
    q = slots[1::2]
    poly_bits = sum((d - 1).bit_length() for d in {c.denominator for c in f.terms.values()})
    if _lcm_reaches(chain.from_iterable(pt[1::2] for pt in points), _TOO_MANY_DIGITS) or _lcm_reaches(
        chain(q, (cert.xi.denominator,), (c.denominator for _, c in cert.passthrough)), _TOO_MANY_DIGITS << poly_bits
    ):
        return VerifyResult(False, "too-large")

    # each distinct point as (d, d * point), d the lcm of its denominators
    scaled: List[Tuple[int, Tuple[int, ...]]] = []
    for pt in points:
        nums, dens = pt[0::2], pt[1::2]
        d = lcm(*dens)
        scaled.append((d, nums if d == 1 else tuple(map(mul, nums, map(floordiv, repeat(d), dens)))))
    flawed = {i for i, pt in enumerate(points) if len(pt) != 2 * n}
    negative = {i for i, (_, nums) in enumerate(scaled) if min(nums, default=0) < 0}

    # the values that meet at each point, summed per denominator
    parts: List[Dict[int, int]] = [{} for _ in points]
    for iu, iv, iw, pa, qa, pb, qb, pc, qc in zip(
        refs[0::3], refs[1::3], refs[2::3], slots[0::6], slots[1::6], slots[2::6], slots[3::6], slots[4::6], slots[5::6]
    ):
        if flawed and (iu in flawed or iv in flawed or iw in flawed):
            return VerifyResult(False, "shape-mismatch")
        (du, pu), (dv, pv), (dw, pw) = scaled[iu], scaled[iv], scaled[iw]
        # v + w = 2u, over the three points' own denominators; equal points
        # share one index
        if (
            iv == iw
            or (negative and (iu in negative or iv in negative or iw in negative))
            or list(map(add, map(mul, pv, repeat(dw * du)), map(mul, pw, repeat(dv * du))))
            != list(map(mul, pu, repeat(2 * dv * dw)))
        ):
            return VerifyResult(False, "bad-midpoint")
        if not _in_cone(pa, qa, pb, qb, pc, qc):
            return VerifyResult(False, "cone-violation")
        at_v, at_w, at_u = parts[iv], parts[iw], parts[iu]
        at_v[qa] = at_v.get(qa, 0) + 2 * pa
        at_w[qb] = at_w.get(qb, 0) + pb
        at_u[qc] = at_u.get(qc, 0) - 2 * pc
    # from here on a point is keyed by its integers; an exponent exp is the
    # point (exp_1, 1, exp_2, 1, ...)
    at = dict(zip(points, parts))
    for exp, coef in cert.passthrough:
        if not is_even(exp) or coef <= 0:
            return VerifyResult(False, "bad-passthrough")
        by_den = at.setdefault(tuple(chain.from_iterable(zip(exp, repeat(1)))), {})
        by_den[coef.denominator] = by_den.get(coef.denominator, 0) + coef.numerator

    # the companion of f - xi, point by point
    tilde = pn_companion(f)
    terms = {**tilde.terms, (0,) * n: tilde.constant() - cert.xi}
    target = {tuple(chain.from_iterable(zip(exp, repeat(1)))): coef for exp, coef in terms.items() if coef}
    sums = {pt: total for pt, by_den in at.items() if by_den and (total := _sum(by_den))[0]}
    if sums.keys() != target.keys() or any(
        num * target[pt].denominator != target[pt].numerator * den for pt, (num, den) in sums.items()
    ):
        return VerifyResult(False, "reconstruction-mismatch")
    return VerifyResult(True, "ok")
