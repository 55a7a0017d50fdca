"""Truth-conditional message semantics on a fixed world grid.

Two families of messages. Precise messages (exact values, closed intervals,
half-lines) have fully fixed truth conditions. Vague messages carry an open
parameter ``t`` that the truth conditions quantify over: a halo half-width
for "around n" (true iff ``|x - n| <= t``) and a threshold for the bare
positives "tall" (true iff ``x >= t``) and "short" (true iff ``x < t``).
Listeners resolve the open parameter with a prior; see ``listener``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .prob import _is_grid

__all__ = [
    "Message",
    "Exact",
    "Between",
    "AtLeast",
    "AtMost",
    "Around",
    "Threshold",
    "Menu",
    "TALL",
    "SHORT",
    "denotation",
    "denotation_vector",
    "precise_alternatives",
    "vague_alternatives",
    "message_from_json",
    "parse_message",
    "MissingParameter",
    "MessageParseError",
]


class MissingParameter(ValueError):
    """A vague message was evaluated without its open parameter."""


class MessageParseError(ValueError):
    """A message spec (text or JSON) could not be parsed."""


@dataclass(frozen=True)
class Message:
    """Base class; concrete kinds below.

    ``vague`` and ``param_kind`` are class constants, not fields:
    param_kind names the parameter prior a vague message consumes.
    """

    vague: ClassVar[bool] = False
    param_kind: ClassVar[str | None] = None

    @property
    def label(self) -> str:
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError

    def __str__(self) -> str:
        return self.label


@dataclass(frozen=True)
class Exact(Message):
    value: float = 0.0

    @property
    def label(self) -> str:
        return f"exactly {self.value:g}"

    def to_json(self) -> dict:
        return {"kind": "exact", "args": [self.value]}


@dataclass(frozen=True)
class Between(Message):
    lo: float = 0.0
    hi: float = 0.0

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"between {self.lo} and {self.hi}: empty interval")

    @property
    def label(self) -> str:
        return f"between {self.lo:g} and {self.hi:g}"

    def to_json(self) -> dict:
        return {"kind": "between", "args": [self.lo, self.hi]}


@dataclass(frozen=True)
class AtLeast(Message):
    lo: float = 0.0

    @property
    def label(self) -> str:
        return f"at least {self.lo:g}"

    def to_json(self) -> dict:
        return {"kind": "at_least", "args": [self.lo]}


@dataclass(frozen=True)
class AtMost(Message):
    hi: float = 0.0

    @property
    def label(self) -> str:
        return f"at most {self.hi:g}"

    def to_json(self) -> dict:
        return {"kind": "at_most", "args": [self.hi]}


@dataclass(frozen=True)
class Around(Message):
    """Vague approximator: true iff the world value is within t of center."""

    center: float = 0.0
    vague = True
    param_kind = "around"

    @property
    def label(self) -> str:
        return f"around {self.center:g}"

    def to_json(self) -> dict:
        return {"kind": "around", "args": [self.center]}


@dataclass(frozen=True)
class Threshold(Message):
    """Vague bare positive over an open threshold t.

    Polarity ">=" reads "tall" (true iff x >= t), "<" reads "short"
    (true iff x < t). Weak/strict split makes the pair exhaustive and
    exclusive at any fixed t.
    """

    polarity: str = ">="
    vague = True
    param_kind = "threshold"

    def __post_init__(self) -> None:
        if self.polarity not in (">=", "<"):
            raise ValueError(f"polarity must be '>=' or '<', got {self.polarity!r}")

    @property
    def label(self) -> str:
        return "tall" if self.polarity == ">=" else "short"

    def to_json(self) -> dict:
        return {"kind": self.label, "args": []}


TALL = Threshold(">=")
SHORT = Threshold("<")


def _check_vague(m: Message, t) -> None:
    """Raise unless ``m`` is a known vague kind given its parameter ``t``;
    the type is checked first, so an unknown kind is never a missing parameter."""
    if not isinstance(m, (Around, Threshold)):
        raise TypeError(f"unknown message type {type(m).__name__}")
    if t is None:
        raise MissingParameter(f"{m.label!r} needs its open parameter")


def denotation(m: Message, x: float, t: float | None = None) -> bool:
    """Truth value of message ``m`` at world value ``x`` (parameter ``t``).

    ``t`` is required exactly when ``m`` is vague; it is ignored for
    precise messages.
    """
    if isinstance(m, Exact):
        return x == m.value
    if isinstance(m, Between):
        return m.lo <= x <= m.hi
    if isinstance(m, AtLeast):
        return x >= m.lo
    if isinstance(m, AtMost):
        return x <= m.hi
    _check_vague(m, t)
    if isinstance(m, Around):
        return abs(x - m.center) <= t
    return x >= t if m.polarity == ">=" else x < t


def denotation_vector(m: Message, grid, t=None) -> np.ndarray:
    """Vectorized ``denotation`` over a grid; returns a boolean array.

    ``grid`` and ``t`` broadcast against each other: with ``grid[:, None]``
    and a 1-d array of parameter values, entry ``[k, i]`` is the truth of
    ``m`` at ``(grid[k], t[i])``. Precise messages ignore ``t``.
    """
    g = np.asarray(grid, dtype=float)
    if isinstance(m, Exact):
        return g == m.value
    if isinstance(m, Between):
        return (g >= m.lo) & (g <= m.hi)
    if isinstance(m, AtLeast):
        return g >= m.lo
    if isinstance(m, AtMost):
        return g <= m.hi
    _check_vague(m, t)
    if isinstance(m, Around):
        return np.abs(g - m.center) <= t
    return g >= t if m.polarity == ">=" else g < t


def _checked_grid(grid) -> np.ndarray:
    """``grid`` as a float array, raising unless it is a nonempty, finite,
    strictly increasing 1-d grid."""
    g = np.asarray(grid, dtype=float)
    if not g.size:
        raise ValueError("grid must be nonempty")
    if not _is_grid(g):
        raise ValueError("grid must be one-dimensional, finite and strictly increasing")
    return g


EXACT, BETWEEN, AT_LEAST, AT_MOST, AROUND, OTHER = range(6)  # the kind code of a menu row
_ROWS = {
    Exact: lambda m: (EXACT, m.value, m.value, math.nan),
    Between: lambda m: (BETWEEN, m.lo, m.hi, math.nan),
    AtLeast: lambda m: (AT_LEAST, m.lo, math.inf, math.nan),
    AtMost: lambda m: (AT_MOST, -math.inf, m.hi, math.nan),
    Around: lambda m: (AROUND, math.inf, -math.inf, m.center),
}


def _row(m, number=float) -> tuple | None:
    """(kind code, lo, hi, centre) of a message of exactly a ``_ROWS`` type with
    ``number`` fields, else None."""
    row = _ROWS.get(type(m))
    row = row and row(m)
    return row if row and all(map(isinstance, row[1:], (number,) * 3)) else None


def _message(code, lo, hi, centre) -> Message:
    """The message of a row the arrays alone hold, as the menu builders make it."""
    return Around(centre) if code == AROUND else Exact(lo) if code == EXACT else Between(lo, hi)


class Menu(Sequence):
    """An immutable sequence of messages, held as read-only arrays.

    Row j has a kind code, bounds ``lo[j] <= x <= hi[j]`` ((+inf, -inf) off
    intervals), an "around" centre (else NaN), and a slot: the caller's own
    message, or None when ``menu[j]`` builds it from the arrays. Slices and
    ``+`` with a Menu, list or tuple (on either side) give Menus; like a
    list, a Menu equals a list or tuple of equal messages and is unhashable.
    """

    __slots__ = ("codes", "lo", "hi", "centres", "slots")

    def __init__(self, codes, lo, hi, centres, slots: tuple) -> None:
        arrays = np.asarray(codes, np.int8), *(np.asarray(a, float) for a in (lo, hi, centres))
        for name, value in zip(self.__slots__, arrays):
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "slots", slots)

    @classmethod
    def of(cls, messages: Sequence[Message]) -> Menu:
        """``messages`` as a Menu that keeps each of them by identity; a Menu
        itself. Thresholds, subclasses and non-float fields get code OTHER."""
        if isinstance(messages, Menu):
            return messages
        slots = tuple(messages)
        rows = [_row(m) or (OTHER, math.inf, -math.inf, math.nan) for m in slots]
        return cls(*zip(*rows), slots) if rows else cls((), (), (), (), ())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"a Menu is immutable: cannot set {name!r}")

    def __len__(self) -> int:
        return len(self.slots)

    def __getitem__(self, j):
        if isinstance(j, slice):
            return Menu(self.codes[j], self.lo[j], self.hi[j], self.centres[j], self.slots[j])
        m = self.slots[j]
        return m if m is not None else _message(self.codes[j], self.lo[j], self.hi[j],
                                                self.centres[j])

    def __iter__(self):
        rows = zip(self.slots, self.codes.tolist(), self.lo, self.hi, self.centres)
        return (m if m is not None else _message(code, lo, hi, c) for m, code, lo, hi, c in rows)

    def __add__(self, other):
        if not isinstance(other, (Menu, list, tuple)):
            return NotImplemented
        other = Menu.of(other)
        return Menu(*(np.concatenate((getattr(self, name), getattr(other, name)))
                      for name in self.__slots__[:4]), self.slots + other.slots)

    def __radd__(self, other):
        return Menu.of(other) + self if isinstance(other, (list, tuple)) else NotImplemented

    def __eq__(self, other):  # as lists compare: by identity, then by ==
        listed = isinstance(other, (Menu, list, tuple))
        return list(self) == list(other) if listed else NotImplemented

    __hash__ = None

    def __reduce__(self):  # for copy and pickle, which would set the attributes
        return Menu, (self.codes, self.lo, self.hi, self.centres, self.slots)

    def index(self, m, start: int = 0, stop: int | None = None) -> int:
        """As ``list.index``; a probe of a ``_ROWS`` type is found in the arrays."""
        start, stop, _ = slice(start, stop).indices(len(self))
        row, part, hits = _row(m, (int, float)), slice(start, stop), range(start, stop)
        if row is not None:
            code, lo, hi, centre = row
            equal = (self.codes[part] == code) & (self.lo[part] == lo) & (self.hi[part] == hi)
            if code == AROUND:
                equal &= self.centres[part] == centre
            # the caller's own messages are compared as objects, as a list would
            equal |= np.fromiter((s is not None for s in self.slots[part]), bool, len(equal))
            hits = (np.flatnonzero(equal) + start).tolist()
        for j in hits:  # a hit held by the arrays alone equals an array-kind probe
            if row is not None and self.slots[j] is None or (x := self[j]) is m or x == m:
                return j
        raise ValueError(f"{m!r} is not in the menu")


def precise_alternatives(grid) -> Menu:
    """All precise interval messages on a finite, strictly increasing grid.

    Exact(lo), then every Between(lo, hi) with lo < hi, over grid values in
    order of lo: n(n+1)/2 messages that denote distinct grid subsets. No
    half-line is needed, since at-least v denotes what between v and the
    grid maximum does, and at-most v what between the grid minimum and v does.
    """
    g = _checked_grid(grid)
    index = np.arange(g.size)
    lo, hi = np.nonzero(index[:, None] <= index)  # np.triu_indices(g.size), in a fifth of the time
    return Menu(np.where(lo == hi, EXACT, BETWEEN), g[lo], g[hi], np.full(lo.size, math.nan),
                (None,) * lo.size)


def vague_alternatives(grid, kind: str) -> Menu:
    """One Around per grid point, or the tall/short threshold pair, as a
    Menu; the grid is checked as ``precise_alternatives`` checks it."""
    g = _checked_grid(grid)
    if kind == "around":
        return Menu(np.full(g.size, AROUND), np.full(g.size, math.inf),
                    np.full(g.size, -math.inf), g.copy(), (None,) * g.size)
    if kind == "threshold":
        return Menu.of([TALL, SHORT])
    raise ValueError(f"unknown vague kind {kind!r}")


def _is_number(x) -> bool:
    """Whether ``x`` is a finite int or float within the float range; a bool
    (JSON ``true`` or ``false``) is no number."""
    try:
        return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)
    except OverflowError:  # an int beyond the float range
        return False


_KINDS = {  # wire kind -> (how many numbers it takes, what builds the message from them)
    "exact": (1, Exact),
    "between": (2, Between),
    "at_least": (1, AtLeast),
    "at_most": (1, AtMost),
    "around": (1, Around),
    "tall": (0, lambda: TALL),
    "short": (0, lambda: SHORT),
}
#: the heads of the text form and the kinds they name
_TEXT_HEADS = {"exact": "exact", "exactly": "exact", "between": "between", "atleast": "at_least",
               "atmost": "at_most", "around": "around", "tall": "tall", "short": "short"}


def _message_of(kind, args, spec) -> Message:
    """The one decoder behind both spec forms: ``kind`` must be known and
    ``args`` a list of exactly its number of finite numbers that make a
    message; ``spec`` is the input named in the error otherwise."""
    if not isinstance(kind, str) or kind not in _KINDS:
        raise MessageParseError(f"unknown message kind {kind!r}")
    arity, make = _KINDS[kind]
    if not isinstance(args, (list, tuple)) or len(args) != arity or not all(map(_is_number, args)):
        raise MessageParseError(f"kind {kind!r} expects {arity} finite numeric args, got {spec!r}")
    try:
        return make(*map(float, args))
    except ValueError as e:  # an empty interval
        raise MessageParseError(str(e)) from None


def message_from_json(obj: dict) -> Message:
    """Decode the ``{"kind": ..., "args": [...]}`` wire form; every arg must be
    a finite number, and JSON ``true`` and ``false`` are not numbers."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise MessageParseError(f"not a message object: {obj!r}")
    args = obj.get("args", [])
    return _message_of(obj["kind"], args, args)


def parse_message(text: str) -> Message:
    """Parse a human-typed message spec like "around 40" or "between 10 70".

    Accepted forms: "exactly V", "between LO HI" (an optional "and" is
    fine), "at least V" / "atleast V", "at most V" / "atmost V",
    "around V", "tall", "short". A spec takes exactly the numbers of its
    kind, and every number must be finite.
    """
    tokens = text.strip().lower().replace(",", " ").split()
    if tokens[:1] == ["at"]:
        tokens[:2] = ["".join(tokens[:2])]
    try:
        kind = _TEXT_HEADS[tokens[0]]
        numbers = [float(t) for t in tokens[1:] if t != "and"]
    except (IndexError, KeyError, ValueError):
        raise MessageParseError(f"could not parse {text!r}") from None
    return _message_of(kind, numbers, text)
