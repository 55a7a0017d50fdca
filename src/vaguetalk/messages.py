"""Truth-conditional message semantics on a fixed world grid.

Two families of messages. Precise messages (exact values, closed intervals,
half-lines) have fully fixed truth conditions. Vague messages carry an open
parameter ``t`` that the truth conditions quantify over: a halo half-width
for "around n" (true iff ``|x - n| <= t``) and a threshold for the bare
positives "tall" (true iff ``x >= t``) and "short" (true iff ``x < t``).
Listeners resolve the open parameter with a prior; see ``listener``.
"""

from __future__ import annotations

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


def precise_alternatives(grid) -> list[Message]:
    """All precise interval messages on a finite, strictly increasing grid.

    Every Between(lo, hi) with lo <= hi over grid values, ordered by lo
    then hi; exact messages appear as the lo == hi case. These n(n+1)/2
    messages denote distinct grid subsets, and no half-line is needed:
    at-least v denotes what between v and the grid maximum does, and
    at-most v what between the grid minimum and v does. The result is the
    full precise answer menu, with no explicitly probabilistic messages.

    The grid is checked once, so lo < hi holds for every Between by
    construction; the messages are made without ``__init__`` (and its
    per-message interval check), their fields the grid's ``np.float64``
    values. They are equal to, hash and print as the constructors' messages,
    and stay frozen. Fields are set with ``object.__setattr__``, as the
    frozen ``__init__`` sets them; writing into ``__dict__`` instead gives
    each message a dict of its own and the menu 60% more memory. This path
    skips ``__post_init__``, so a check or normalisation added there must
    be added here too; a test compares this menu with the constructors'
    field by field. Built through the constructors instead, the menu made
    the ``ibr-wide`` benchmark's median op about 1.2x slower
    (``BENCH_literal_passes.json``).
    """
    values = list(_checked_grid(grid))
    menu = []
    new, put = object.__new__, object.__setattr__
    for i, lo in enumerate(values):
        m = new(Exact)
        put(m, "value", lo)
        menu.append(m)
        for hi in values[i + 1:]:
            m = new(Between)
            put(m, "lo", lo)
            put(m, "hi", hi)
            menu.append(m)
    return menu


def vague_alternatives(grid, kind: str) -> list[Message]:
    """The vague message menu for a grid: one Around per grid point, or the
    tall/short threshold pair. The grid is checked as ``precise_alternatives``
    checks it."""
    g = _checked_grid(grid)
    if kind == "around":
        return [Around(v) for v in g]
    if kind == "threshold":
        return [TALL, SHORT]
    raise ValueError(f"unknown vague kind {kind!r}")


_JSON_KINDS = {
    "exact": (Exact, 1),
    "between": (Between, 2),
    "at_least": (AtLeast, 1),
    "at_most": (AtMost, 1),
    "around": (Around, 1),
    "tall": (None, 0),
    "short": (None, 0),
}


def message_from_json(obj: dict) -> Message:
    """Decode the ``{"kind": ..., "args": [...]}`` wire form."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise MessageParseError(f"not a message object: {obj!r}")
    kind = obj["kind"]
    args = obj.get("args", [])
    if kind not in _JSON_KINDS:
        raise MessageParseError(f"unknown message kind {kind!r}")
    cls, arity = _JSON_KINDS[kind]
    if len(args) != arity or not all(isinstance(a, (int, float)) for a in args):
        raise MessageParseError(f"kind {kind!r} expects {arity} numeric args, got {args!r}")
    if kind == "tall":
        return TALL
    if kind == "short":
        return SHORT
    return cls(*[float(a) for a in args])


def parse_message(text: str) -> Message:
    """Parse a human-typed message spec like "around 40" or "between 10 70".

    Accepted forms: "exactly V", "between LO HI" (an optional "and" is
    fine), "at least V" / "atleast V", "at most V" / "atmost V",
    "around V", "tall", "short".
    """
    tokens = text.strip().lower().replace(",", " ").split()
    if not tokens:
        raise MessageParseError("empty message spec")
    head = tokens[0]
    if head == "at" and len(tokens) > 1:
        head = f"at{tokens[1]}"
        tokens = [head] + tokens[2:]
    rest = [t for t in tokens[1:] if t != "and"]

    def num(i: int) -> float:
        try:
            return float(rest[i])
        except (IndexError, ValueError):
            raise MessageParseError(f"could not parse {text!r}") from None

    if head in ("exact", "exactly"):
        return Exact(num(0))
    if head == "between":
        return Between(num(0), num(1))
    if head == "atleast":
        return AtLeast(num(0))
    if head == "atmost":
        return AtMost(num(0))
    if head == "around":
        return Around(num(0))
    if head == "tall" and not rest:
        return TALL
    if head == "short" and not rest:
        return SHORT
    raise MessageParseError(f"could not parse {text!r}")
