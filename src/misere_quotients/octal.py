"""Octal game rules: parsing game codes and generating single-heap moves.

A game code like "0.123" assigns an octal digit to each number of removed
tokens.  Digit k (k >= 1 is the k-th digit after the point) is a bit mask:

    bit 1: remove k tokens taking a whole heap (heap size exactly k)
    bit 2: remove k tokens leaving one nonempty heap
    bit 4: remove k tokens leaving two nonempty heaps

The digit before the point governs removing zero tokens; only bit 4 (pure
split) is meaningful there, so the pre-point digit must be 0 or 4.  Digits
past the last written one are 0: no move removes more tokens than the code
has places.
"""

from __future__ import annotations

import re
from functools import lru_cache, total_ordering
from typing import Iterable, Iterator, NamedTuple


class GameCodeError(ValueError):
    """Raised for malformed or unsupported game code strings."""


class GameCode(NamedTuple):
    """A parsed octal game code."""

    pre_point_digit: int
    post_point_digits: tuple[int, ...]

    @property
    def places(self) -> int:
        """Number of digits after the point."""
        return len(self.post_point_digits)

    def digit(self, k: int) -> int:
        """The digit governing removal of exactly k tokens (0 beyond the code)."""
        if k == 0:
            return self.pre_point_digit
        if 1 <= k <= len(self.post_point_digits):
            return self.post_point_digits[k - 1]
        return 0

    def __str__(self) -> str:
        return "%d.%s" % (
            self.pre_point_digit,
            "".join(str(d) for d in self.post_point_digits),
        )


def period_window(code: GameCode, r0: int, p: int) -> int:
    """The last heap, 2*r0 + p + places - 1, that a period (r0, p) is checked
    to: nim values that repeat that far repeat forever, by the octal
    periodicity theorem, and so does a quotient verified that far."""
    return 2 * r0 + p + code.places - 1


_CODE_RE = re.compile(r"^([0-7])\.([0-7]+)$")


def parse_game_code(text: str) -> GameCode:
    """Parse a game code string of the form d.ddd with octal digits."""
    m = _CODE_RE.match(text.strip())
    if m is None:
        raise GameCodeError("malformed game code: %r" % (text,))
    pre = int(m.group(1))
    post = tuple(int(ch) for ch in m.group(2))
    if pre not in (0, 4):
        raise GameCodeError(
            "pre-point digit must be 0 or 4, got %d in %r" % (pre, text)
        )
    if pre == 0 and all(d == 0 for d in post):
        raise GameCodeError("game code %r permits no move at all" % (text,))
    return GameCode(pre, post)


class _Frozen:
    """Base of the package's immutable values that are not NamedTuples: a
    subclass validates in ``__init__`` (setting its slots with
    ``object.__setattr__``) or keeps a cache slot beside its fields.
    Equality, hashing, repr and pickling read only the slots named in
    ``_fields``, as a frozen dataclass would."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _astuple(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        return "%s(%s)" % (
            self.__class__.__qualname__,
            ", ".join("%s=%r" % (f, getattr(self, f)) for f in self._fields),
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # The default protocol would restore the slots through __setattr__.
        return self.__class__, self._astuple()


@total_ordering
class Position(_Frozen):
    """A finite multiset of heap sizes, the canonical form of a game position.

    Stored as a sorted tuple; the empty position (no heaps) is the endgame.
    Multiplication of positions is disjoint union of their heaps.
    """

    __slots__ = _fields = ("heaps",)

    def __init__(self, heaps: tuple[int, ...] = ()) -> None:
        if any(h < 1 for h in heaps):
            raise ValueError("heap sizes must be >= 1: %r" % (heaps,))
        object.__setattr__(self, "heaps", tuple(sorted(heaps)))

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self.heaps < other.heaps
        return NotImplemented

    @classmethod
    def of(cls, *heaps: int) -> "Position":
        return cls(tuple(heaps))

    @classmethod
    def from_heaps(cls, heaps: Iterable[int]) -> "Position":
        return cls(tuple(heaps))

    def __mul__(self, other: "Position") -> "Position":
        return Position(self.heaps + other.heaps)

    def is_empty(self) -> bool:
        return not self.heaps

    def __len__(self) -> int:
        return len(self.heaps)

    def __str__(self) -> str:
        return "[" + ",".join(str(h) for h in self.heaps) + "]"


EMPTY = Position()


def _heap_moves(code: GameCode, f: int) -> Iterator[tuple[int, ...]]:
    """The replacement heap tuples of each legal move from a heap of size f,
    ascending, generated as they are read; none when the heap has no move.

    Splits are unordered: a remainder s yields pairs (a, s-a) for
    1 <= a <= s // 2.  No move repeats, since the parts of a move removing
    k tokens sum to f - k.  In order, ``()`` comes first, then per least
    part a, ``(a,)`` and the pairs ``(a, b)`` by ascending b (descending k).
    """
    if f < 1:
        raise ValueError("heap size must be >= 1, got %d" % (f,))
    # Digits past the code's places are 0, so no k beyond them moves.
    digits = (code.pre_point_digit,) + code.post_point_digits
    ks = range(min(f, code.places), -1, -1)
    if f <= code.places and digits[f] & 1:
        yield ()
    # By descending k, the single parts and the split remainders ascend; a
    # pair's least part is at most half the largest remainder.
    singles = [f - k for k in ks if digits[k] & 2 and k < f]
    rests = [f - k for k in ks if digits[k] & 4 and k < f - 1]
    top = rests[-1] // 2 if rests else 0
    for a in range(1, top + 1):
        if a in singles:
            yield (a,)
        for r in rests:
            if r >= 2 * a:
                yield (a, r - a)
    for a in singles:
        if a > top:
            yield (a,)


@lru_cache(maxsize=None)
def moves_from_heap(code: GameCode, f: int) -> frozenset[Position]:
    """All replacement multisets reachable by one legal move from a heap of size f.

    Returns the empty set when the heap has no move.
    """
    return frozenset(Position(t) for t in _heap_moves(code, f))
