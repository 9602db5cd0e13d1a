"""Ground-truth game analysis by direct search.

Everything here is computed straight from the move rules, with no algebra:
outcome classes by brute-force recursion, normal-play heap values and their
eventual period, game trees, the misere mex value, genus symbols, and the
hand-made outcome rule for 0.77 (Kayles).  The rest of the package is checked
against these slower but independently trustworthy routines.

>>> code = parse_game_code("0.123")
>>> outcome(code, Position.of(2), MISERE).name
'N'
>>> str(genus(code, Position.of(6)))
'0^{02}'
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .octal import EMPTY, GameCode, Position, moves_from_heap, parse_game_code

__all__ = [
    "PlayConvention",
    "NORMAL",
    "MISERE",
    "Outcome",
    "BudgetExceededError",
    "position_options",
    "outcome",
    "grundy",
    "nim_value",
    "normal_period",
    "GameTree",
    "ENDGAME_TREE",
    "nim_heap_tree",
    "tree_sum",
    "tree_of_position",
    "tree_grundy",
    "misere_gminus",
    "tree_outcome",
    "GenusSymbol",
    "GenusTailError",
    "genus",
    "genus_of_tree",
    "is_wild_genus",
    "KAYLES",
    "sibert_conway_outcome",
]


class PlayConvention(enum.Enum):
    """Who wins when the last move has been made."""

    NORMAL = "normal"
    MISERE = "misere"


NORMAL = PlayConvention.NORMAL
MISERE = PlayConvention.MISERE


class Outcome(enum.Enum):
    """P: previous player (the one who just moved) wins.  N: next player wins."""

    P = "P"
    N = "N"


class BudgetExceededError(RuntimeError):
    """A search exceeded its node budget before finishing."""


class GenusTailError(RuntimeError):
    """The genus exponent sequence did not settle within the computed prefix."""


def _mex(values: Iterable[int]) -> int:
    seen = set(values)
    m = 0
    while m in seen:
        m += 1
    return m


# ---------------------------------------------------------------------------
# options and outcomes


# Per code, entry f lists the replacement tuples of a heap of size f.
_move_tables: dict[GameCode, list[tuple[tuple[int, ...], ...]]] = {}


def _move_table(code: GameCode, size: int) -> list[tuple[tuple[int, ...], ...]]:
    """The code's move table, extended to cover heaps up to ``size``."""
    table = _move_tables.setdefault(code, [()])
    while len(table) <= size:
        moves = moves_from_heap(code, len(table))
        table.append(tuple(sorted(t.heaps for t in moves)))
    return table


def _options(moves: list, heaps: tuple[int, ...]) -> set[tuple[int, ...]]:
    # heaps is sorted, so equal sizes are adjacent and give the same options.
    out: set[tuple[int, ...]] = set()
    prev = 0
    for i, size in enumerate(heaps):
        if size == prev:
            continue
        prev = size
        rest = heaps[:i] + heaps[i + 1 :]
        for repl in moves[size]:
            out.add(tuple(sorted(rest + repl)))
    return out


def _tuple_options(code: GameCode, heaps: tuple[int, ...]) -> set[tuple[int, ...]]:
    return _options(_move_table(code, heaps[-1] if heaps else 0), heaps)


def position_options(code: GameCode, position: Position) -> set[Position]:
    """All positions reachable in one move."""
    return {Position(t) for t in _tuple_options(code, position.heaps)}


# Per (code, play): sorted heap tuple -> True when the player to move wins.
_outcome_caches: dict[tuple[GameCode, PlayConvention], dict[tuple[int, ...], bool]] = {}


def _solve(
    code: GameCode,
    cache: dict[tuple[int, ...], bool],
    misere: bool,
    heaps: tuple[int, ...],
    budget: int,
) -> bool:
    """Whether the player to move wins the sorted position ``heaps``.

    Fills ``cache`` with every position the search reaches; raises
    BudgetExceededError if it would grow past ``budget`` entries.
    """
    moves = _move_table(code, heaps[-1] if heaps else 0)
    stack: list[tuple[tuple[int, ...], set[tuple[int, ...]] | None]] = [(heaps, None)]
    while stack:
        node, opts = stack.pop()
        if node in cache:
            continue
        if opts is None:
            opts = _options(moves, node)
            pending = [o for o in opts if o not in cache]
            if pending:
                stack.append((node, opts))
                for o in pending:
                    stack.append((o, None))
                continue
        if len(cache) >= budget:
            raise BudgetExceededError(f"outcome search exceeded {budget} nodes")
        if not opts:
            cache[node] = misere
        else:
            cache[node] = any(not cache[o] for o in opts)
    return cache[heaps]


def outcome(
    code: GameCode,
    position: Position,
    play: PlayConvention,
    budget: int = 10**8,
) -> Outcome:
    """Outcome class of ``position`` by exhaustive search.

    With no moves available the player to move has lost under normal play and
    won under misere play, so the empty position is P normal, N misere.
    Raises BudgetExceededError if the memo table would outgrow ``budget``.
    """
    cache = _outcome_caches.setdefault((code, play), {})
    won = _solve(code, cache, play is MISERE, position.heaps, budget)
    return Outcome.N if won else Outcome.P


# ---------------------------------------------------------------------------
# normal play: heap values and their period

_grundy_tables: dict[GameCode, list[int]] = {}


def grundy(code: GameCode, size: int) -> int:
    """Normal-play value of a single heap (0 for the empty heap)."""
    if size < 0:
        raise ValueError("heap size must be nonnegative")
    table = _grundy_tables.setdefault(code, [0])
    while len(table) <= size:
        f = len(table)
        vals = set()
        for repl in _move_table(code, f)[f]:
            g = 0
            for h in repl:
                g ^= table[h]
            vals.add(g)
        table.append(_mex(vals))
    return table[size]


def nim_value(code: GameCode, position: Position) -> int:
    """Normal-play value of a position: xor of its heap values."""
    g = 0
    for h in position.heaps:
        g ^= grundy(code, h)
    return g


def normal_period(code: GameCode, r0_max: int = 200) -> tuple[int, int] | None:
    """Smallest certified (preperiod, period) of the heap-value sequence.

    A pair (r0, p) is certified once G(r + p) = G(r) holds for every r with
    r0 <= r < 2*r0 + p + places; values beyond any heap of that range can then
    never break the pattern.  Smallest period wins, then smallest preperiod.
    Returns None if nothing certifies with r0 <= r0_max.
    """
    places = code.places
    for p in range(1, r0_max + 1):
        for r0 in range(1, r0_max + 1):
            hi = 2 * r0 + p + places
            if all(grundy(code, r + p) == grundy(code, r) for r in range(r0, hi)):
                return (r0, p)
    return None


# ---------------------------------------------------------------------------
# game trees

_tree_seq = [0]


class GameTree:
    """An abstract game: nothing but a finite set of option subtrees.

    Equality is structural.  The hash is computed once at construction so
    deep trees stay cheap to use as dict keys.
    """

    __slots__ = ("options", "_hash")

    def __init__(self, options: Iterable["GameTree"] = ()):
        object.__setattr__(self, "options", frozenset(options))
        object.__setattr__(self, "_hash", hash(self.options))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, GameTree):
            return NotImplemented
        return self._hash == other._hash and self.options == other.options

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("GameTree is immutable")

    @property
    def is_endgame(self) -> bool:
        return not self.options

    def __repr__(self) -> str:
        return f"GameTree({len(self.options)} options)"


ENDGAME_TREE = GameTree()

# Equality on trees is structural, and a shared-subtree DAG has exponentially
# many root-to-leaf paths, so comparing two equal-but-distinct trees can blow
# up.  Every factory below therefore interns its result: equal values become
# one object and comparisons stop at the identity check.
_tree_intern: dict[GameTree, GameTree] = {ENDGAME_TREE: ENDGAME_TREE}


def _interned(tree: GameTree) -> GameTree:
    return _tree_intern.setdefault(tree, tree)


@lru_cache(maxsize=None)
def nim_heap_tree(size: int) -> GameTree:
    """The tree of a single nim heap: *size."""
    if size < 0:
        raise ValueError("nim heap size must be nonnegative")
    return _interned(GameTree(nim_heap_tree(j) for j in range(size)))


_tree_sum_cache: dict[tuple[GameTree, GameTree], GameTree] = {}


def tree_sum(a: GameTree, b: GameTree) -> GameTree:
    """Disjunctive sum: move in one component, the other rides along."""
    key = (a, b)
    got = _tree_sum_cache.get(key)
    if got is not None:
        return got
    opts = [tree_sum(ao, b) for ao in a.options]
    opts.extend(tree_sum(a, bo) for bo in b.options)
    result = _interned(GameTree(opts))
    _tree_sum_cache[key] = result
    _tree_sum_cache[(b, a)] = result
    return result


_tree_of_caches: dict[GameCode, dict[tuple[int, ...], GameTree]] = {}


def tree_of_position(code: GameCode, position: Position, budget: int = 10**6) -> GameTree:
    """Unfold a heap position into its full game tree.

    Raises BudgetExceededError if more than ``budget`` distinct positions
    would need unfolding.
    """
    cache = _tree_of_caches.setdefault(code, {})
    fresh = 0
    stack: list[tuple[tuple[int, ...], set[tuple[int, ...]] | None]] = [
        (position.heaps, None)
    ]
    while stack:
        node, opts = stack.pop()
        if node in cache:
            continue
        if opts is None:
            fresh += 1
            if fresh > budget:
                raise BudgetExceededError(f"tree unfolding exceeded {budget} positions")
            opts = _tuple_options(code, node)
            pending = [o for o in opts if o not in cache]
            if pending:
                stack.append((node, opts))
                for o in pending:
                    stack.append((o, None))
                continue
        cache[node] = _interned(GameTree(cache[o] for o in opts))
    return cache[position.heaps]


_tree_grundy_cache: dict[GameTree, int] = {}
_tree_gminus_cache: dict[GameTree, int] = {}


def tree_grundy(tree: GameTree) -> int:
    """Normal-play value of an abstract game tree."""
    got = _tree_grundy_cache.get(tree)
    if got is None:
        got = _mex(tree_grundy(o) for o in tree.options)
        _tree_grundy_cache[tree] = got
    return got


def misere_gminus(tree: GameTree) -> int:
    """Misere mex value: 1 at the endgame, otherwise mex over the options.

    A tree is a misere P-position exactly when this value is 0.
    """
    got = _tree_gminus_cache.get(tree)
    if got is None:
        if tree.is_endgame:
            got = 1
        else:
            got = _mex(misere_gminus(o) for o in tree.options)
        _tree_gminus_cache[tree] = got
    return got


def tree_outcome(tree: GameTree, play: PlayConvention) -> Outcome:
    """Outcome class of an abstract game tree."""
    if play is MISERE:
        return Outcome.P if misere_gminus(tree) == 0 else Outcome.N
    return Outcome.P if tree_grundy(tree) == 0 else Outcome.N


# ---------------------------------------------------------------------------
# genus symbols


@dataclass(frozen=True)
class GenusSymbol:
    """Normal-play value plus the misere values of the position with 0, 1, 2,
    ... extra two-token nim heaps added, trimmed to the shortest prefix that
    pins down the eventual alternating tail."""

    g_plus: int
    exponents: tuple[int, ...]

    def __str__(self) -> str:
        sup = "".join(str(e) if e < 10 else f"[{e}]" for e in self.exponents)
        return f"{self.g_plus}^{{{sup}}}"


_TAME_GENERIC = {(0, (1, 2, 0)), (1, (0, 3, 1)), (0, (0, 2)), (1, (1, 3))}


def is_wild_genus(symbol: GenusSymbol) -> bool:
    """False for the genus of any sum of nim heaps, True otherwise."""
    key = (symbol.g_plus, symbol.exponents)
    if key in _TAME_GENERIC:
        return False
    g = symbol.g_plus
    return not (g >= 2 and symbol.exponents == (g, g ^ 2))


def _trim_exponents(values: list[int], cap: int, what: str) -> tuple[int, ...]:
    # Stored prefix is g_0..g_k for the smallest k >= 1 such that the next two
    # values repeat g_{k-1}, g_k; from there the tail alternates forever.
    for k in range(1, len(values) - 2 + 1):
        if values[k + 1] == values[k - 1] and values[k + 2] == values[k]:
            return tuple(values[: k + 1])
    raise GenusTailError(f"{what}: no settled tail within {cap} exponents")


def genus_of_tree(tree: GameTree, cap: int = 16) -> GenusSymbol:
    """Genus symbol of an abstract game tree."""
    values = []
    t = tree
    star2 = nim_heap_tree(2)
    for _ in range(cap + 2):
        values.append(misere_gminus(t))
        t = tree_sum(t, star2)
    return GenusSymbol(tree_grundy(tree), _trim_exponents(values, cap, "tree genus"))


_gminus_ext_caches: dict[GameCode, dict[tuple[tuple[int, ...], int, int], int]] = {}


def _gminus_ext(code: GameCode, heaps: tuple[int, ...], n2: int) -> int:
    """Misere mex value of (heaps + n1 one-token nim heaps + n2 two-token nim
    heaps), computed without building trees.  State key: (heaps, n1, n2)."""
    cache = _gminus_ext_caches.setdefault(code, {})
    # Many states share their heaps; their heap options are found once.
    heap_options: dict[tuple[int, ...], set[tuple[int, ...]]] = {}
    stack: list[tuple[tuple[tuple[int, ...], int, int], list | None]] = [
        ((heaps, 0, n2), None)
    ]
    while stack:
        node, opts = stack.pop()
        if node in cache:
            continue
        hs, n1, m2 = node
        if opts is None:
            moved = heap_options.get(hs)
            if moved is None:
                moved = heap_options[hs] = _tuple_options(code, hs)
            opts = [(t, n1, m2) for t in moved]
            if n1:
                opts.append((hs, n1 - 1, m2))
            if m2:
                opts.append((hs, n1 + 1, m2 - 1))
                opts.append((hs, n1, m2 - 1))
            pending = [o for o in opts if o not in cache]
            if pending:
                stack.append((node, opts))
                stack.extend((o, None) for o in pending)
                continue
        if not opts:
            cache[node] = 1
        else:
            cache[node] = _mex(cache[o] for o in opts)
    return cache[(heaps, 0, n2)]


def genus(code: GameCode, position: Position, cap: int = 16) -> GenusSymbol:
    """Genus symbol of a heap position, computed by direct search."""
    values = [_gminus_ext(code, position.heaps, n2) for n2 in range(cap + 2)]
    return GenusSymbol(
        nim_value(code, position), _trim_exponents(values, cap, f"genus of {position}")
    )


# ---------------------------------------------------------------------------
# Kayles: the classical closed-form outcome rule

KAYLES = parse_game_code("0.77")

# Each pattern constrains the multiset of heap sizes.  E(S)/D(S) ask for an
# even/odd count of heaps with sizes drawn from S; a bare size asks for exactly
# one heap of that size.  A position matches a pattern only if every heap is
# covered by one of its factors.
_PN_PATTERNS = (
    (("E", (5,)), ("E", (4, 1))),
    (("E", (17, 12, 9)), ("E", (20, 4, 1))),
    (("1", (25,)), ("E", (17, 12, 9)), ("D", (20, 4, 1))),
)
_NP_PATTERNS = (
    (("D", (5,)), ("D", (4, 1))),
    (("E", (5,)), ("D", (4, 1))),
    (("D", (9,)), ("E", (4, 1))),
    (("1", (12,)), ("E", (4, 1))),
    (("E", (17, 12, 9)), ("D", (20, 4, 1))),
    (("1", (25,)), ("D", (9,)), ("D", (4, 1))),
)


def _matches(position: Position, pattern: tuple) -> bool:
    allowed = set()
    for _, sizes in pattern:
        allowed.update(sizes)
    if any(h not in allowed for h in position.heaps):
        return False
    for kind, sizes in pattern:
        count = sum(1 for h in position.heaps if h in sizes)
        if kind == "E" and count % 2 != 0:
            return False
        if kind == "D" and count % 2 != 1:
            return False
        if kind == "1" and count != 1:
            return False
    return True


def sibert_conway_outcome(position: Position) -> tuple[Outcome, Outcome]:
    """(normal, misere) outcome of a Kayles position by the closed-form rule.

    The normal outcome comes from the xor of heap values.  The misere outcome
    flips it exactly on the exceptional pattern families; everywhere else the
    two conventions agree.
    """
    normal = Outcome.P if nim_value(KAYLES, position) == 0 else Outcome.N
    flipped = Outcome.N if normal is Outcome.P else Outcome.P
    if any(_matches(position, pat) for pat in _PN_PATTERNS):
        return (normal, flipped)
    if any(_matches(position, pat) for pat in _NP_PATTERNS):
        return (normal, flipped)
    return (normal, normal)
