"""Ground-truth game analysis by direct search.

Everything here is computed straight from the move rules, with no algebra:
outcome classes by exhaustive search, normal-play heap values and their
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
import weakref
from functools import reduce
from itertools import repeat
from operator import add, lshift, xor
from typing import Callable, Iterable, NamedTuple

from .octal import GameCode, Position, _heap_moves, parse_game_code, period_window

__all__ = [
    "PlayConvention",
    "NORMAL",
    "MISERE",
    "Outcome",
    "BudgetExceededError",
    "InternalError",
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


class InternalError(RuntimeError):
    """A consistency check of the package's own results failed: a bug, not
    bad input or a failed verification."""


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


# Bits per count field of a packed canonical position (see _Game), and the
# token total from which _Game.key refuses a position.
_W = 16
_FIELD = (1 << _W) - 1
_TOKENS = 1 << (_W - 1)


# The default node budget of one outcome search.
_SEARCH_BUDGET = 10**8


def _pack(heaps: tuple[int, ...]) -> int:
    # Canonical heaps, each nonzero, as one int (see _Game).
    return sum([1 << _W * h for h in heaps])


class _Game:
    """Everything the oracle knows about one code, by heap size.

    ``grundy[h]`` is the normal-play value of heap h, which ``grundy``
    extends from the raw moves alone; it grows no canonical form.  The raw
    moves are not kept: code that needs them reads them from the rules.

    The exact canonical form: ``heap[h]`` is 0 when heap h has no move, and
    otherwise the least heap whose canonical options are the same set;
    ``_least`` maps each such set, as a sorted tuple of canonical positions,
    each a sorted tuple of heaps, to that heap.  ``s1`` is the least heap
    with a move (0 while there is none).  Its options hold dead heaps only,
    so it is *1, it is the least canonical heap, and every *1 heap maps to
    it.  A canonical position maps each heap through ``heap``, drops the
    zeros and keeps the *1 tokens by parity only.  Each step is exact under
    both conventions, by induction on heap size: a heap with no move adds no
    move; heaps whose options are equal games are equal games; and
    X + *1 + *1 has the outcome and misere mex value of X (see
    _gminus_rows).

    The searches take a canonical position packed into one int: the count
    of canonical heap h sits in the ``_W``-bit field at bit ``_W * h``, and
    the s1 field holds the parity.  A sum is then an addition.  Each
    operand's s1 field is 0 or 1, so the sum's is 0, 1 or 2, and clearing
    that field's bit of value 2, an AND with ``fold``, folds a *1 pair and
    changes nothing else.  ``key`` packs heap sizes, the one way in: it
    admits the position, extends the game to its heaps and packs it.
    ``join`` adds two packed positions and ``options`` lists the moves of
    one; ``unpack`` reads one back as heaps.

    No field carries into the next: ``key`` refuses a position of
    ``_TOKENS`` (2**15) tokens or more, before it extends the game to the
    position's heaps.  Every canonical heap but s1 has at least two tokens,
    so a field of a sum of two such positions counts fewer than 2**15
    heaps, and neither a move nor the canonical form adds a token.
    ``deltas[h]`` is canonical heap h's packed options less one h token, in
    sorted option order, and ``[]`` for a dead or non-canonical heap;
    ``extend`` packs it as it adds heap h.  A packed option of a position
    is then the position plus a delta, folded.

    The memos: ``outcomes[play]`` maps a packed position to True when the
    player to move wins, and ``wins`` alone reads and fills it; ``gminus``
    maps a packed game x to its rows of _gminus_rows, which ``genus``
    fills.  Dropping the object from ``_games`` frees both.  No game tree
    is kept here.
    """

    __slots__ = ("code", "grundy", "heap", "deltas", "s1", "_least",
                 "outcomes", "gminus")

    def __init__(self, code: GameCode) -> None:
        self.code = code
        self.grundy = [0]
        self.heap = [0]
        self.deltas: list[list[int]] = [[]]
        self.s1 = 0
        self._least: dict[tuple[tuple[int, ...], ...], int] = {}
        self.outcomes: dict[PlayConvention, dict[int, bool]] = {
            play: {} for play in PlayConvention
        }
        self.gminus: dict[int, tuple[list[int], list[int]]] = {}

    def key(self, heaps: tuple[int, ...]) -> int:
        """The packed canonical form of a position given by its heap sizes,
        extending the game to cover them.  Raises ValueError from
        ``_TOKENS`` tokens on, before the game grows.

        >>> game = _game(parse_game_code("0.123"))
        >>> game.unpack(game.key((1, 1, 2, 4, 7)))
        (3, 7)
        """
        if sum(heaps) >= _TOKENS:
            raise ValueError(f"a position of {_TOKENS} tokens or more is too large to pack")
        self.extend(max(heaps, default=0))
        return _pack(self._canonical(heaps))

    def join(self, a: int, b: int) -> int:
        """The packed canonical form of the sum of packed positions a and b.

        >>> game = _game(parse_game_code("0.123"))
        >>> game.unpack(game.join(game.key((1, 7)), game.key((1, 3))))
        (3, 7)
        """
        return (a + b) & self.fold

    @property
    def fold(self) -> int:
        """The mask that clears the bit of value 2 in the s1 field."""
        return ~(2 << _W * self.s1)

    def unpack(self, x: int) -> tuple[int, ...]:
        """The sorted canonical heaps of packed position x."""
        out: list[int] = []
        h = 0
        while x:
            out += [h] * (x & _FIELD)
            x >>= _W
            h += 1
        return tuple(out)

    def options(self, node: int) -> set[int]:
        """The packed canonical positions one move from packed ``node``."""
        deltas, fold = self.deltas, self.fold
        out: set[int] = set()
        x = node
        while x:
            # h is the least heap left in x; drop its field and those below.
            h = ((x & -x).bit_length() - 1) // _W
            x &= -1 << _W * (h + 1)
            out.update([(node + d) & fold for d in deltas[h]])
        return out

    def wins(self, play: PlayConvention, u: int, contexts: list[int],
             budget: int = _SEARCH_BUDGET, cache: dict[int, bool] | None = None) -> bytes:
        """One byte per context w, in order: 1 when the player to move wins
        the sum u + w of packed canonical positions, else 0.

        Each sum is read from ``cache``, by default the memo
        ``outcomes[play]``, and searched only on a miss, in context order.
        The search runs over packed canonical positions, whose outcomes are
        exact (see _Game), so positions that differ only by dead heaps, by
        pairs of *1 heaps or by heaps of equal options are searched and
        stored once.  A position is settled as a win at its first option
        known to lose, so the search builds no further options of it and
        visits none of their subtrees.  Options are built by heap, least
        heap first, in the order of ``deltas``.  Every position it settles
        goes into ``cache``, exactly; positions it never needed are not
        stored.  Raises BudgetExceededError if ``cache`` would grow past
        ``budget`` entries; what it stored up to then stays correct.

        The game must cover the heaps of u and of every context, as ``key``
        makes it do; no move makes a heap larger, so it then covers every
        position the search reaches.
        """
        cache = self.outcomes[play] if cache is None else cache
        get, fold, w, misere = cache.get, self.fold, _W, play is MISERE
        deltas, out = self.deltas, []
        # (position, its options not yet known when it was last looked at)
        stack: list[tuple[int, list[int]]] = []
        for c in contexts:
            node = (u + c) & fold
            won = get(node)
            while won is None:
                # node is not in cache: build its options until one is known to lose.
                pending = []
                x = node
                while x:
                    # h is the least heap left in x; drop its field and those below.
                    h = ((x & -x).bit_length() - 1) // w
                    x &= -1 << w * (h + 1)
                    for d in deltas[h]:
                        option = (node + d) & fold
                        option_won = get(option)
                        if option_won is None:
                            pending.append(option)
                        elif not option_won:
                            won = True
                            break
                    if won:
                        break
                if won is None:
                    if pending:
                        stack.append((node, pending))
                        node = pending.pop()
                        continue
                    # Every canonical heap has a move.
                    won = False if node else misere
                # Store node, then settle each ancestor that this decides.
                while True:
                    if len(cache) >= budget:
                        raise BudgetExceededError(f"search memo would outgrow {budget} entries")
                    cache[node] = won
                    if not stack:
                        break
                    node, pending = stack.pop()
                    # A losing option wins node.  After a winning one, look up node's
                    # next options: a sibling subtree may have settled them meanwhile.
                    while won and pending:
                        child = pending.pop()
                        won = get(child)
                    if won is None:
                        stack.append((node, pending))
                        node = child
                        break
                    won = not won
            out.append(won)
        return bytes(out)

    def extend(self, size: int) -> None:
        """Cover heaps up to ``size``.  Each new heap's canonical options
        are built from its moves, which reach smaller heaps only and are not
        kept, and packed into its deltas."""
        heap = self.heap
        while len(heap) <= size:
            h = len(heap)
            row = tuple(sorted({self._canonical(t) for t in _heap_moves(self.code, h)}))
            if row and not self.s1:
                self.s1 = h
            heap.append(self._least.setdefault(row, h) if row else 0)
            unit = 1 << _W * h
            self.deltas.append([_pack(t) - unit for t in row] if heap[h] == h else [])

    def _canonical(self, heaps: tuple[int, ...]) -> tuple[int, ...]:
        # The canonical form as sorted heaps: the *1 tokens, which sort
        # first, by parity.
        heap = self.heap
        out = sorted([heap[h] for h in heaps if heap[h]])
        n1 = out.count(self.s1)
        return tuple(out[n1 - n1 % 2 :])


# Per code, what the oracle knows of it so far.
_games: dict[GameCode, _Game] = {}


def _game(code: GameCode) -> _Game:
    """The code's game object."""
    game = _games.get(code)
    if game is None:
        game = _games[code] = _Game(code)
    return game


def __getattr__(name: str):
    # Read-only views of the memos under their former names, which the
    # benchmark's tracer still reads as dicts of dicts.
    if name == "_outcome_caches":
        return {(c, p): m for c, g in _games.items() for p, m in g.outcomes.items()}
    if name == "_gminus_ext_caches":
        return {c: g.gminus for c, g in _games.items()}
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _move_rows(code: GameCode, heaps: tuple[int, ...]) -> list:
    """The raw move rows of every heap size up to the largest of ``heaps``,
    indexed by size, for one search's _options."""
    return [()] + [tuple(_heap_moves(code, h)) for h in range(1, max(heaps, default=0) + 1)]


def _options(moves, heaps: tuple[int, ...]) -> set[tuple[int, ...]]:
    # moves maps each heap size of heaps to its raw move row.
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


def position_options(code: GameCode, position: Position) -> set[Position]:
    """All positions reachable in one move."""
    heaps = position.heaps
    moves = {h: tuple(_heap_moves(code, h)) for h in set(heaps)}
    return {Position(t) for t in _options(moves, heaps)}


def _postorder(cache: dict, root, options, value, limit: int | None = None):
    """``cache[root]``, filling ``cache`` without recursion.

    This serves the searches that need every option's value: trees and
    tree sums.  The outcome search stops earlier, in _Game.wins, and the
    genus search fills whole rows, in _gminus_rows.
    Every node below ``root`` not yet in ``cache`` is stored as
    ``value([cache[o] for o in options(node)])`` once all its options are
    stored.  Raises BudgetExceededError if ``cache`` would grow past
    ``limit`` entries; what it stored up to then stays correct.
    """
    stack = [(root, None)]
    while stack:
        node, opts = stack.pop()
        if node in cache:
            continue
        if opts is None:
            opts = options(node)
            pending = [(o, None) for o in opts if o not in cache]
            if pending:
                stack.append((node, opts))
                stack += pending
                continue
        if limit is not None and len(cache) >= limit:
            raise BudgetExceededError(f"search memo would outgrow {limit} entries")
        cache[node] = value([cache[o] for o in opts])
    return cache[root]


def outcome(
    code: GameCode,
    position: Position,
    play: PlayConvention,
    budget: int = _SEARCH_BUDGET,
) -> Outcome:
    """Outcome class of ``position`` by exhaustive search.

    With no moves available the player to move has lost under normal play and
    won under misere play, so the empty position is P normal, N misere.
    Raises BudgetExceededError if the memo table would outgrow ``budget``,
    and ValueError for a position too large to pack (see _Game).
    """
    game = _game(code)
    won = game.wins(play, game.key(position.heaps), [0], budget)[0]
    return Outcome.N if won else Outcome.P


# ---------------------------------------------------------------------------
# normal play: heap values and their period


def grundy(code: GameCode, size: int) -> int:
    """Normal-play value of a single heap (0 for the empty heap)."""
    if size < 0:
        raise ValueError("heap size must be nonnegative")
    values = _game(code).grundy
    while len(values) <= size:
        moves = _heap_moves(code, len(values))
        values.append(_mex(reduce(xor, [values[x] for x in t], 0) for t in moves))
    return values[size]


def nim_value(code: GameCode, position: Position) -> int:
    """Normal-play value of a position: xor of its heap values."""
    g = 0
    for h in position.heaps:
        g ^= grundy(code, h)
    return g


def normal_period(code: GameCode, r0_max: int = 200) -> tuple[int, int] | None:
    """Smallest certified (preperiod, period) of the heap-value sequence.

    A pair (r0, p) is certified once G(r + p) = G(r) holds for every r from
    r0 to octal.period_window(code, r0, p); values beyond any heap of that
    range can then never break the pattern.  Smallest period wins, then
    smallest preperiod.  Returns None if nothing certifies with r0 <= r0_max.
    """
    for p in range(1, r0_max + 1):
        for r0 in range(1, r0_max + 1):
            hi = period_window(code, r0, p)
            if all(grundy(code, r + p) == grundy(code, r) for r in range(r0, hi + 1)):
                return (r0, p)
    return None


# ---------------------------------------------------------------------------
# game trees

# Trees are hash-consed: one object per distinct option set.  Equality is then
# identity, so comparing two trees never walks them; a structural comparison
# could take exponential time on a shared-subtree DAG, and recurse past the
# interpreter's stack on a deep chain.  Trees are held weakly: only live ones.
_tree_intern: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _misere_mex(values: list[int]) -> int:
    # The endgame is a win for the player to move under misere play.
    return _mex(values) if values else 1


class GameTree:
    """An abstract game: nothing but a finite set of option subtrees.

    Constructing a tree with the options of a live one returns that tree, so
    equal trees are the same object, and the identity hash serves as a dict
    key at any depth.  The normal-play and misere mex values are computed
    once, from the options, which carry their own.
    """

    __slots__ = ("options", "_grundy", "_gminus", "__weakref__")

    def __new__(cls, options: Iterable["GameTree"] = ()) -> "GameTree":
        options = frozenset(options)
        tree = _tree_intern.get(options)
        if tree is None:
            tree = _tree_intern[options] = object.__new__(cls)
            object.__setattr__(tree, "options", options)
            object.__setattr__(tree, "_grundy", _mex([o._grundy for o in options]))
            object.__setattr__(tree, "_gminus", _misere_mex([o._gminus for o in options]))
        return tree

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("GameTree is immutable")

    def __repr__(self) -> str:
        return f"GameTree({len(self.options)} options)"


ENDGAME_TREE = GameTree()


def nim_heap_tree(size: int) -> GameTree:
    """The tree of a single nim heap: *size."""
    if size < 0:
        raise ValueError("nim heap size must be nonnegative")
    tree = ENDGAME_TREE
    for _ in range(size):
        tree = GameTree(tree.options | {tree})  # *(k + 1) = {*0, ..., *k}
    return tree


def _sum_options(pair: tuple[GameTree, GameTree]) -> list[tuple[GameTree, GameTree]]:
    a, b = pair
    return [(ao, b) for ao in a.options] + [(a, bo) for bo in b.options]


def tree_sum(a: GameTree, b: GameTree) -> GameTree:
    """Disjunctive sum: move in one component, the other rides along."""
    return _postorder({}, (a, b), _sum_options, GameTree)


def tree_of_position(code: GameCode, position: Position, budget: int = 10**6) -> GameTree:
    """Unfold a heap position into its full game tree, with a memo of raw
    sorted positions freed on return.

    Raises BudgetExceededError if more than ``budget`` distinct positions
    would need unfolding.
    """
    heaps = position.heaps
    moves = _move_rows(code, heaps)
    return _postorder({}, heaps, lambda node: _options(moves, node), GameTree, budget)


def tree_grundy(tree: GameTree) -> int:
    """Normal-play value of an abstract game tree."""
    return tree._grundy


def misere_gminus(tree: GameTree) -> int:
    """Misere mex value: 1 at the endgame, otherwise mex over the options;
    0 exactly at a misere P-position."""
    return tree._gminus


def tree_outcome(tree: GameTree, play: PlayConvention) -> Outcome:
    """Outcome class of an abstract game tree."""
    value = tree._gminus if play is MISERE else tree._grundy
    return Outcome.P if value == 0 else Outcome.N


# ---------------------------------------------------------------------------
# genus symbols


class GenusSymbol(NamedTuple):
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
    for k in range(1, len(values) - 2):
        if values[k + 1] == values[k - 1] and values[k + 2] == values[k]:
            return tuple(values[: k + 1])
    raise GenusTailError(f"{what}: no settled tail within {cap} exponents")


# Bits per column of the packed rows that _gminus_rows starts from.
_FIELD_BITS = 16


def _gminus_rows(memo: dict, root, x_options: Callable,
                 length: int) -> tuple[list[int], list[int]]:
    """The rows of the game ``root``, computed without building sums:
    ``rows[n1][n2]`` is the misere mex value of root plus n1 copies of *1
    and n2 copies of *2, for n1 in {0, 1} and n2 below at least ``length``.

    Only n1 mod 2 is kept, because g-(X + *1 + *1) = g-(X) for every game
    X.  By induction on X:

    - The options of X + *1 + *1 are X' + *1 + *1, of value g-(X') by
      induction, and X + *1.
    - X is an option of X + *1, so g-(X + *1) != g-(X).
    - If X has options, g-(X) = mex{g-(X')}.  One more option value that
      differs from that mex leaves the mex unchanged.
    - If X is the endgame, g-(*1 + *1) = mex{g-(*1)} = mex{0} = 1 = g-(0).

    The options of (x, n1, n2) are (x', n1 ^ flip, n2) for each option
    (x', flip) of x, then (x, 0, n2) when n1 is 1, and (x, 0, n2 - 1) and
    (x, 1, n2 - 1) when n2 > 0.  So one postorder over the distinct games x
    suffices: once every option of x has its rows in ``memo``, one loop
    fills x's rows, n2 upward and n1 = 0 before n1 = 1 at each n2.

    The loop reads the option rows packed into ints: column n2 owns a field
    of ``width`` bits, and value v sets bit v of that field.  One OR per
    option (x', flip) of its row n1 ^ flip gives the values x sees at parity
    n1 in every column at once.  At each n2 the loop takes that column's
    field, adds the bits of x's two values at n2 - 1 (and of g0 for n1 = 1),
    and the lowest clear bit is the mex.  The width starts at _FIELD_BITS
    and doubles when a value reaches width - 1.  The packed rows are a view
    local to one call: x's are built as its rows are filled, those of rows
    from an earlier call or from before a doubling are packed from ``memo``
    when first read, and all are freed on return.  The rows in ``memo`` are
    exact whatever the width, so a width change discards no row.

    ``x_options(x)``, called once per x whose rows are missing or short,
    lists x's options as pairs (x', flip): x' plus flip (0 or 1) copies of
    *1.  ``memo`` maps x to its rows; a row shorter than ``length`` is
    extended in place, so a later call with fewer copies of *2 is a hit.
    """
    get, unseen = memo.get, ((), ())
    width, packed = _FIELD_BITS, {}

    def pack(t) -> tuple[int, int]:
        # t's rows in memo to column length - 1, packed at the width they need.
        nonlocal width
        rows = [row[:length] for row in memo[t]]
        top = max(map(max, rows))
        while top >= width - 1:
            width *= 2
            packed.clear()
        # The sum of 1 << (n2 * width + v) over the columns n2 of each row.
        offsets = range(0, length * width, width)
        packed[t] = tuple(sum(map(lshift, repeat(1), map(add, offsets, row))) for row in rows)
        return packed[t]

    stack = [(root, None)]
    while stack:
        x, opts = stack.pop()
        if len(get(x, unseen)[0]) >= length:
            continue
        if opts is None:
            opts = x_options(x)
            pending = [(t, None) for t, _ in opts if len(get(t, unseen)[0]) < length]
            if pending:
                stack.append((x, opts))
                stack += pending
                continue
        # The OR of the option rows that each n1 of x reads; packing an
        # option may double the width, and then the OR starts again.  The
        # endgame has no option, but its value at n2 = 0 is 1, as if it had
        # one of value 0.
        w = 0
        while w != width:
            w, seen0, seen1 = width, 0 if opts else 1, 0
            for t, flip in opts:
                r0, r1 = packed.get(t) or pack(t)
                if flip:
                    r0, r1 = r1, r0
                seen0 |= r0
                seen1 |= r1
        row0, row1 = memo.setdefault(x, ([], []))
        start, mask = len(row0), (1 << w) - 1
        # Bits of the values at n2 - 1, which every state at n2 has as options.
        prev = 1 << row0[-1] | 1 << row1[-1] if start else 0
        p0 = p1 = 0
        for off in range(start * w, length * w, w):
            # b0 and b1 are the lowest clear bits, 1 << g0 and 1 << g1.
            s = seen0 >> off & mask | prev
            b0 = ~s & s + 1
            s = seen1 >> off & mask | prev | b0
            b1 = ~s & s + 1
            row0.append(b0.bit_length() - 1)
            row1.append(b1.bit_length() - 1)
            prev = b0 | b1
            p0 |= b0 << off
            p1 |= b1 << off
        # Whole rows that fit their fields are packed already.
        if not start and max(max(row0), max(row1)) < w - 1:
            packed[x] = p0, p1
    return memo[root]


def _genus_symbol(g_plus: int, memo: dict, x, n1: int, x_options: Callable,
                  cap: int, what: str) -> GenusSymbol:
    # The exponents are the misere values of x + n1 *1 plus 0 .. cap + 1
    # copies of *2, by _gminus_rows; for cap < -1 nothing is searched.
    length = cap + 2
    values = _gminus_rows(memo, x, x_options, length)[n1][:length] if length > 0 else []
    return GenusSymbol(g_plus, _trim_exponents(values, cap, what))


def genus_of_tree(tree: GameTree, cap: int = 16) -> GenusSymbol:
    """Genus symbol of an abstract game tree, by _gminus_rows over its
    subtrees, with a memo freed on return."""
    # A move in a tree sets no *1 aside: every flip is 0.
    return _genus_symbol(
        tree._grundy, {}, tree, 0, lambda t: [(o, 0) for o in t.options], cap, "tree genus",
    )


def genus(code: GameCode, position: Position, cap: int = 16) -> GenusSymbol:
    """Genus symbol of a heap position, computed by direct search in the
    game's memo ``gminus``.  Raises ValueError for a position too large to
    pack (see _Game).

    The search's x is packed canonical (see _Game, whose reductions keep the
    value) with the game's own *1 heaps moved into n1.  So x holds no *1, an
    option's s1 field is its moved heap's *1, 0 or 1, and one bit test
    splits it off into n1.
    """
    # Packed first, so that a position too large to pack is refused before
    # the nim values run up to its heaps.
    game = _game(code)
    root = game.key(position.heaps)
    one = 1 << _W * game.s1
    n1 = 1 if root & one else 0
    return _genus_symbol(
        nim_value(code, position), game.gminus, root - n1 * one, n1,
        lambda x: [(t - one, 1) if t & one else (t, 0) for t in game.options(x)],
        cap, f"genus of {position}",
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
