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
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import xor
from typing import Iterable

from .octal import GameCode, Position, _heap_moves, parse_game_code

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


class _Game:
    """Everything the oracle knows about one code, by heap size.

    ``moves[h]`` holds the sorted replacement tuples of heap h and
    ``grundy[h]`` its normal-play value.

    The exact canonical form: ``heap[h]`` is 0 when heap h has no move, and
    otherwise the least heap whose canonical options are the same set;
    ``rows[h]`` is that set, as a sorted tuple of canonical positions.
    ``s1`` is the least heap with a move (0 while there is none).  Its
    options hold dead heaps only, so it is *1, it is the least canonical
    heap, and every *1 heap maps to it.  A canonical position maps each heap
    through ``heap``, drops the zeros and keeps the *1 tokens, which sort
    first, by parity only.  Each step is exact under both conventions, by
    induction on heap size: a heap with no move adds no move; heaps whose
    options are equal games are equal games; and X + *1 + *1 has the
    outcome and misere mex value of X (see _gminus_ext).  ``key``
    canonicalises heap sizes and ``join`` adds two canonical positions; no
    other code builds the form.

    The memos: ``outcomes[play]`` maps a canonical position to True when
    the player to move wins (see _solve), ``gminus`` holds the states of
    _gminus_ext and ``trees`` the game trees of raw sorted positions.
    Dropping the object from ``_games`` frees all of it.
    """

    __slots__ = ("code", "moves", "grundy", "heap", "rows", "s1", "_least",
                 "outcomes", "gminus", "trees")

    def __init__(self, code: GameCode) -> None:
        self.code = code
        self.moves: list[tuple[tuple[int, ...], ...]] = [()]
        self.grundy = [0]
        self.heap = [0]
        self.rows: list[tuple[tuple[int, ...], ...]] = [()]
        self.s1 = 0
        self._least: dict[tuple[tuple[int, ...], ...], int] = {}
        self.outcomes = {play: {} for play in PlayConvention}
        self.gminus: dict[tuple[tuple[int, ...], int, int], int] = {}
        self.trees: dict[tuple[int, ...], GameTree] = {}

    def move_row(self, f: int) -> tuple[tuple[int, ...], ...]:
        """The moves of a heap of size ``f``; a row past ``moves`` is not
        stored, so one large heap does not fill every smaller row."""
        return self.moves[f] if f < len(self.moves) else _heap_moves(self.code, f)

    def key(self, heaps: Iterable[int]) -> tuple[int, ...]:
        """The canonical form of a position given by its heap sizes, each
        covered by ``extend``.

        >>> _game(parse_game_code("0.123"), 7).key((1, 1, 2, 4, 7))
        (3, 7)
        """
        heap = self.heap
        out = sorted([heap[h] for h in heaps if heap[h]])
        n1 = out.count(self.s1)
        return tuple(out[n1 - n1 % 2 :])

    def join(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        """The canonical form of the sum of canonical positions a and b.

        Each holds at most one *1, so the sum holds at most two, at its
        front, and one test folds them.

        >>> _game(parse_game_code("0.123"), 7).join((1, 7), (1, 3))
        (3, 7)
        """
        out = tuple(sorted(a + b))
        return out[2:] if len(out) > 1 and out[1] == self.s1 else out

    def extend(self, size: int) -> None:
        """Cover heaps up to ``size``.  Each new heap's value and canonical
        row are built from its moves, which reach smaller heaps only."""
        heap, grundy = self.heap, self.grundy
        while len(heap) <= size:
            h = len(heap)
            moves = _heap_moves(self.code, h)
            self.moves.append(moves)
            grundy.append(_mex(reduce(xor, [grundy[x] for x in t], 0) for t in moves))
            row = tuple(sorted({self.key(t) for t in moves}))
            if row and not self.s1:
                self.s1 = h
            heap.append(self._least.setdefault(row, h) if row else 0)
            self.rows.append(row)


# Per code, what the oracle knows of it so far.
_games: dict[GameCode, _Game] = {}


def _game(code: GameCode, size: int = 0) -> _Game:
    """The code's game object, extended to cover heaps up to ``size``."""
    game = _games.get(code)
    if game is None:
        game = _games[code] = _Game(code)
    game.extend(size)
    return game


def __getattr__(name: str):
    # Read-only views of the memos under their former names, which the
    # benchmark's tracer still reads as dicts of dicts.
    if name == "_outcome_caches":
        return {(c, p): m for c, g in _games.items() for p, m in g.outcomes.items()}
    if name == "_gminus_ext_caches":
        return {c: g.gminus for c, g in _games.items()}
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _options(moves: list, heaps: tuple[int, ...]) -> set[tuple[int, ...]]:
    # moves holds a row per heap size: a game's raw moves, or its canonical
    # rows, which _gminus_ext reads.
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
    moves = _game(code, heaps[-1] if heaps else 0).moves
    return {Position(t) for t in _options(moves, heaps)}


# The default node budget of one outcome search.
_SEARCH_BUDGET = 10**8


def _postorder(cache: dict, root, options, value, limit: int | None = None):
    """``cache[root]``, filling ``cache`` without recursion.

    This serves the searches that need the value of every option, such as a
    mex; the outcome search stops earlier and has its own loop in _solve.
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


def _solve(
    game: _Game,
    cache: dict[tuple[int, ...], bool],
    misere: bool,
    heaps: tuple[int, ...],
    budget: int,
) -> bool:
    """Whether the player to move wins the canonical position ``heaps``.

    The search runs over canonical positions (see _Game) and reads the
    canonical rows, so positions that differ only by dead heaps, by pairs
    of *1 heaps or by heaps of equal options are searched and stored once.
    The outcome is exact for each of them: a dead heap adds no move, heaps
    with equal option sets are equal games, and X + *1 + *1 has the outcome
    of X under both conventions (for misere play, g-(X + *1 + *1) = g-(X),
    proved at _gminus_ext; for normal play, *1 + *1 = 0).

    A position is settled as a win at its first option known to lose, so
    the search builds no further options of it and visits none of their
    subtrees.  Every position it settles goes into ``cache``, exactly;
    positions it never needed are not stored.  Raises BudgetExceededError
    if ``cache`` would grow past ``budget`` entries; what it stored up to
    then stays correct.

    ``game`` is the code's object from _game.  It must cover
    ``max(heaps)``; no move makes a heap larger, so it then covers every
    position the search reaches.
    """
    won = cache.get(heaps)
    if won is not None:
        return won
    get, rows, join = cache.get, game.rows, game.join
    # (position, its options not yet known when it was last looked at)
    stack: list[tuple[tuple[int, ...], list[tuple[int, ...]]]] = []
    node = heaps
    while True:
        # node is not in cache: build its options until one is known to lose.
        won = None
        pending = []
        prev = 0
        for i, size in enumerate(node):
            if size == prev:  # node is sorted: an equal heap gives equal options
                continue
            prev = size
            rest = node[:i] + node[i + 1 :]
            for repl in rows[size]:
                option = join(rest, repl)
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
                return won
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


def outcome(
    code: GameCode,
    position: Position,
    play: PlayConvention,
    budget: int = _SEARCH_BUDGET,
) -> Outcome:
    """Outcome class of ``position`` by exhaustive search.

    With no moves available the player to move has lost under normal play and
    won under misere play, so the empty position is P normal, N misere.
    Raises BudgetExceededError if the memo table would outgrow ``budget``.
    """
    heaps = position.heaps
    game = _game(code, heaps[-1] if heaps else 0)
    won = _solve(game, game.outcomes[play], play is MISERE, game.key(heaps), budget)
    return Outcome.N if won else Outcome.P


# ---------------------------------------------------------------------------
# normal play: heap values and their period


def grundy(code: GameCode, size: int) -> int:
    """Normal-play value of a single heap (0 for the empty heap)."""
    if size < 0:
        raise ValueError("heap size must be nonnegative")
    return _game(code, size).grundy[size]


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

# Trees are hash-consed: one object per distinct option set.  Equality is then
# identity, so comparing two trees never walks them; a structural comparison
# could take exponential time on a shared-subtree DAG, and recurse past the
# interpreter's stack on a deep chain.
_tree_intern: dict[frozenset, "GameTree"] = {}


class GameTree:
    """An abstract game: nothing but a finite set of option subtrees.

    Constructing a tree with the options of an existing one returns that
    tree, so equal trees are the same object.  The hash is computed once, from
    the options, so deep trees stay cheap to use as dict keys.
    """

    __slots__ = ("options", "_hash")

    def __new__(cls, options: Iterable["GameTree"] = ()) -> "GameTree":
        options = frozenset(options)
        tree = _tree_intern.get(options)
        if tree is None:
            tree = _tree_intern[options] = object.__new__(cls)
            object.__setattr__(tree, "options", options)
            object.__setattr__(tree, "_hash", hash(options))
        return tree

    def __hash__(self) -> int:
        return self._hash

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("GameTree is immutable")

    @property
    def is_endgame(self) -> bool:
        return not self.options

    def __repr__(self) -> str:
        return f"GameTree({len(self.options)} options)"


ENDGAME_TREE = GameTree()


@lru_cache(maxsize=None)
def nim_heap_tree(size: int) -> GameTree:
    """The tree of a single nim heap: *size."""
    if size < 0:
        raise ValueError("nim heap size must be nonnegative")
    return GameTree(nim_heap_tree(j) for j in range(size))


_tree_sum_cache: dict[tuple[GameTree, GameTree], GameTree] = {}


def _sum_options(pair: tuple[GameTree, GameTree]) -> list[tuple[GameTree, GameTree]]:
    a, b = pair
    return [(ao, b) for ao in a.options] + [(a, bo) for bo in b.options]


def tree_sum(a: GameTree, b: GameTree) -> GameTree:
    """Disjunctive sum: move in one component, the other rides along."""
    return _postorder(_tree_sum_cache, (a, b), _sum_options, GameTree)


def tree_of_position(code: GameCode, position: Position, budget: int = 10**6) -> GameTree:
    """Unfold a heap position into its full game tree.

    Raises BudgetExceededError if more than ``budget`` distinct positions
    would need unfolding.
    """
    heaps = position.heaps
    game = _game(code, heaps[-1] if heaps else 0)
    cache, moves = game.trees, game.moves
    return _postorder(
        cache, heaps, lambda node: _options(moves, node), GameTree,
        len(cache) + budget,
    )


_tree_grundy_cache: dict[GameTree, int] = {}
_tree_gminus_cache: dict[GameTree, int] = {}


def _misere_mex(values: list[int]) -> int:
    # The endgame is a win for the player to move under misere play.
    return _mex(values) if values else 1


def tree_grundy(tree: GameTree) -> int:
    """Normal-play value of an abstract game tree."""
    return _postorder(_tree_grundy_cache, tree, lambda t: t.options, _mex)


def misere_gminus(tree: GameTree) -> int:
    """Misere mex value: 1 at the endgame, otherwise mex over the options.

    A tree is a misere P-position exactly when this value is 0.
    """
    return _postorder(_tree_gminus_cache, tree, lambda t: t.options, _misere_mex)


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
    for k in range(1, len(values) - 2):
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


def _gminus_ext(code: GameCode, heaps: tuple[int, ...], n2: int) -> int:
    """Misere mex value of (heaps + n2 two-token nim heaps), computed without
    building trees.

    The search runs over states (heaps, n1, n2): heaps plus n1 copies of *1
    and n2 copies of *2.  It keeps n1 mod 2 only, because
    g-(X + *1 + *1) = g-(X) for every game X.  By induction on X:

    - The options of X + *1 + *1 are X' + *1 + *1, of value g-(X') by
      induction, and X + *1.
    - X is an option of X + *1, so g-(X + *1) != g-(X).
    - If X has options, g-(X) = mex{g-(X')}.  One more option value that
      differs from that mex leaves the mex unchanged.
    - If X is the endgame, g-(*1 + *1) = mex{g-(*1)} = mex{0} = 1 = g-(0).

    ``heaps`` are canonical (see _Game) with the game's own *1 heaps
    moved into n1, so a state's heaps hold no *1.  The other two reductions
    keep the value too: a dead heap adds no option, and a heap maps to one
    whose options have the same canonical forms, so by induction the two
    states have the same option values and the same mex.

    The search fills the memo for every state below (heaps, n1, n2), so each
    later call with fewer two-token heaps is a memo hit.
    """
    game = _game(code, heaps[-1] if heaps else 0)
    star1 = (game.s1,)
    # Many states share their heaps; their heap options are found once, each
    # with its *1 token, if any, split off into the parity.
    heap_options: dict[tuple[int, ...], list[tuple[tuple[int, ...], int]]] = {}

    def options(node):
        hs, n1, m2 = node
        moved = heap_options.get(hs)
        if moved is None:
            moved = heap_options[hs] = [
                (t[1:], 1) if t[:1] == star1 else (t, 0)
                for t in _options(game.rows, hs)
            ]
        opts = [(t, n1 ^ flip, m2) for t, flip in moved]
        if n1:
            opts.append((hs, 0, m2))
        if m2:
            opts.append((hs, n1 ^ 1, m2 - 1))
            opts.append((hs, n1, m2 - 1))
        return opts

    root = game.key(heaps)
    n1 = int(root[:1] == star1)
    return _postorder(game.gminus, (root[n1:], n1, n2), options, _misere_mex)


def genus(code: GameCode, position: Position, cap: int = 16) -> GenusSymbol:
    """Genus symbol of a heap position, computed by direct search.

    One search, for the position plus cap + 1 two-token nim heaps, fills the
    memo for all cap + 2 exponents; the others are then read from it.
    """
    # Largest n2 first; for cap < -1 the range is empty, so no n2 is negative.
    values = [_gminus_ext(code, position.heaps, n2) for n2 in range(cap + 1, -1, -1)]
    values.reverse()
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
