import gc
import time

import pytest
from hypothesis import given, settings, strategies as st

from misere_quotients import oracle
from misere_quotients.octal import Position, moves_from_heap, parse_game_code
from misere_quotients.oracle import (
    ENDGAME_TREE,
    KAYLES,
    MISERE,
    NORMAL,
    BudgetExceededError,
    GameTree,
    GenusSymbol,
    GenusTailError,
    Outcome,
    genus,
    genus_of_tree,
    grundy,
    is_wild_genus,
    misere_gminus,
    nim_heap_tree,
    nim_value,
    normal_period,
    outcome,
    position_options,
    sibert_conway_outcome,
    tree_grundy,
    tree_of_position,
    tree_outcome,
    tree_sum,
)

G123 = parse_game_code("0.123")

NIM_123 = [1, 0, 2, 2, 1, 0, 0, 2, 1, 1, 0, 0, 2, 1, 1]

GENUS_123 = [
    "1^{031}", "0^{120}", "2^{20}", "2^{20}", "1^{031}",
    "0^{02}", "0^{120}", "2^{1420}", "1^{20}", "1^{031}",
    "0^{02}", "0^{120}", "2^{1420}", "1^{20}", "1^{031}",
]

NIM_KAYLES_ROWS = {
    0: [1, 2, 3, 1, 4, 3, 2, 1, 4, 2, 6, 4],
    12: [1, 2, 7, 1, 4, 3, 2, 1, 4, 6, 7, 4],
    24: [1, 2, 8, 5, 4, 7, 2, 1, 8, 6, 7, 4],
    36: [1, 2, 3, 1, 4, 7, 2, 1, 8, 2, 7, 4],
    48: [1, 2, 8, 1, 4, 7, 2, 1, 4, 2, 7, 4],
    60: [1, 2, 8, 1, 4, 7, 2, 1, 8, 6, 7, 4],
    72: [1, 2, 8, 1, 4, 7, 2, 1, 8, 2, 7, 4],
    84: [1, 2, 8, 1, 4, 7, 2, 1, 8, 2, 7, 4],
}

GENUS_KAYLES = [
    "1^{031}", "2^{20}", "3^{31}", "1^{031}", "4^{146}", "3^{31}",
    "2^{20}", "1^{13}", "4^{046}", "2^{20}", "6^{46}", "4^{046}",
    "1^{13}", "2^{20}", "7^{57}", "1^{13}", "4^{64}", "3^{31}",
    "2^{20}", "1^{031}", "4^{64}", "6^{46}", "7^{57}", "4^{64}",
    "1^{731}", "2^{20}", "8^{8[10]}", "5^{75}", "4^{64}", "7^{57}",
    "2^{20}", "1^{13}",
]


class TestNormalPlay:
    def test_nim_values_123(self):
        assert [grundy(G123, h) for h in range(1, 16)] == NIM_123

    def test_nim_value_xor(self):
        p = Position.of(3, 4, 8)
        assert nim_value(G123, p) == 2 ^ 2 ^ 2

    def test_period_123(self):
        assert normal_period(G123) == (5, 5)

    def test_nim_values_kayles(self):
        for base, row in NIM_KAYLES_ROWS.items():
            assert [grundy(KAYLES, base + i) for i in range(1, 13)] == row

    def test_period_kayles(self):
        assert normal_period(KAYLES) == (71, 12)

    def test_no_period_within_r0_max(self):
        assert normal_period(KAYLES, r0_max=2) is None


class TestOutcome:
    def test_empty_position(self):
        assert outcome(G123, Position.of(), MISERE) is Outcome.N
        assert outcome(G123, Position.of(), NORMAL) is Outcome.P

    def test_single_counter(self):
        assert outcome(G123, Position.of(1), MISERE) is Outcome.P
        assert outcome(G123, Position.of(1), NORMAL) is Outcome.N

    def test_dead_heap(self):
        # Heap 2 has no moves: alone it is a misere N "win already made".
        assert outcome(G123, Position.of(2), MISERE) is Outcome.N
        assert outcome(G123, Position.of(2), NORMAL) is Outcome.P

    def test_normal_matches_nim(self):
        for heaps in [(1,), (2, 3), (3, 4), (1, 2, 5), (4, 4)]:
            p = Position.from_heaps(heaps)
            want = Outcome.N if nim_value(G123, p) else Outcome.P
            assert outcome(G123, p, NORMAL) is want


SOLVER_GAMES = [parse_game_code(c) for c in ("0.123", "0.77", "0.137")]
small_positions = st.lists(st.integers(1, 7), max_size=3).map(
    lambda hs: tuple(sorted(hs))
)


def naive_won(code, heaps, misere, memo):
    """Whether the player to move wins: plain recursion over position_options."""
    if heaps not in memo:
        opts = position_options(code, Position(heaps))
        memo[heaps] = misere if not opts else any(
            not naive_won(code, o.heaps, misere, memo) for o in opts
        )
    return memo[heaps]


def full_closure_won(code, heaps, misere, memo):
    """Whether the player to move wins: every option's value, then the rule."""
    moves = oracle._move_rows(code, heaps)
    return oracle._postorder(
        memo, heaps, lambda node: oracle._options(moves, node),
        lambda wins: not all(wins) if wins else misere,
    )


class TestSolver:
    @settings(max_examples=120, deadline=None)
    @given(code=st.sampled_from(SOLVER_GAMES), misere=st.booleans(), heaps=small_positions)
    def test_matches_naive_recursion(self, code, misere, heaps):
        cache, naive = {}, {}
        play = MISERE if misere else NORMAL
        table = oracle._game(code)
        won = table.wins(play, table.key(heaps), [0], 10**6, cache)[0]
        assert won == naive_won(code, heaps, misere, naive)
        # Every position the search memoized is right, not just the root.
        for node, node_won in cache.items():
            node = table.unpack(node)
            assert node_won == naive_won(code, node, misere, naive), node
        assert (outcome(code, Position(heaps), play) is Outcome.N) == won

    @settings(max_examples=120, deadline=None)
    @given(code=st.sampled_from(SOLVER_GAMES), heaps=small_positions)
    def test_options_match_octal_moves(self, code, heaps):
        want = {
            Position(heaps[:i] + heaps[i + 1 :] + repl.heaps)
            for i, h in enumerate(heaps)
            for repl in moves_from_heap(code, h)
        }
        assert position_options(code, Position(heaps)) == want

    def test_budget_raises(self):
        code = parse_game_code("0.137")
        # No other test searches this position, so the memo cannot hold it.
        with pytest.raises(BudgetExceededError):
            outcome(code, Position.of(30, 31, 32), MISERE, budget=10)
        table = oracle._game(code)
        with pytest.raises(BudgetExceededError):
            table.wins(MISERE, table.key((9, 9)), [0], 5, {})

    def test_memo_stays_sound_after_budget_error(self):
        code = parse_game_code("0.137")
        naive = {}
        want = naive_won(code, (6, 7), True, naive)
        table = oracle._game(code)
        root = table.key((6, 7))
        assert table.unpack(root) == (6, 7)

        def won(cache, budget):
            return table.wins(MISERE, root, [0], budget, cache)[0]

        fresh = {}
        won(fresh, 10**6)
        # The search raises exactly when the budget is below what it stores.
        for budget in range(1, len(fresh) + 1):
            cache = {}
            if budget < len(fresh):
                with pytest.raises(BudgetExceededError):
                    won(cache, budget)
            else:
                assert won(cache, budget) == want
            assert len(cache) <= budget
            for node, node_won in cache.items():
                node = table.unpack(node)
                assert node_won == naive_won(code, node, True, naive), (budget, node)
            assert won(cache, 10**6) == want
        # A batch raises at the same entry count as one root at a time, and
        # what it stored up to then is sound.
        u = table.key((6,))
        contexts = [table.key(hs) for hs in ((7,), (), (5, 7), (4,), (7,))]

        def stored(search, budget):
            cache = {}
            try:
                search(cache, budget)
            except BudgetExceededError:
                return list(cache.items()), True
            return list(cache.items()), False

        def batch(cache, budget):
            table.wins(MISERE, u, contexts, budget, cache)

        def singles(cache, budget):
            for c in contexts:
                table.wins(MISERE, table.join(u, c), [0], budget, cache)

        full, raised = stored(batch, 10**6)
        assert not raised
        for budget in range(1, len(full) + 1):
            items, raised = stored(batch, budget)
            assert (items, raised) == stored(singles, budget)
            assert raised == (budget < len(full)) and len(items) == min(budget, len(full))
            for node, node_won in items:
                node = table.unpack(node)
                assert node_won == naive_won(code, node, True, naive), (budget, node)

    @settings(max_examples=150, deadline=None)
    @given(
        code=st.sampled_from(SOLVER_GAMES),
        misere=st.booleans(),
        positions=st.lists(
            st.lists(st.integers(1, 10), max_size=3).map(lambda hs: tuple(sorted(hs))),
            min_size=1,
            max_size=6,
        ),
    )
    def test_shared_memo_matches_full_closure(self, code, misere, positions):
        # One memo across several searches, as the builder uses it: later
        # searches stop early against a memo that earlier ones filled in part.
        memo, full = {}, {}
        play = MISERE if misere else NORMAL
        table = oracle._game(code)
        roots = [table.key(heaps) for heaps in positions]
        for heaps, root in zip(positions, roots):
            want = full_closure_won(code, heaps, misere, full)
            assert table.wins(play, root, [0], 10**6, memo)[0] == want, heaps
        for node, won in memo.items():
            node = table.unpack(node)
            assert won == full_closure_won(code, node, misere, full), node
        # The same roots as one batch fill a second memo entry for entry, in
        # the same order: as contexts of the empty position, and as contexts
        # of the first root, against its sums searched one at a time.
        batch = {}
        got = table.wins(play, 0, roots, 10**6, batch)
        assert list(batch.items()) == list(memo.items())
        assert got == bytes(memo[root] for root in roots)
        u, sums, batch = roots[0], {}, {}
        want = bytes(table.wins(play, table.join(u, r), [0], 10**6, sums)[0] for r in roots)
        assert table.wins(play, u, roots, 10**6, batch) == want
        assert list(batch.items()) == list(sums.items())

    def test_search_stops_at_first_losing_option(self):
        # The full closure of misere Kayles 8+9+10 over canonical positions
        # holds 1 919 of them; a search that builds every option of every
        # position it reaches stores them all.
        table = oracle._game(KAYLES)
        root = table.key((8, 9, 10))
        assert table.unpack(root) == (8, 9, 10)
        full = {}
        oracle._postorder(
            full, root, table.options, lambda wins: not all(wins) if wins else True,
        )
        assert len(full) == 1919
        cache = {}
        assert table.wins(MISERE, root, [0], 10**6, cache) == b"\x01"
        assert len(cache) < len(full)


class TestPackedForm:
    def test_largest_token_total(self):
        # Kayles heaps 1 and 2 are *1 and *2.  A *1 and 16 383 twos make
        # 2**15 - 1 tokens, the most key packs; one join of the position
        # with itself then counts 32 766 twos in one 16-bit field.
        heaps = (1,) + (2,) * 16383
        table = oracle._game(KAYLES)
        packed = table.key(heaps)
        assert table.unpack(packed) == heaps
        assert table.unpack(table.join(packed, packed)) == (2,) * 32766
        p = Position(heaps)
        normal, misere = sibert_conway_outcome(p)
        assert outcome(KAYLES, p, MISERE) is misere is Outcome.N
        assert outcome(KAYLES, p, NORMAL) is normal is Outcome.N
        with pytest.raises(ValueError, match="too large to pack"):
            outcome(KAYLES, Position(heaps + (1,)), MISERE)
        with pytest.raises(ValueError, match="too large to pack"):
            table.key((2**15,))

    @pytest.mark.parametrize("search", [
        lambda p: outcome(KAYLES, p, MISERE),
        lambda p: genus(KAYLES, p),
    ], ids=["outcome", "genus"])
    def test_too_large_refused_before_the_game_grows(self, monkeypatch, search):
        # Growing Kayles to heap 40 000 would take minutes.
        monkeypatch.setattr(oracle, "_games", {})
        start = time.perf_counter()
        with pytest.raises(ValueError, match="too large to pack"):
            search(Position.of(40000))
        assert time.perf_counter() - start < 1
        assert len(oracle._game(KAYLES).heap) == 1

    def test_nim_values_grow_no_canonical_form(self, monkeypatch):
        # Nim values come from the raw moves and grow no canonical form; a
        # search grows it to its largest heap, packing each heap's deltas
        # as it adds the heap.
        monkeypatch.setattr(oracle, "_games", {})
        grundy(KAYLES, 1000)
        normal_period(KAYLES)
        table = oracle._game(KAYLES)
        assert len(table.heap) == 1
        assert len(table.grundy) > 1000
        outcome(KAYLES, Position.of(3, 10), MISERE)
        assert len(table.deltas) == len(table.heap) == 11


# Per code: its *1 heap and the heaps <= 14 that the canonical table does not
# map to themselves (0 for a dead heap).
CANONICAL_MAPS = {
    "0.123": (1, {2: 0, 4: 3}),
    "0.137": (1, {2: 1}),
    "0.07": (2, {1: 0, 3: 2}),
    "0.77": (1, {}),
}


class TestCanonicalForm:
    @pytest.mark.parametrize("code", sorted(CANONICAL_MAPS))
    def test_pinned_maps(self, code):
        s1, changed = CANONICAL_MAPS[code]
        table = oracle._game(parse_game_code(code))
        table.extend(14)
        assert table.s1 == s1
        assert table.heap[:15] == [changed.get(h, h) for h in range(15)]

    @pytest.mark.parametrize("code", sorted(CANONICAL_MAPS))
    def test_merged_heaps_match_their_representatives(self, code):
        # The tree path unfolds raw moves, so it shares nothing with the map.
        game = parse_game_code(code)
        s1, changed = CANONICAL_MAPS[code]
        assert tree_of_position(game, Position.of(s1)) == nim_heap_tree(1)
        for h, rep in changed.items():
            tree = tree_of_position(game, Position.of(h))
            if rep == 0:
                assert tree == ENDGAME_TREE
            else:
                assert genus_of_tree(tree) == genus_of_tree(
                    tree_of_position(game, Position.of(rep))
                )

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        code=st.sampled_from(sorted(CANONICAL_MAPS)),
        misere=st.booleans(),
    )
    def test_outcome_matches_uncanonical_reference(self, data, code, misere):
        game = parse_game_code(code)
        # Heaps the canonical form drops, folds by parity or merges.
        s1, changed = CANONICAL_MAPS[code]
        folded = data.draw(
            st.lists(st.sampled_from(sorted({s1, *changed})), min_size=1, max_size=3)
        )
        others = data.draw(st.lists(st.integers(1, 8), max_size=2))
        heaps = tuple(sorted(folded + others))
        full = {}
        want = full_closure_won(game, heaps, misere, full)
        play = MISERE if misere else NORMAL
        assert (outcome(game, Position(heaps), play) is Outcome.N) == want
        # Every canonical position a fresh search stores is right too.
        table, memo = oracle._game(game), {}
        assert table.wins(play, table.key(heaps), [0], 10**6, memo)[0] == want
        for node, won in memo.items():
            node = table.unpack(node)
            assert won == full_closure_won(game, node, misere, full), node


class TestGenus:
    def test_figure_genera_123(self):
        got = [str(genus(G123, Position.of(h))) for h in range(1, 16)]
        assert got == GENUS_123

    def test_genera_kayles(self):
        got = [str(genus(KAYLES, Position.of(h))) for h in range(1, 33)]
        assert got == GENUS_KAYLES

    def test_two_digit_exponents_bracketed(self):
        assert str(GenusSymbol(8, (8, 10))) == "8^{8[10]}"
        assert str(GenusSymbol(1, (0, 3, 1))) == "1^{031}"

    def test_wildness(self):
        assert not is_wild_genus(GenusSymbol(0, (0, 2)))
        assert not is_wild_genus(GenusSymbol(2, (2, 0)))
        assert not is_wild_genus(GenusSymbol(0, (1, 2, 0)))
        assert not is_wild_genus(GenusSymbol(1, (0, 3, 1)))
        assert is_wild_genus(GenusSymbol(2, (1, 4, 2, 0)))
        assert is_wild_genus(GenusSymbol(1, (2, 0)))

    def test_wild_heaps_123(self):
        wild = [h for h in range(1, 16) if is_wild_genus(genus(G123, Position.of(h)))]
        assert wild == [8, 9, 13, 14]


GENUS_GAMES = [parse_game_code(c) for c in ("0.123", "0.77", "0.137", "0.07")]


def genus_by_tree_sums(tree, cap=16, sums=None):
    """The genus of a tree from the sums of the tree with 0..cap + 1 copies
    of *2, each built as a tree: no state is folded.  This is tree_sum with
    one memo ``sums`` for all the sums, which share most of their pairs; a
    caller may pass one memo to the trees of one game."""
    values, t, star2 = [], tree, nim_heap_tree(2)
    sums = {} if sums is None else sums
    for _ in range(cap + 2):
        values.append(misere_gminus(t))
        t = oracle._postorder(sums, (t, star2), oracle._sum_options, GameTree)
    exponents = oracle._trim_exponents(values, cap, "tree genus")
    return GenusSymbol(tree_grundy(tree), exponents)


def _genus_or_tail_error(compute, *args):
    try:
        return str(compute(*args))
    except GenusTailError:
        return GenusTailError


class TestGenusSearch:
    @settings(max_examples=80, deadline=None)
    @given(
        code=st.sampled_from(GENUS_GAMES),
        heaps=st.lists(st.integers(1, 9), max_size=3),
        nim=st.integers(0, 3),
    )
    def test_matches_tree_genus(self, code, heaps, nim):
        # Both state searches against the sums with *2 built as trees.
        p = Position.from_heaps(heaps)
        tree = tree_of_position(code, p)
        want = _genus_or_tail_error(genus_by_tree_sums, tree)
        assert _genus_or_tail_error(genus, code, p) == want
        assert _genus_or_tail_error(genus_of_tree, tree) == want
        # The values a tree gets when it is built match the position searches.
        assert tree_grundy(tree) == nim_value(code, p)
        assert tree_outcome(tree, MISERE) is outcome(code, p, MISERE)
        assert tree_outcome(tree, NORMAL) is outcome(code, p, NORMAL)
        # The game's own *1 heaps live in the parity coordinate only.
        table = oracle._game(code)
        table.extend(9)
        assert all(table.s1 not in table.unpack(x) for x in table.gminus)
        # The identity the search folds by: g-(X + *1 + *1) = g-(X).
        star1 = nim_heap_tree(1)
        for x in (tree, tree_sum(tree, nim_heap_tree(nim))):
            twice = tree_sum(tree_sum(x, star1), star1)
            assert misere_gminus(twice) == misere_gminus(x)

    def test_one_search_on_n1_mod_2(self, monkeypatch):
        monkeypatch.setattr(oracle, "_games", {})
        calls = []
        options = oracle._Game.options

        def counted(game, heaps):
            calls.append(heaps)
            return options(game, heaps)

        monkeypatch.setattr(oracle._Game, "options", counted)
        assert str(genus(KAYLES, Position.of(20))) == "1^{031}"
        table = oracle._game(KAYLES)
        memo = table.gminus
        # Heap 1 of Kayles is *1, and its tokens live in n1 only.
        assert all(1 not in table.unpack(x) for x in memo)
        # Both n1 parities are stored, for n2 = 0 .. cap + 1, and they
        # differ at every n2: X is an option of X + *1.
        assert all(len(r0) == len(r1) == 18 for r0, r1 in memo.values())
        assert all(a != b for r0, r1 in memo.values() for a, b in zip(r0, r1))
        # One row pair and one options call per distinct x.  Keyed on n1
        # itself a state memo would hold 135 432 states, and one search per
        # exponent, each with its own heap options, 14 256 calls; with
        # heap-1 tokens kept in the heaps, 27 720 states and 792 calls.
        assert len(memo) == 302
        assert len(calls) == len(set(calls)) == 302

    @staticmethod
    def _lengths(monkeypatch) -> list[int]:
        # The row lengths the genus searches ask for.
        gminus_rows = oracle._gminus_rows
        lengths = []

        def nonnegative(memo, root, x_options, length):
            assert length >= 1, "no n2 below 0 is ever searched"
            lengths.append(length)
            return gminus_rows(memo, root, x_options, length)

        monkeypatch.setattr(oracle, "_gminus_rows", nonnegative)
        return lengths

    def test_small_caps_raise(self, monkeypatch):
        lengths = self._lengths(monkeypatch)
        for cap in (-3, -1, 0, 1):
            with pytest.raises(GenusTailError):
                genus(G123, Position.of(8), cap=cap)
        assert lengths == [1, 2, 3]

    def test_small_caps_raise_on_trees(self, monkeypatch):
        lengths = self._lengths(monkeypatch)
        tree = tree_of_position(G123, Position.of(8))
        for cap in (-3, -1, 0, 1):
            with pytest.raises(GenusTailError):
                genus_of_tree(tree, cap=cap)
        assert lengths == [1, 2, 3]

    def test_short_rows_are_extended(self, monkeypatch):
        # A memo filled at cap 2, asked again at cap 16, answers as a fresh one.
        cases = [(code, Position.of(h)) for code in GENUS_GAMES for h in range(1, 13)]
        monkeypatch.setattr(oracle, "_games", {})
        fresh = [_genus_or_tail_error(genus, code, p) for code, p in cases]
        monkeypatch.setattr(oracle, "_games", {})
        for code, p in cases:
            _genus_or_tail_error(genus, code, p, 2)
        assert [_genus_or_tail_error(genus, code, p) for code, p in cases] == fresh
        assert {len(r0) for g in oracle._games.values() for r0, _ in g.gminus.values()} == {18}
        # The same on a tree's memo, which genus_of_tree frees on return.
        children = lambda t: [(o, 0) for o in t.options]

        def rows(memo, tree, length):
            return oracle._gminus_rows(memo, tree, children, length)

        # Each second call extends the short rows of the first one's
        # subtrees and fills the rest, which read those rows whole.
        small, tree = (tree_of_position(KAYLES, Position.of(h)) for h in (10, 14))
        memo = {}
        rows(memo, small, 4)
        assert rows(memo, tree, 18) == rows({}, tree, 18)
        # Values past the starting field width: short rows are extended at a
        # doubled width, and whole rows of an earlier call are packed again
        # at the width they need.
        small, big, bigger = (nim_heap_tree(oracle._FIELD_BITS + k) for k in (2, 4, 6))
        fresh = rows({}, big, 18)
        assert min(fresh[0] + fresh[1]) >= oracle._FIELD_BITS
        memo = {}
        rows(memo, small, 4)
        assert rows(memo, big, 18) == fresh
        assert rows(memo, bigger, 18) == rows({}, bigger, 18)

    def test_nim_heaps_across_field_widths(self):
        # *k has genus k^{k, k ^ 2} for k >= 2.  The values double the
        # starting field width of 16 from k = 15 on, and again from k = 29
        # on, where k ^ 2 = 31.
        ks = range(2, 41)
        assert ks[-1] >= 2 * oracle._FIELD_BITS
        for k in ks:
            assert genus_of_tree(nim_heap_tree(k)) == GenusSymbol(k, (k, k ^ 2)), k
        for k in range(oracle._FIELD_BITS - 1, oracle._FIELD_BITS + 3):
            tree = nim_heap_tree(k)
            assert genus_of_tree(tree) == genus_by_tree_sums(tree), k

    def test_every_two_digit_code_against_tree_sums(self):
        # Every code 0.d1d2, heaps 1..8: both searches against the sums with
        # *2 built as trees, whose memo the heaps of one code share.
        for d1 in range(8):
            for d2 in range(1, 8):
                code, sums = parse_game_code(f"0.{d1}{d2}"), {}
                for h in range(1, 9):
                    tree = tree_of_position(code, Position.of(h))
                    want = _genus_or_tail_error(genus_by_tree_sums, tree, 16, sums)
                    got = _genus_or_tail_error(genus, code, Position.of(h))
                    assert got == want, (code, h)
                    assert _genus_or_tail_error(genus_of_tree, tree) == want, (code, h)


class TestTrees:
    def nim(self, k):
        return nim_heap_tree(k)

    def t_game(self):
        two_plus = GameTree(frozenset({self.nim(2)}))
        a = GameTree(frozenset({two_plus, self.nim(3)}))
        b = GameTree(frozenset({two_plus, self.nim(2), self.nim(0)}))
        return GameTree(frozenset({a, b, self.nim(3), self.nim(1)}))

    def test_heap6_is_two_plus(self):
        # Both options of heap 6 have the same tree, a single nim heap of 2.
        two_plus = GameTree(frozenset({self.nim(2)}))
        assert tree_of_position(G123, Position.of(6)) == two_plus
        assert str(genus_of_tree(two_plus)) == "0^{02}"

    def test_t_genus(self):
        assert str(genus_of_tree(self.t_game())) == "0^{20}"

    def test_t_distinguishes_heap6_from_heap11(self):
        t = self.t_game()
        h6 = tree_of_position(G123, Position.of(6))
        h11 = tree_of_position(G123, Position.of(11))
        assert str(genus_of_tree(tree_sum(h6, t))) == "0^{20}"
        assert str(genus_of_tree(tree_sum(h11, t))) == "0^{0520}"
        assert tree_outcome(tree_sum(h6, t), MISERE) is Outcome.N
        assert tree_outcome(tree_sum(h11, t), MISERE) is Outcome.P

    def test_s_distinguishes_heap6_from_two_heap3(self):
        s = tree_of_position(G123, Position.of(5, 9))
        h6 = tree_of_position(G123, Position.of(6))
        pair = tree_of_position(G123, Position.of(3, 3))
        assert str(genus_of_tree(tree_sum(h6, s))) == "0^{02}"
        assert str(genus_of_tree(tree_sum(pair, s))) == "0^{31}"
        assert tree_outcome(tree_sum(h6, s), MISERE) is Outcome.P
        assert tree_outcome(tree_sum(pair, s), MISERE) is Outcome.N

    def test_three_positions_of_equal_genus(self):
        for heaps in [(6,), (11,), (3, 3)]:
            assert str(genus(G123, Position.from_heaps(heaps))) == "0^{02}"

    def test_gminus_of_endgame(self):
        assert misere_gminus(GameTree(frozenset())) == 1

    def test_nim_heap_values(self):
        # Misere *0 and *1 swap their values; from *2 on g- = g+.
        for k in range(6):
            tree = nim_heap_tree(k)
            assert tree_grundy(tree) == k
            assert misere_gminus(tree) == (k ^ 1 if k < 2 else k)

    def test_tree_outcome_matches_position_outcome(self):
        for heaps in [(1,), (3,), (2,), (3, 4), (1, 2, 5), (6,), (4, 4, 4)]:
            p = Position.from_heaps(heaps)
            assert tree_outcome(tree_of_position(G123, p), MISERE) is outcome(
                G123, p, MISERE
            )

    def test_deep_heap_tree(self):
        # Heap 1500 of 0.123 unfolds into a tree 500 to 750 moves deep.
        p = Position.of(1500)
        tree = tree_of_position(G123, p)
        assert outcome(G123, p, MISERE) is Outcome.P
        assert tree_outcome(tree, MISERE) is Outcome.P
        assert grundy(G123, 1500) == 1
        assert tree_grundy(tree) == 1

    def test_deep_chain_genus(self):
        tree = GameTree()
        for _ in range(600):
            tree = GameTree([tree])
        assert str(genus_of_tree(tree)) == "0^{120}"
        assert genus_of_tree(tree) == genus_by_tree_sums(tree)

    def test_trees_are_freed_with_their_game(self, monkeypatch):
        # The intern table holds trees weakly, and neither tree_of_position
        # nor genus_of_tree keeps a memo past its call: dropping the tree
        # frees every tree built for it, and no game object holds any.
        monkeypatch.setattr(oracle, "_games", {})
        gc.collect()
        before = len(oracle._tree_intern)
        tree = tree_of_position(KAYLES, Position.of(20))
        assert str(genus_of_tree(tree)) == "1^{031}"
        assert len(oracle._tree_intern) > before
        assert KAYLES not in oracle._games
        del tree
        gc.collect()
        assert len(oracle._tree_intern) == before

    def test_tree_budget_counts_new_positions(self):
        p = Position.of(4, 7)
        reached, frontier = {p}, [p]
        while frontier:
            for o in position_options(G123, frontier.pop()):
                if o not in reached:
                    reached.add(o)
                    frontier.append(o)

        def naive_tree(q):
            return GameTree(naive_tree(o) for o in position_options(G123, q))

        want = naive_tree(p)
        assert tree_of_position(G123, p, budget=len(reached)) == want
        with pytest.raises(BudgetExceededError):
            tree_of_position(G123, p, budget=len(reached) - 1)
        # The memo is per call, so the budget counts every position of each
        # call, and a call after the error unfolds from scratch.
        assert tree_of_position(G123, p, budget=len(reached)) == want


class TestSibertConway:
    def test_paper_examples(self):
        # 5+4+1+1 and 12+4+1 flip between conventions; 1+3+4+8+9+21 does not.
        assert sibert_conway_outcome(Position.of(5, 4, 1, 1)) == (
            Outcome.N,
            Outcome.P,
        )
        assert sibert_conway_outcome(Position.of(12, 4, 1)) == (
            Outcome.N,
            Outcome.P,
        )
        assert sibert_conway_outcome(Position.of(1, 3, 4, 8, 9, 21)) == (
            Outcome.N,
            Outcome.N,
        )

    def test_empty_and_singletons(self):
        assert sibert_conway_outcome(Position.of()) == (Outcome.P, Outcome.N)
        assert sibert_conway_outcome(Position.of(1)) == (Outcome.N, Outcome.P)

    def test_agrees_with_oracle_small(self):
        from itertools import combinations_with_replacement

        for k in range(0, 4):
            for heaps in combinations_with_replacement(range(1, 9), k):
                p = Position.from_heaps(heaps)
                want_n = outcome(KAYLES, p, NORMAL)
                want_m = outcome(KAYLES, p, MISERE)
                assert sibert_conway_outcome(p) == (want_n, want_m), heaps


class TestGenusTail:
    def test_cap_raises(self):
        with pytest.raises(GenusTailError):
            genus(G123, Position.of(8), cap=1)

    def test_unsettled_prefix_raises_tail_error(self):
        # The values g_0..g_3 of the endgame are 1, 2, 0, 2: the last pair
        # repeats its predecessor, but no value past the prefix confirms it.
        with pytest.raises(GenusTailError):
            genus_of_tree(ENDGAME_TREE, cap=2)
        with pytest.raises(GenusTailError):
            oracle._trim_exponents([1, 0, 1], 1, "x")
