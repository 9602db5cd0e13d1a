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
    _solve,
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
    moves = oracle._game(code, heaps[-1] if heaps else 0).moves
    return oracle._postorder(
        memo, heaps, lambda node: oracle._options(moves, node),
        lambda wins: not all(wins) if wins else misere,
    )


class TestSolver:
    @settings(max_examples=120, deadline=None)
    @given(code=st.sampled_from(SOLVER_GAMES), misere=st.booleans(), heaps=small_positions)
    def test_matches_naive_recursion(self, code, misere, heaps):
        cache, naive = {}, {}
        table = oracle._game(code, max(heaps, default=0))
        won = _solve(table, cache, misere, table.key(heaps), 10**6)
        assert won == naive_won(code, heaps, misere, naive)
        # Every position the search memoized is right, not just the root.
        for node, node_won in cache.items():
            assert node_won == naive_won(code, node, misere, naive), node
        play = MISERE if misere else NORMAL
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
        with pytest.raises(BudgetExceededError):
            _solve(oracle._game(code, 9), {}, True, (9, 9), 5)

    def test_memo_stays_sound_after_budget_error(self):
        code = parse_game_code("0.137")
        naive = {}
        want = naive_won(code, (6, 7), True, naive)
        table = oracle._game(code, 7)
        assert table.key((6, 7)) == (6, 7)
        fresh = {}
        _solve(table, fresh, True, (6, 7), 10**6)
        # The search raises exactly when the budget is below what it stores.
        for budget in range(1, len(fresh) + 1):
            cache = {}
            if budget < len(fresh):
                with pytest.raises(BudgetExceededError):
                    _solve(table, cache, True, (6, 7), budget)
            else:
                assert _solve(table, cache, True, (6, 7), budget) == want
            assert len(cache) <= budget
            for node, won in cache.items():
                assert won == naive_won(code, node, True, naive), (budget, node)
            assert _solve(table, cache, True, (6, 7), 10**6) == want

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
        table = oracle._game(code, 10)
        for heaps in positions:
            want = full_closure_won(code, heaps, misere, full)
            assert _solve(table, memo, misere, table.key(heaps), 10**6) == want, heaps
        for node, won in memo.items():
            assert won == full_closure_won(code, node, misere, full), node

    def test_search_stops_at_first_losing_option(self):
        # The full closure of misere Kayles 8+9+10 over canonical positions
        # holds 1 919 of them; a search that builds every option of every
        # position it reaches stores them all.
        table = oracle._game(KAYLES, 10)
        assert table.key((8, 9, 10)) == (8, 9, 10)
        full = {}
        oracle._postorder(
            full, (8, 9, 10),
            lambda node: {table.join(o, ()) for o in oracle._options(table.rows, node)},
            lambda wins: not all(wins) if wins else True,
        )
        assert len(full) == 1919
        cache = {}
        assert _solve(table, cache, True, (8, 9, 10), 10**6)
        assert len(cache) < len(full)


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
        table = oracle._game(parse_game_code(code), 14)
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
        table, memo = oracle._game(game, 8), {}
        assert _solve(table, memo, misere, table.key(heaps), 10**6) == want
        for node, won in memo.items():
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
        # The tree path builds the sums with *2 as trees: no state is folded.
        p = Position.from_heaps(heaps)
        tree = tree_of_position(code, p)
        assert _genus_or_tail_error(genus, code, p) == _genus_or_tail_error(
            genus_of_tree, tree
        )
        # The game's own *1 heaps live in the parity coordinate only.
        s1 = oracle._game(code, 9).s1
        assert all(s1 not in hs for hs, _, _ in oracle._game(code).gminus)
        # The identity the search folds by: g-(X + *1 + *1) = g-(X).
        star1 = nim_heap_tree(1)
        for x in (tree, tree_sum(tree, nim_heap_tree(nim))):
            twice = tree_sum(tree_sum(x, star1), star1)
            assert misere_gminus(twice) == misere_gminus(x)

    def test_one_search_on_n1_mod_2(self, monkeypatch):
        monkeypatch.setattr(oracle, "_games", {})
        calls = []
        options = oracle._options

        def counted(moves, heaps):
            calls.append(heaps)
            return options(moves, heaps)

        monkeypatch.setattr(oracle, "_options", counted)
        assert str(genus(KAYLES, Position.of(20))) == "1^{031}"
        memo = oracle._game(KAYLES).gminus
        assert {n1 for _, n1, _ in memo} == {0, 1}
        # Heap 1 of Kayles is *1, and its tokens live in n1 only.
        assert all(1 not in hs for hs, _, _ in memo)
        # Keyed on n1 itself the memo would hold 135 432 states, and one
        # search per exponent, each with its own heap options, 14 256 calls;
        # with heap-1 tokens kept in the heaps, 27 720 states and 792 calls.
        assert len(memo) == 10763
        assert len(calls) == len(set(calls)) == 302

    def test_small_caps_raise(self, monkeypatch):
        gminus_ext = oracle._gminus_ext

        def nonnegative(code, heaps, n2):
            assert n2 >= 0, "a search from a negative n2 never ends"
            return gminus_ext(code, heaps, n2)

        monkeypatch.setattr(oracle, "_gminus_ext", nonnegative)
        for cap in (-3, -1, 0, 1):
            with pytest.raises(GenusTailError):
                genus(G123, Position.of(8), cap=cap)


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

    def test_tree_budget_counts_new_positions(self, monkeypatch):
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
        monkeypatch.setattr(oracle, "_games", {})
        assert tree_of_position(G123, p, budget=len(reached)) == want
        monkeypatch.setattr(oracle, "_games", {})
        with pytest.raises(BudgetExceededError):
            tree_of_position(G123, p, budget=len(reached) - 1)
        # The positions stored before the error are sound and reused.
        assert tree_of_position(G123, p) == want


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
