import pytest
from hypothesis import given, settings, strategies as st

from misere_quotients.octal import Position, moves_from_heap, parse_game_code
from misere_quotients.oracle import (
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


class TestSolver:
    @settings(max_examples=120, deadline=None)
    @given(code=st.sampled_from(SOLVER_GAMES), misere=st.booleans(), heaps=small_positions)
    def test_matches_naive_recursion(self, code, misere, heaps):
        cache, naive = {}, {}
        won = _solve(code, cache, misere, heaps, 10**6)
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
            _solve(code, {}, True, (9, 9), 5)

    def test_memo_stays_sound_after_budget_error(self):
        code = parse_game_code("0.137")
        cache = {}
        with pytest.raises(BudgetExceededError):
            _solve(code, cache, True, (6, 7), 20)
        naive = {}
        for node, won in cache.items():
            assert won == naive_won(code, node, True, naive)
        assert _solve(code, cache, True, (6, 7), 10**6) == naive_won(code, (6, 7), True, naive)


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
