import itertools
import time

import pytest
from hypothesis import given, strategies as st

from misere_quotients.octal import (
    EMPTY,
    GameCode,
    GameCodeError,
    Position,
    _heap_moves,
    moves_from_heap,
    parse_game_code,
)


def heaps(code, size):
    return sorted(m.heaps for m in moves_from_heap(code, size))


def reference_heap_moves(code, f):
    """The move rule read straight off the digits: every move into a set,
    then sorted."""
    out = set()
    for k in range(min(f, code.places) + 1):
        d = code.digit(k)
        rest = f - k
        if d & 1 and rest == 0 and k >= 1:
            out.add(())
        if d & 2 and rest >= 1:
            out.add((rest,))
        if d & 4 and rest >= 2:
            for a in range(1, rest // 2 + 1):
                out.add((a, rest - a))
    return tuple(sorted(out))


class TestGameCode:
    def test_parse_and_str(self):
        code = parse_game_code("0.123")
        assert str(code) == "0.123"
        assert code.places == 3
        assert [code.digit(k) for k in range(5)] == [0, 1, 2, 3, 0]

    def test_kayles(self):
        code = parse_game_code("0.77")
        assert code.places == 2
        assert code.digit(1) == 7 and code.digit(2) == 7

    def test_pre_point_digit_must_be_pure_split(self):
        assert parse_game_code("4.123").pre_point_digit == 4
        with pytest.raises(GameCodeError):
            parse_game_code("1.123")

    @pytest.mark.parametrize("bad", ["", "0.", ".123", "0.128", "8.1", "0.0", "0.000"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(GameCodeError):
            parse_game_code(bad)


class TestMoves:
    def test_0123_move_counts(self):
        # take-1 only empties a heap of 1; heap 2 has no moves at all.
        code = parse_game_code("0.123")
        counts = [len(moves_from_heap(code, f)) for f in range(1, 6)]
        assert counts == [1, 0, 2, 2, 2]

    def test_0123_small_heaps(self):
        code = parse_game_code("0.123")
        assert heaps(code, 1) == [()]
        assert heaps(code, 2) == []
        assert heaps(code, 3) == [(), (1,)]
        assert heaps(code, 4) == [(1,), (2,)]
        assert heaps(code, 6) == [(3,), (4,)]

    def test_kayles_heap_5(self):
        # take 1 or 2, optionally splitting the remainder into two heaps.
        code = parse_game_code("0.77")
        assert heaps(code, 5) == [(1, 2), (1, 3), (2, 2), (3,), (4,)]

    def test_splits_unordered(self):
        code = parse_game_code("0.77")
        for size in range(2, 30):
            for t in heaps(code, size):
                assert tuple(sorted(t)) == t

    def test_tokens_conserved(self):
        code = parse_game_code("0.77")
        for size in range(1, 30):
            for t in heaps(code, size):
                assert sum(t) in (size - 1, size - 2)

    def test_stream_matches_the_sorted_set(self):
        # Every code with pre-point digit 0 or 4 and one to three digits
        # after the point, codes that permit no move included.
        for pre in (0, 4):
            for places in (1, 2, 3):
                for post in itertools.product(range(8), repeat=places):
                    code = GameCode(pre, post)
                    for f in range(1, 41):
                        want = reference_heap_moves(code, f)
                        assert tuple(_heap_moves(code, f)) == want, (code, f)

    @pytest.mark.parametrize("game, first", [
        ("0.77", (1, 10**12 - 3)),
        ("0.123", (10**12 - 3,)),
    ])
    def test_first_move_of_a_huge_heap_comes_at_once(self, game, first):
        start = time.perf_counter()
        assert next(_heap_moves(parse_game_code(game), 10**12)) == first
        assert time.perf_counter() - start < 1


class TestPosition:
    def test_sorted_and_equal(self):
        assert Position.of(3, 1, 2) == Position.of(1, 2, 3)
        assert Position.of(3, 1, 2).heaps == (1, 2, 3)

    def test_add_and_mul(self):
        p = Position.of(1, 3) * Position.of(3)
        assert p.heaps == (1, 3, 3)
        assert Position.of() == EMPTY
        assert EMPTY.is_empty()

    def test_str(self):
        assert str(Position.of(4, 1, 3)) == "[1,3,4]"

    @given(st.lists(st.integers(min_value=1, max_value=40), max_size=6))
    def test_multiset_identity(self, heaps_list):
        p = Position.from_heaps(heaps_list)
        assert sorted(heaps_list) == list(p.heaps)
        assert len(p) == len(heaps_list)

    @given(
        st.lists(st.integers(min_value=1, max_value=20), max_size=4),
        st.lists(st.integers(min_value=1, max_value=20), max_size=4),
    )
    def test_mul_commutes(self, a, b):
        pa, pb = Position.from_heaps(a), Position.from_heaps(b)
        assert pa * pb == pb * pa
