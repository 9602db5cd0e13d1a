"""The winning move printed by ``misereq outcome``.

The CLI prints the first move of the verifier's winning-move search with the
identity multiplier.  Fixed positions cover each printed form; on seeded small
N positions the exhaustive oracle confirms that the first move lands on P.
The search lists the moves of the per-heap definition, in its order, in time
linear in the number of heaps.
"""

import random
import time

import pytest

from misere_quotients import oracle
from misere_quotients.builder import (
    PretendingFunction, analysis_to_json, phi_heap, phi_of_position,
)
from misere_quotients.cli import _describe_move, main
from misere_quotients.octal import Position, _heap_moves
from misere_quotients.oracle import MISERE, Outcome, outcome, position_options
from misere_quotients.verifier import certify_period, winning_moves


@pytest.fixture(scope="module")
def kayles_certified(kayles):
    cert = certify_period(kayles, *kayles.phi.claimed_period)
    assert cert is not None
    return cert


def n_positions(qa, seed, count, max_heap, max_heaps):
    """``count`` seeded nonempty positions whose asserted outcome is N."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        heaps = tuple(
            sorted(rng.randint(1, max_heap) for _ in range(rng.randint(1, max_heaps)))
        )
        if qa.partition.outcome_of(phi_of_position(qa, heaps)) is Outcome.N:
            found.append(heaps)
    return found


def printed_move(capsys, path, heaps):
    assert main(["outcome", path, *map(str, heaps)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2] == "outcome: N"
    return lines[3]


def after_move(heaps, h, t):
    rest = list(heaps)
    rest.remove(h)
    return Position(tuple(sorted(rest + list(t))))


# Every printed form: a removal, a reduction, a split, and a position with no
# moves at all (0.123 has none from a heap of 2).
@pytest.mark.parametrize(
    "game, heaps, want",
    [
        ("qa123", (1, 1), "winning move: take heap 1 entirely -> x (P)"),
        ("qa123", (2,), "no moves remain; the player to move has already won"),
        ("qa123", (2, 2), "no moves remain; the player to move has already won"),
        ("kayles_certified", (3,), "winning move: take heap 3 down to 1 -> x (P)"),
        ("kayles_certified", (5,), "winning move: split heap 5 into 2+2 -> z2 (P)"),
    ],
)
def test_printed_move(request, capsys, tmp_path, game, heaps, want):
    qa = request.getfixturevalue(game)
    path = tmp_path / "analysis.json"
    path.write_text(analysis_to_json(qa))
    assert printed_move(capsys, str(path), heaps) == want
    moves = winning_moves(qa, heaps, 0)
    if moves:
        h, t, target = moves[0]
        names = qa.monoid.names
        assert want == f"winning move: {_describe_move(h, t)} -> {names[target]} (P)"
    else:
        assert not position_options(qa.code, Position(heaps))


def test_large_heap_reads_only_its_own_moves(
    monkeypatch, capsys, tmp_path, kayles_certified
):
    """One large heap past the move table costs its own moves, not a row for
    every smaller heap size."""
    qa = kayles_certified
    path = tmp_path / "kayles.json"
    path.write_text(analysis_to_json(qa))
    heaps = (20000,)

    def spy(code, f):
        # Fail at the first other row instead of building all of them.
        assert f in heaps, f"moves of heap {f} computed"
        return _heap_moves(code, f)

    monkeypatch.setattr(oracle, "_heap_moves", spy)
    assert printed_move(capsys, str(path), heaps).startswith("winning move: ")


# Kayles positions of five heaps up to 16 cost the oracle ~40 s, so Kayles
# trades heap size against heap count.
@pytest.mark.parametrize(
    "game, seed, max_heap, max_heaps",
    [("qa123", 3, 16, 5), ("kayles_certified", 4, 16, 3),
     ("kayles_certified", 5, 12, 5)],
)
def test_first_winning_move_lands_in_p(request, game, seed, max_heap, max_heaps):
    qa = request.getfixturevalue(game)
    for heaps in n_positions(qa, seed, 60, max_heap, max_heaps):
        moves = winning_moves(qa, heaps, 0)
        if not moves:
            assert not position_options(qa.code, Position(heaps))
            continue
        h, t, _ = moves[0]
        assert outcome(qa.code, after_move(heaps, h, t), MISERE) is Outcome.P, heaps


def per_heap_winning_moves(qa, heaps, s):
    """The reference definition: for each heap in order, s times the product
    of every other heap, recomputed, and then each of its moves by t."""
    heaps = tuple(sorted(heaps))
    table = qa.monoid.table
    moves = []
    for i, h in enumerate(heaps):
        others = qa.monoid.product(
            phi_heap(qa, x) for j, x in enumerate(heaps) if j != i
        )
        row = table[table[s][others]]
        for t in _heap_moves(qa.code, h):
            el = row[phi_of_position(qa, t)]
            if el in qa.partition.p_set:
                moves.append((h, t, el))
    return moves


@pytest.mark.parametrize("game, seed", [("qa123", 6), ("kayles_certified", 7)])
def test_winning_moves_match_per_heap_definition(request, game, seed):
    """Seeded positions drawn from a few heap sizes, so most repeat a heap,
    with a random multiplier s: the same moves, one copy per repeated heap,
    in the same order."""
    qa = request.getfixturevalue(game)
    rng = random.Random(seed)
    for _ in range(400):
        pool = [rng.randint(1, 30) for _ in range(3)]
        heaps = [rng.choice(pool) for _ in range(rng.randint(1, 7))]
        s = rng.randrange(len(qa.monoid))
        assert winning_moves(qa, heaps, s) == per_heap_winning_moves(qa, heaps, s)


def test_many_heaps_answer_in_linear_time(capsys, qa123):
    """20 000 dead heaps of 2 and a 3: the per-heap definition's product over
    every other heap would take minutes."""
    heaps = [2] * 20000 + [3]
    t0 = time.perf_counter()
    moves = winning_moves(qa123, heaps, 0)
    assert main(["outcome", "0.123", *map(str, heaps)]) == 0
    dt = time.perf_counter() - t0
    assert moves[0] == (3, (1,), qa123.monoid.index_of("x"))
    lines = capsys.readouterr().out.splitlines()
    assert lines[3] == "winning move: take heap 3 down to 1 -> x (P)"
    assert dt < 2.0, f"over budget: {dt:.2f}s, allowed 2.0s"


def test_heap_past_stored_values_raises_alone_or_not(qa123_12):
    """With no period, a heap past the stored values has no element, so the
    search refuses it whether or not other heaps sit beside it."""
    qa = qa123_12._replace(phi=PretendingFunction(qa123_12.phi.values, None))
    past = len(qa.phi) + 1
    for heaps in [(past,), (1, past), (past, past)]:
        with pytest.raises(ValueError, match="out of certified range"):
            winning_moves(qa, heaps, 0)
