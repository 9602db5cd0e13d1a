"""Bad arguments the package refuses: each case names the exception and
the message its refusal raises."""

from itertools import islice

import pytest

from misere_quotients import builder, octal, oracle
from misere_quotients.builder import OutcomePartition, PretendingFunction
from misere_quotients.semigroup import FiniteCommutativeMonoid, parse_presentation

KAYLES = octal.parse_game_code("0.77")


def _genus_without_words():
    qa = builder.kayles_analysis()
    m = qa.monoid
    bare = FiniteCommutativeMonoid(m.names, m.table, m.generator_map)
    return builder.element_genus(qa._replace(monoid=bare), 0)


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: builder.prove_quotient(KAYLES, 0),
                 ValueError, "heap bound must be at least 1", id="prove_quotient-n0"),
    pytest.param(lambda: PretendingFunction((1, 2)).value(3),
                 ValueError, "heap 3 outside stored range", id="phi-past-stored"),
    pytest.param(lambda: PretendingFunction((1, 2)).value(0),
                 ValueError, "heap 0 outside stored range", id="phi-heap-0"),
    pytest.param(lambda: OutcomePartition(frozenset({0}), frozenset({1})).outcome_of(2),
                 ValueError, "element 2 not covered by the partition", id="outcome-uncovered"),
    pytest.param(_genus_without_words,
                 ValueError, "monoid has no word data", id="genus-without-words"),
    pytest.param(lambda: next(octal._heap_moves(KAYLES, 0)),
                 ValueError, "heap size must be >= 1, got 0", id="heap-moves-0"),
    pytest.param(lambda: oracle.grundy(KAYLES, -1),
                 ValueError, "heap size must be nonnegative", id="grundy-negative"),
    pytest.param(lambda: oracle.nim_heap_tree(-1),
                 ValueError, "nim heap size must be nonnegative", id="nim-tree-negative"),
    pytest.param(lambda: parse_presentation("# no gens line\n\n"),
                 ValueError, "missing gens: line", id="no-gens-line"),
    pytest.param(lambda: setattr(oracle.nim_heap_tree(1), "options", ()),
                 AttributeError, "GameTree is immutable", id="game-tree-assignment"),
])
def test_refused(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_letter_names_continue_past_the_single_letters():
    names = list(islice(builder._letter_names(), 27))
    assert len(set(names[:25])) == 25
    assert all(len(name) == 1 for name in names[:25])
    assert names[25:] == ["g1", "g2"]
