"""The package's value classes: equality, hashing, repr, immutability,
ordering, pickling, and the checks their constructors make; and the
modules that importing the command line pulls in."""

import copy
import os
import pickle
import subprocess
import sys

import pytest

from misere_quotients import structure, verifier
from misere_quotients.builder import (
    OutcomePartition,
    PretendingFunction,
    build_quotient,
    kayles_analysis,
)
from misere_quotients.octal import Position, parse_game_code
from misere_quotients.oracle import GenusSymbol
from misere_quotients.semigroup import knuth_bendix, parse_presentation, reduce_word

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Each factory builds a new value on every call, equal to the last one.
VALUES = {
    "GameCode": lambda: parse_game_code("0.123"),
    "Position": lambda: Position((3, 1)),
    "GenusSymbol": lambda: GenusSymbol(1, (0, 3, 1)),
    "Presentation": lambda: parse_presentation("gens: x\nx^3 = x"),
    "RewriteSystem": lambda: knuth_bendix(parse_presentation("gens: x\nx^3 = x")),
    "PretendingFunction": lambda: PretendingFunction((1, 2, 1, 2), (1, 2)),
    "OutcomePartition": lambda: OutcomePartition(frozenset({0}), frozenset({1, 2})),
    "QuotientAnalysis": lambda: build_quotient("0.123", 6),
    "RFactor": lambda: structure.principal_series(build_quotient("0.123", 6).monoid).factors[0],
    "PrincipalSeries": lambda: structure.principal_series(build_quotient("0.123", 6).monoid),
    "TameIsland": lambda: structure.tame_islands(build_quotient("0.123", 6))[0],
    "MovePair": lambda: verifier.MovePair(1, 2, (3, (1, 1))),
    "Translate": lambda: verifier.Translate(0, verifier.MovePair(1, 2, (3, (1, 1))), 1, 2),
    "VerificationReport": lambda: verifier.VerificationReport(6, [], [], True, {}),
}

# Hashable as before: the others hold a monoid, a list or a dict.
UNHASHABLE = {"QuotientAnalysis", "TameIsland", "VerificationReport"}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_equal_values_compare_and_hash_alike(name):
    a, b = VALUES[name](), VALUES[name]()
    assert type(a).__name__ == name
    assert a is not b and a == b and not a != b
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("name", sorted(VALUES))
def test_fields_cannot_be_assigned(name):
    value = VALUES[name]()
    field = type(value)._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert VALUES[name]() == value


@pytest.mark.parametrize("name, text", [
    ("GameCode", "GameCode(pre_point_digit=0, post_point_digits=(1, 2, 3))"),
    ("Position", "Position(heaps=(1, 3))"),
    ("GenusSymbol", "GenusSymbol(g_plus=1, exponents=(0, 3, 1))"),
    ("Presentation", "Presentation(generators=('x',), relations=(((3,), (1,)),))"),
    ("RewriteSystem", "RewriteSystem(generators=('x',), rules=(((3,), (1,)),))"),
    ("PretendingFunction", "PretendingFunction(values=(1, 2, 1, 2), claimed_period=(1, 2))"),
    ("OutcomePartition", "OutcomePartition(p_set=frozenset({0}), n_set=frozenset({1, 2}))"),
    ("Translate", "Translate(basis=0, pair=MovePair(lhs=1, rhs=2, source=(3, (1, 1))), start=1, end=2)"),
    ("VerificationReport",
     "VerificationReport(n=6, pp_violations=[], np_failures=[], passed=True, stats={})"),
])
def test_repr(name, text):
    assert repr(VALUES[name]()) == text


class TestPosition:
    def test_heaps_are_sorted(self):
        assert Position((3, 1)).heaps == (1, 3)
        assert Position.of(2, 1, 2) == Position((1, 2, 2))

    def test_zero_heap_is_refused(self):
        with pytest.raises(ValueError, match="heap sizes must be >= 1"):
            Position((3, 0))

    def test_order_is_the_order_of_the_heap_tuples(self):
        positions = [Position((2,)), Position((1, 5)), Position(()), Position((1,))]
        assert sorted(positions) == [Position(()), Position((1,)), Position((1, 5)), Position((2,))]
        assert Position((1,)) <= Position((1,)) < Position((1, 1))
        assert Position((2,)) > Position((1, 9)) >= Position((1, 9))
        with pytest.raises(TypeError):
            Position((1,)) < (2,)

    def test_len(self):
        assert len(Position((1, 2, 2))) == 3 and len(Position()) == 0
        assert len(PretendingFunction((1, 2, 3))) == 3


@pytest.mark.parametrize("round_trip", [
    lambda v: pickle.loads(pickle.dumps(v)),
    copy.deepcopy,
], ids=["pickle", "deepcopy"])
def test_round_trips(round_trip):
    qa = kayles_analysis()
    back = round_trip(qa)
    assert back == qa and back is not qa
    assert back.phi.claimed_period == qa.phi.claimed_period
    assert round_trip(Position((3, 1))) == Position((1, 3))
    rws = VALUES["RewriteSystem"]()
    assert reduce_word(round_trip(rws), (5,)) == reduce_word(rws, (5,)) == (1,)


def test_constructors_still_check():
    # certify_period's and the analysis loader's period checks are tested in
    # test_verifier.py and test_cli.py; these are the constructors themselves.
    with pytest.raises(ValueError, match="period fails at heap 2"):
        PretendingFunction((1, 2, 1, 1), (1, 2))
    with pytest.raises(ValueError, match="P and N sets overlap"):
        OutcomePartition(frozenset({0, 1}), frozenset({1, 2}))


def test_start_up_imports():
    # A plain interpreter (no site-packages, which may preload modules).
    code = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "import misere_quotients.cli\n"
        "from misere_quotients import builder\n"
        "builder.kayles_analysis(); builder.packaged_presentation('0.123')\n"
        "print(sorted({'dataclasses', 'inspect', 'importlib.resources'} & set(sys.modules)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, SRC],
        capture_output=True, text=True, check=True,
    ).stdout
    assert out == "[]\n"
