"""Commutative words, rewriting, completion, and monoid tables."""

import inspect
import itertools
import math
import random
import sys
from collections import deque
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from misere_quotients.builder import packaged_presentation
from misere_quotients.oracle import BudgetExceededError
from misere_quotients.semigroup import (
    FiniteCommutativeMonoid,
    Presentation,
    _check_associative,
    _closure,
    _element_profile,
    _least_words,
    action_table,
    enumerate_elements,
    format_word,
    is_isomorphic,
    knuth_bendix,
    parse_presentation,
    parse_word,
    reduce_word,
    reduction_trace,
    word_divides,
    word_key,
    word_mul,
)

GENS_0123 = ("x", "z", "a", "b")

# Normal forms of the 0.123 quotient in enumeration (graded) order.
ELEMENTS_0123 = [
    "e", "x", "z", "a", "b", "xz", "xa", "xb", "z2", "za", "zb", "b2",
    "xz2", "xza", "xzb", "xb2", "z3", "zb2", "xz3", "xzb2",
]

# Completed rules for 0.123, as (pattern, replacement) in output order.
RULES_0123 = [
    ("x^2", "e"),
    ("a^2", "e"),
    ("a b", "z b"),
    ("z^2 a", "z^3"),
    ("z^2 b", "b"),
    ("b^3", "x b^2"),
    ("z^4", "z^2"),
]

# Completed rules for 0.77, as (pattern, replacement) in output order.
RULES_KAYLES = [
    ("x^2", "e"),
    ("z v", "z w"),
    ("z t", "z w"),
    ("z f", "x z"),
    ("w v", "z^2"),
    ("w t", "z^2"),
    ("v g", "w g"),
    ("t^2", "v t"),
    ("t g", "w g"),
    ("f^2", "z^2"),
    ("f g", "x g"),
    ("g^2", "z^2"),
    ("z^3", "z"),
    ("z^2 w", "x w f"),
    ("z^2 g", "g"),
    ("z w^2", "z"),
    ("w^3", "w"),
    ("w^2 f", "x z^2"),
    ("w^2 g", "g"),
    ("v^3", "v"),
    ("v^2 f", "f"),
]

# Normal forms of the 0.77 quotient in enumeration order.
ELEMENTS_KAYLES = [
    "e", "x", "z", "w", "v", "t", "f", "g",
    "xz", "xw", "xv", "xt", "xf", "xg",
    "z2", "zw", "zg", "w2", "wf", "wg", "v2", "vt", "vf", "tf",
    "xz2", "xzw", "xzg", "xw2", "xwf", "xwg", "xv2", "xvt", "xvf", "xtf",
    "zwg", "v2t", "vtf",
    "xzwg", "xv2t", "xvtf",
]


def _monoid_from(text: str, cap: int = 200) -> FiniteCommutativeMonoid:
    return enumerate_elements(knuth_bendix(parse_presentation(text)), cap)


class TestWords:
    def test_key_orders_by_degree_then_early_generators(self):
        def key(text):
            return word_key(parse_word(text, GENS_0123))

        assert key("e") < key("x") < key("z") < key("a") < key("b")
        assert key("b") < key("x z") < key("x a") < key("x b") < key("z^2")
        assert key("z^2") < key("z a") < key("z b") < key("b^2")
        ordered = [parse_word(t, GENS_0123) for t in ("e x z a b".split())]
        assert sorted(ordered, key=word_key) == ordered

    def test_mul_and_divides(self):
        u = parse_word("x z^2", GENS_0123)
        v = parse_word("z b", GENS_0123)
        assert word_mul(u, v) == parse_word("x z^3 b", GENS_0123)
        assert word_divides(v, word_mul(u, v))
        assert not word_divides(parse_word("a", GENS_0123), u)

    def test_parse_accepts_stars_carets_and_identity(self):
        assert parse_word("x z^2 a b^3", GENS_0123) == (1, 2, 1, 3)
        assert parse_word("z*b^2", GENS_0123) == (0, 1, 0, 2)
        assert parse_word("1", GENS_0123) == (0, 0, 0, 0)
        assert parse_word("e", GENS_0123) == (0, 0, 0, 0)
        assert parse_word("x x z", GENS_0123) == (2, 1, 0, 0)

    @pytest.mark.parametrize("bad", ["q", "x^-1", "x^y", "e^2", "zB"])
    def test_parse_rejects_malformed_tokens(self, bad):
        with pytest.raises(ValueError):
            parse_word(bad, GENS_0123)

    def test_format_compacts_exponents(self):
        cases = [
            ("e", "e"),
            ("x", "x"),
            ("x z", "xz"),
            ("z b^2", "zb2"),
            ("x z^3", "xz3"),
            ("x z a b^2", "xzab2"),
        ]
        for spaced, compact in cases:
            assert format_word(parse_word(spaced, GENS_0123), GENS_0123) == compact


class TestPresentationParsing:
    def test_packaged_games(self):
        p = packaged_presentation("0.123")
        assert p.generators == GENS_0123
        assert len(p.relations) == 7
        q = packaged_presentation("0.77")
        assert q.generators == ("x", "z", "w", "v", "t", "f", "g")
        assert len(q.relations) == 24
        with pytest.raises(ValueError):
            packaged_presentation("0.75")

    @pytest.mark.parametrize(
        "text",
        [
            "x^2 = 1",                       # relation before gens
            "gens: x\ngens: x",              # duplicate gens line
            "gens:",                         # empty generator list
            "gens: x x",                     # repeated name
            "gens: x\nx^2",                  # missing =
        ],
    )
    def test_rejects_malformed_input(self, text):
        with pytest.raises(ValueError):
            parse_presentation(text)

    def test_comments_and_blanks_ignored(self):
        p = parse_presentation("# c\n\ngens: x  # trailing\nx^2 = 1\n")
        assert p.generators == ("x",)
        assert p.relations == ((parse_word("x^2", ("x",)), (0,)),)


class TestCompletion:
    def test_0123_rule_set(self):
        rws = knuth_bendix(packaged_presentation("0.123"))
        expect = tuple(
            (parse_word(l, GENS_0123), parse_word(r, GENS_0123))
            for l, r in RULES_0123
        )
        assert rws.rules == expect

    def test_kayles_rule_set(self):
        pres = packaged_presentation("0.77")
        rws = knuth_bendix(pres)
        expect = tuple(
            (parse_word(l, pres.generators), parse_word(r, pres.generators))
            for l, r in RULES_KAYLES
        )
        assert rws.rules == expect

    def test_rules_orient_downward(self):
        for pres in (packaged_presentation("0.123"), packaged_presentation("0.77")):
            rws = knuth_bendix(pres)
            for lhs, rhs in rws.rules:
                assert word_key(rhs) < word_key(lhs)

    def test_defining_relations_hold(self):
        for game in ("0.123", "0.77"):
            pres = packaged_presentation(game)
            rws = knuth_bendix(pres)
            for lhs, rhs in pres.relations:
                assert reduce_word(rws, lhs) == reduce_word(rws, rhs)

    def test_reduce_fixtures(self):
        rws = knuth_bendix(packaged_presentation("0.123"))

        def nf(text):
            return format_word(reduce_word(rws, parse_word(text, GENS_0123)), GENS_0123)

        assert nf("x z^2 a b^3") == "zb2"
        assert nf("z^2 b^2") == "b2"
        assert nf("a b z") == "b"
        assert nf("x^2") == "e"
        assert nf("z^6 a^3 b^5") == "xzb2"

    def test_trace_records_each_step(self):
        rws = knuth_bendix(packaged_presentation("0.123"))
        w = parse_word("x^2", GENS_0123)
        steps = reduction_trace(rws, w)
        assert steps == [((0, 0, 0, 0), (parse_word("x^2", GENS_0123), (0, 0, 0, 0)))]
        assert reduction_trace(rws, (0, 0, 0, 0)) == []
        long = parse_word("x z^2 a b^3", GENS_0123)
        steps = reduction_trace(rws, long)
        assert steps[-1][0] == reduce_word(rws, long)
        for result, (lhs, rhs) in steps:
            assert rws.rules.index((lhs, rhs)) >= 0

    def test_normal_forms_closed_under_products(self):
        rws = knuth_bendix(packaged_presentation("0.123"))
        m = enumerate_elements(rws, cap=200)
        forms = set(m.words)
        assert len(forms) == 20
        for u in m.words:
            assert reduce_word(rws, u) == u
            for v in m.words:
                assert reduce_word(rws, word_mul(u, v)) in forms

    def test_reduction_order_independent(self):
        # Confluence: random rule choice must land on the same normal form
        # as first-match, for both packaged systems.
        for game, ngens, trials in (("0.123", 4, 10000), ("0.77", 7, 2000)):
            rws = knuth_bendix(packaged_presentation(game))
            rng = random.Random(20260822)
            for _ in range(trials):
                w = tuple(rng.randrange(0, 7) for _ in range(ngens))
                expect = reduce_word(rws, w)
                assert reduce_word(rws, w, rng=rng) == expect


class TestEnumeration:
    def test_0123_normal_forms(self):
        m = _monoid_from(open_text_0123())
        assert list(m.names) == ELEMENTS_0123
        assert m.identity_index == 0
        assert m.generator_map == {"x": 1, "z": 2, "a": 3, "b": 4}

    def test_kayles_normal_forms(self):
        rws = knuth_bendix(packaged_presentation("0.77"))
        m = enumerate_elements(rws, cap=200)
        assert list(m.names) == ELEMENTS_KAYLES
        assert len(m) == 40

    def test_cap_is_enforced(self):
        rws = knuth_bendix(packaged_presentation("0.123"))
        with pytest.raises(BudgetExceededError):
            enumerate_elements(rws, cap=10)
        with pytest.raises(ValueError):
            enumerate_elements(rws, cap=0)

    def test_infinite_monoid_exceeds_any_cap(self):
        rws = knuth_bendix(parse_presentation("gens: x\n"))  # free on one letter
        with pytest.raises(BudgetExceededError):
            enumerate_elements(rws, cap=50)

    def test_table_is_a_monoid(self):
        m = _monoid_from("gens: x\nx^2 = 1")
        assert len(m) == 2
        assert m.mul(1, 1) == 0
        assert m.power(1, 5) == 1
        assert m.product([1, 1, 1]) == 1
        assert m.index_of("x") == 1

    def test_action_table(self):
        m = _monoid_from(open_text_0123())
        ax = action_table(m, "x")
        assert ax[m.index_of("e")] == m.index_of("x")
        assert ax[m.index_of("zb")] == m.index_of("xzb")
        assert sorted(ax) == list(range(20))  # x is a unit
        with pytest.raises(ValueError):
            action_table(m, "q")


def open_text_0123() -> str:
    """The 0.123 defining relations as presentation text (test-local copy)."""
    return (
        "gens: x z a b\n"
        "x^2 = 1\n"
        "a^2 = 1\n"
        "z^4 = z^2\n"
        "b^4 = b^2\n"
        "a b z = b\n"
        "b^3 x = b^2\n"
        "z^3 a = z^2\n"
    )


class TestIsomorphism:
    def test_identical_monoids(self):
        m = _monoid_from(open_text_0123())
        phi = is_isomorphic(m, m)
        assert phi is not None
        for i in range(len(m)):
            for j in range(len(m)):
                assert phi[m.mul(i, j)] == m.mul(phi[i], phi[j])

    def test_relabeled_generators(self):
        m = _monoid_from(open_text_0123())
        other = _monoid_from(
            "gens: p q r s\n"
            "p^2 = 1\n"
            "r^2 = 1\n"
            "q^4 = q^2\n"
            "s^4 = s^2\n"
            "r s q = s\n"
            "s^3 p = s^2\n"
            "q^3 r = q^2\n"
        )
        phi = is_isomorphic(m, other)
        assert phi is not None
        assert phi[m.identity_index] == other.identity_index

    def test_distinguishes_z4_from_klein(self):
        z4 = _monoid_from("gens: g\ng^4 = 1")
        k4 = _monoid_from("gens: p q\np^2 = 1\nq^2 = 1")
        assert len(z4) == len(k4) == 4
        assert is_isomorphic(z4, k4) is None

    def test_size_mismatch(self):
        z2 = _monoid_from("gens: x\nx^2 = 1")
        z4 = _monoid_from("gens: g\ng^4 = 1")
        assert is_isomorphic(z2, z4) is None

    def test_equal_profiles_not_isomorphic(self):
        # Z2 x {1, b} with b idempotent, against Z2 beside a group {b, b^2}
        # that a fixes.  The element profiles agree, so only the backtrack
        # tells them apart: a times b is a new element in one, b in the other.
        m1 = _monoid_from("gens: a b\na^2 = 1\nb^2 = b")
        m2 = _monoid_from("gens: a b\na^2 = 1\nb^3 = b\na b = b")
        assert len(m1) == len(m2) == 4
        assert sorted(_element_profile(m1, i) for i in range(4)) == \
            sorted(_element_profile(m2, i) for i in range(4))
        assert is_isomorphic(m1, m2) is None
        assert is_isomorphic(m2, m1) is None

    def test_non_injective_image_rejected(self):
        # Six elements each, with equal element profiles.  Some images of
        # m1's greedy generators pass every pruning test yet send two
        # elements to one, so the search reaches check's injectivity test.
        m1 = _monoid_from(
            "gens: x y z\nx^4 = 1\ny^4 = y\nz^3 = z\nx y = x\nz x = z^2"
        )
        m2 = _monoid_from("gens: x y\nx^3 = x\ny^4 = 1\ny x = x")
        assert len(m1) == len(m2) == 6
        assert sorted(_element_profile(m1, i) for i in range(6)) == \
            sorted(_element_profile(m2, i) for i in range(6))
        lines, start = inspect.getsourcelines(is_isomorphic)
        test_at = next(
            start + i for i, line in enumerate(lines)
            if "len(set(phi.values())) != len(m1)" in line
        )
        reached = []

        def probe(frame, event, arg):
            if frame.f_code.co_name != "check":
                return None

            def lines_of_check(frame, event, arg):
                if event == "line":
                    reached.append(frame.f_lineno)
                return lines_of_check

            return lines_of_check

        outer = sys.gettrace()
        sys.settrace(probe)
        try:
            found = is_isomorphic(m1, m2)
        finally:
            sys.settrace(outer)
        assert found is None
        # The line after the test, its return None, ran.
        assert test_at + 1 in reached

    def test_bound(self):
        names = tuple(f"g{i}" for i in range(65))
        table = tuple(tuple((i + j) % 65 for j in range(65)) for i in range(65))
        big = FiniteCommutativeMonoid(names, table, {"g1": 1})
        with pytest.raises(ValueError):
            is_isomorphic(big, big)


class TestTableValidation:
    def test_rejects_broken_identity(self):
        with pytest.raises(ValueError):
            FiniteCommutativeMonoid(("e", "x"), ((0, 1), (1, 0)), {}, identity_index=1)

    def test_rejects_non_commutative(self):
        # Left-zero semigroup with identity adjoined would not be symmetric.
        with pytest.raises(ValueError):
            FiniteCommutativeMonoid(
                ("e", "a", "b"),
                ((0, 1, 2), (1, 1, 1), (2, 2, 2)),
                {},
            )

    def test_rejects_non_associative(self):
        # (i*j)*k vs i*(j*k) mismatch hidden behind a commutative table.
        table = ((0, 1, 2), (1, 0, 0), (2, 0, 1))
        with pytest.raises(ValueError, match="not associative"):
            FiniteCommutativeMonoid(("e", "a", "b"), table, {"a": 1, "b": 2})

    def test_rejects_generator_outside_table(self):
        with pytest.raises(ValueError):
            FiniteCommutativeMonoid(("e", "x"), ((0, 1), (1, 0)), {"x": 2})

    def test_large_table_checked_with_generators(self):
        # Every table is checked by Light's test over a generating set, so a
        # map that generates nothing is refused at any size.
        k = 65
        rows = [[(i + j) % k for j in range(k)] for i in range(k)]
        rows[2][3] = rows[3][2] = 0
        table = tuple(map(tuple, rows))
        names = tuple(f"g{i}" for i in range(k))
        with pytest.raises(ValueError):
            FiniteCommutativeMonoid(names, table, {"g1": 1})
        with pytest.raises(ValueError, match="does not generate the table"):
            FiniteCommutativeMonoid(names, table, {})


@lru_cache(maxsize=None)
def packaged_monoid(game: str) -> FiniteCommutativeMonoid:
    return enumerate_elements(knuth_bendix(packaged_presentation(game)), cap=200)


@st.composite
def corrupted_tables(draw):
    """A packaged table with one symmetric pair of entries changed; the
    identity row and column are kept, so only associativity can fail."""
    m = packaged_monoid(draw(st.sampled_from(["0.123", "0.77"])))
    assert m.identity_index == 0
    k = len(m)
    i = draw(st.integers(1, k - 1))
    j = draw(st.integers(i, k - 1))
    rows = [list(row) for row in m.table]
    rows[i][j] = rows[j][i] = draw(st.integers(0, k - 1))
    return m, tuple(map(tuple, rows))


def _generates(table, gens) -> bool:
    seen, frontier = {0}, [0]
    while frontier:
        u = frontier.pop()
        for g in gens:
            if table[u][g] not in seen:
                seen.add(table[u][g])
                frontier.append(table[u][g])
    return len(seen) == len(table)


def _raises(check) -> bool:
    try:
        check()
    except ValueError:
        return True
    return False


class TestLightsTest:
    @settings(max_examples=200, deadline=None)
    @given(case=corrupted_tables())
    def test_agrees_with_exhaustive_check(self, case):
        m, table = case
        exhaustive = _raises(lambda: _check_associative(table, range(len(table))))
        built = _raises(
            lambda: FiniteCommutativeMonoid(m.names, table, m.generator_map)
        )
        assert built == exhaustive
        gens = set(m.generator_map.values())
        if _generates(table, gens):
            # The generators still generate: Light's test alone decides.
            assert _raises(lambda: _check_associative(table, gens)) == exhaustive

    def test_packaged_tables_pass(self):
        for game in ("0.123", "0.77"):
            m = packaged_monoid(game)
            _check_associative(m.table, set(m.generator_map.values()))


def _brute_table(rws, words):
    # The independent path: reduce every product of two normal forms.
    index = {w: i for i, w in enumerate(words)}
    return tuple(
        tuple(index[reduce_word(rws, word_mul(u, v))] for v in words) for u in words
    )


@st.composite
def finite_presentations(draw):
    """1-3 generators, each with a relation g^a = g^b (b < a <= 4) so the
    monoid is finite, plus up to three random relations between words of
    degree at least two, which seldom collapse the monoid."""
    n = draw(st.integers(1, 3))
    gens = tuple("xyz"[:n])
    relations = []
    bounds = []
    for i in range(n):
        a = draw(st.integers(1, 4))
        b = draw(st.integers(0, a - 1))
        power = [0] * n
        power[i] = a
        relations.append((tuple(power), tuple(b if j == i else 0 for j in range(n))))
        bounds.append(a)
    word = st.tuples(*[st.integers(0, 3)] * n).filter(lambda w: sum(w) >= 2)
    relations += draw(st.lists(st.tuples(word, word), max_size=3))
    return Presentation(gens, tuple(relations)), bounds


class TestFoldedTable:
    @pytest.mark.parametrize("game", ["0.123", "0.77"])
    def test_packaged_tables_match_brute_products(self, game):
        rws = knuth_bendix(packaged_presentation(game))
        m = enumerate_elements(rws, cap=200)
        assert m.table == _brute_table(rws, m.words)

    @settings(max_examples=150, deadline=None)
    @given(case=finite_presentations())
    def test_random_presentations_match_brute(self, case):
        pres, bounds = case
        rws = knuth_bendix(pres)
        m = enumerate_elements(rws, cap=200)
        # Every element has a word with each exponent below its g^a bound.
        words = sorted(
            {reduce_word(rws, w) for w in itertools.product(*map(range, bounds))},
            key=word_key,
        )
        assert m.words == tuple(words)
        assert m.names == tuple(format_word(w, pres.generators) for w in words)
        assert m.table == _brute_table(rws, m.words)
        index = {w: i for i, w in enumerate(words)}
        assert m.generator_map == {
            name: index[reduce_word(rws, parse_word(name, pres.generators))]
            for name in pres.generators
        }

    def test_kayles_cap_boundary(self):
        rws = knuth_bendix(packaged_presentation("0.77"))
        assert len(enumerate_elements(rws, cap=40)) == 40
        with pytest.raises(BudgetExceededError):
            enumerate_elements(rws, cap=39)


def _cyclic_product_table(shape):
    """Table of the product of cyclic monoids <x | x^(a+p) = x^a>, one per
    (a, p) in shape; element 0 is the identity."""

    def fold(x, a, p):
        return x if x < a + p else a + (x - a) % p

    elements = list(itertools.product(*(range(a + p) for a, p in shape)))
    index = {e: i for i, e in enumerate(elements)}
    return [
        [index[tuple(fold(x + y, a, p) for x, y, (a, p) in zip(u, v, shape))]
         for v in elements]
        for u in elements
    ]


def _brute_least_words(table, letters):
    """The first sorted letter tuple to reach each element, trying every
    tuple of each degree in lexicographic order, degree by degree, until a
    degree reaches no new element (then no later degree can)."""
    found = {0: ()}
    for degree in itertools.count(1):
        size = len(found)
        for combo in itertools.combinations_with_replacement(range(len(letters)), degree):
            el = 0
            for i in combo:
                el = table[el][letters[i]]
            found.setdefault(el, combo)
        if len(found) == size:
            width = range(len(letters))
            return {el: tuple(map(combo.count, width)) for el, combo in found.items()}


class TestLeastWords:
    @pytest.mark.parametrize("game", ["0.123", "0.77"])
    def test_packaged_normal_forms_are_least_words(self, game):
        # enumerate_elements names its elements by _least_words over the
        # table, so check them against the rewriting path instead: each
        # word is a normal form, and reducing products of the words gives
        # the table back.
        rws = knuth_bendix(packaged_presentation(game))
        m = enumerate_elements(rws, cap=200)
        assert all(reduce_word(rws, w) == w for w in m.words)
        assert m.table == _brute_table(rws, m.words)

    @settings(max_examples=200, deadline=None)
    @given(
        shape=st.lists(st.tuples(st.integers(0, 2), st.integers(1, 3)),
                       min_size=1, max_size=3)
        .filter(lambda shape: math.prod(a + p for a, p in shape) <= 36),
        data=st.data(),
    )
    def test_matches_brute_enumeration(self, shape, data):
        table = _cyclic_product_table(shape)
        letters = data.draw(st.lists(st.integers(0, len(table) - 1), max_size=5))
        least = _least_words(table, 0, letters)
        assert list(least.items()) == list(_brute_least_words(table, letters).items())
        assert set(least) == _closure(table, 0, letters)

    def test_non_generating_letters_give_their_submonoid(self):
        m = packaged_monoid("0.123")
        x, a = m.generator_map["x"], m.generator_map["a"]
        least = _least_words(m.table, 0, [x, a])
        assert sorted(m.names[el] for el in least) == ["a", "e", "x", "xa"]
        assert list(least.values()) == [(0, 0), (1, 0), (0, 1), (1, 1)]


# ---------------------------------------------------------------------------
# The packed rewriting kernel against a tuple reference


def _ref_reduce(rules, w):
    """First-match rewriting on exponent tuples."""
    while True:
        for lhs, rhs in rules:
            if word_divides(lhs, w):
                w = tuple(e - l + r for e, l, r in zip(w, lhs, rhs))
                break
        else:
            return w


def _ref_completion(pres):
    """Completion on exponent tuples, step for step the algorithm that
    knuth_bendix runs on packed words."""
    rules = []
    pending = deque(pres.relations)
    while pending:
        left, right = map(_ref_reduce, (rules, rules), pending.popleft())
        if left == right:
            continue
        if word_key(left) < word_key(right):
            left, right = right, left
        pending.extend(rule for rule in rules if word_divides(left, rule[0]))
        rules = [rule for rule in rules if not word_divides(left, rule[0])]
        for lhs, rhs in rules:
            overlap = tuple(map(max, left, lhs))
            if sum(overlap) < sum(left) + sum(lhs):
                pending.append(
                    (
                        tuple(o - l + r for o, l, r in zip(overlap, left, right)),
                        tuple(o - l + r for o, l, r in zip(overlap, lhs, rhs)),
                    )
                )
        rules.append((left, right))
    final = [(lhs, _ref_reduce(rules, rhs)) for lhs, rhs in rules]
    return tuple(sorted(final, key=lambda rule: word_key(rule[0])))


def _ref_elements(rules, n, cap):
    """Normal forms reached from the identity by generator steps, in
    word_key order; None beyond cap of them."""
    units = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    seen = {(0,) * n}
    frontier = list(seen)
    while frontier:
        w = frontier.pop()
        for unit in units:
            v = _ref_reduce(rules, word_mul(w, unit))
            if v not in seen:
                if len(seen) >= cap:
                    return None
                seen.add(v)
                frontier.append(v)
    return sorted(seen, key=word_key)


def _scaled(pres, k):
    return Presentation(
        pres.generators,
        tuple(
            (tuple(e * k for e in lhs), tuple(e * k for e in rhs))
            for lhs, rhs in pres.relations
        ),
    )


class TestPackedKernel:
    @settings(max_examples=150, deadline=None)
    @given(
        case=finite_presentations(),
        scale=st.sampled_from([1, 2**16, 70000, 2**40]),
        data=st.data(),
    )
    def test_matches_tuple_reference(self, case, scale, data):
        # Scaling every exponent keeps each rewrite step, so words of degree
        # 2**40 and more reduce in a few steps on either path.
        pres = _scaled(case[0], scale)
        n = len(pres.generators)
        rws = knuth_bendix(pres)
        assert rws.rules == _ref_completion(pres)
        words = data.draw(st.lists(st.tuples(*[st.integers(0, 9)] * n), max_size=20))
        for w in words:
            w = tuple(e * scale for e in w)
            assert reduce_word(rws, w) == _ref_reduce(rws.rules, w)
        elements = _ref_elements(rws.rules, n, 200)
        if elements is None:  # scaled: x^k is a normal form for every k < scale
            with pytest.raises(BudgetExceededError):
                enumerate_elements(rws, cap=200)
            return
        m = enumerate_elements(rws, cap=200)
        assert m.words == tuple(elements)
        index = {w: i for i, w in enumerate(elements)}
        assert m.table == tuple(
            tuple(index[_ref_reduce(rws.rules, word_mul(u, v))] for v in elements)
            for u in elements
        )

    def test_one_generator_with_a_wide_power(self):
        rws = knuth_bendix(parse_presentation("gens: x\nx^70000 = x"))
        assert rws.rules == (((70000,), (1,)),)
        assert reduce_word(rws, (3 * 69999 + 5,)) == (5,)
        with pytest.raises(BudgetExceededError):
            enumerate_elements(rws, cap=100)

    def test_widens_during_completion(self):
        # The second relation's degree outgrows the fields of the first rule.
        pres = parse_presentation("gens: x y\nx^2 = x\ny^70000 = y")
        rws = knuth_bendix(pres)
        assert rws.rules == _ref_completion(pres)
        for w in [(5, 70001), (1, 2**17), (3, 3)]:
            assert reduce_word(rws, w) == _ref_reduce(rws.rules, w)

    def test_reduced_word_of_degree_2_to_the_40(self):
        rws = knuth_bendix(parse_presentation("gens: x y\nx^70000 = x\nx y^2 = y^2"))
        assert rws.rules == (((1, 2), (0, 2)), ((70000, 0), (1, 0)))
        big = (0, 2**40)
        assert reduce_word(rws, big) == big
        assert reduce_word(rws, (140000, 2**40)) == big
        assert reduce_word(rws, (140000, 1)) == (2, 1)
        # The kernel widened for the long word; short words still reduce.
        assert reduce_word(rws, (70001, 0)) == (2, 0)
        assert reduction_trace(rws, (70000, 0)) == [((1, 0), rws.rules[1])]
