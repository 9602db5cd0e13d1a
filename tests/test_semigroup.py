"""Commutative words, rewriting, completion, and monoid tables."""

import random
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from misere_quotients.builder import packaged_presentation
from misere_quotients.oracle import BudgetExceededError
from misere_quotients.semigroup import (
    FiniteCommutativeMonoid,
    _check_associative,
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
        with pytest.raises(ValueError):
            FiniteCommutativeMonoid(("e", "a", "b"), table, {})

    def test_rejects_generator_outside_table(self):
        with pytest.raises(ValueError):
            FiniteCommutativeMonoid(("e", "x"), ((0, 1), (1, 0)), {"x": 2})

    def test_large_table_checked_with_generators(self):
        # Beyond 64 elements only a generating set lets the check run.
        k = 65
        rows = [[(i + j) % k for j in range(k)] for i in range(k)]
        rows[2][3] = rows[3][2] = 0
        table = tuple(map(tuple, rows))
        names = tuple(f"g{i}" for i in range(k))
        with pytest.raises(ValueError):
            FiniteCommutativeMonoid(names, table, {"g1": 1})
        FiniteCommutativeMonoid(names, table, {})  # unchecked: no generators


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
