"""Finitely presented commutative monoids.

Words over a fixed generator list are exponent vectors (plain int tuples).
A presentation's relations are completed into a confluent, terminating
rewriting system; reduction then solves the word problem, and breadth-first
closure under generator multiplication enumerates the elements of a finite
monoid together with its multiplication table.

The element order used everywhere is graded, ties broken by giving higher
powers of earlier generators precedence.  With generators x, z, a, b this
lists e, x, z, a, b, xz, xa, xb, z2, za, zb, b2, ... which is the order the
rest of the package (tables, reports, element numbering) relies on.
``_least_words`` is the one place that finds each element's least word in
that order over a set of letter elements of a table; ``is_isomorphic``
builds its image words with it.

One closure builds every class table of the package: ``_generated_table``
finds the classes and folds the table, ``_named_monoid`` names them by least
word.  Presented monoids, misere classes and nim-value classes differ only in
the action and the class key they pass.

Rewriting runs on words packed into one int (``_Kernel``).  Each generator
owns a field of ``width`` bits, the first generator in the top field, so
packed words compare like their exponent tuples.  The top bit of every field
is a guard bit, zero in a packed word, and ``guard`` has all of them set.
Then ``lhs`` divides ``w`` exactly when ``((w | guard) - lhs) & guard ==
guard``, since no field of ``w | guard`` borrows from the next, and applying
the rule is ``w += rhs - lhs``.  The width is derived, not fixed: rules point
down in the graded order, so rewriting never raises the degree, and no
exponent met while reducing ``w`` exceeds ``deg(w)``.  A width with
``2**(width-1)`` above both ``deg(w)`` and every rule's degree is therefore
safe, and ``_Kernel.fit`` repacks the rules with wider fields when a word of
higher degree arrives.

>>> pres = parse_presentation("gens: x\\nx^2 = 1")
>>> monoid = enumerate_elements(knuth_bendix(pres), cap=10)
>>> [monoid.names[i] for i in range(len(monoid))]
['e', 'x']
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from functools import partial, reduce
from typing import NamedTuple

from .octal import _Frozen
from .oracle import BudgetExceededError, InternalError

__all__ = [
    "Word",
    "word_key",
    "word_mul",
    "word_divides",
    "parse_word",
    "format_word",
    "Presentation",
    "parse_presentation",
    "RewriteSystem",
    "knuth_bendix",
    "reduce_word",
    "reduction_trace",
    "FiniteCommutativeMonoid",
    "enumerate_elements",
    "action_table",
    "is_isomorphic",
]

Word = tuple[int, ...]


def word_key(w: Word) -> tuple[int, tuple[int, ...]]:
    """Sort key for the graded element order described in the module docstring."""
    return (sum(w), tuple(-e for e in w))


def word_mul(u: Word, v: Word) -> Word:
    return tuple(a + b for a, b in zip(u, v))


def word_divides(u: Word, v: Word) -> bool:
    return all(map(int.__le__, u, v))


def parse_word(text: str, generators: tuple[str, ...]) -> Word:
    """Parse ``x z^2 a b^3`` or ``z*v`` into an exponent vector.

    The tokens ``1`` and ``e`` denote the identity.  Raises ValueError on an
    unknown generator name or a malformed token.
    """
    index = {name: i for i, name in enumerate(generators)}
    vec = [0] * len(generators)
    for token in text.replace("*", " ").split():
        name, _, exp = token.partition("^")
        if name in index:
            if exp and (not exp.isdigit() or int(exp) < 0):
                raise ValueError(f"bad exponent in token {token!r}")
            vec[index[name]] += int(exp) if exp else 1
        elif name in ("1", "e") and not exp:
            continue
        else:
            raise ValueError(f"unknown generator {name!r}")
    return tuple(vec)


def format_word(w: Word, generators: tuple[str, ...]) -> str:
    """Render an exponent vector as a compact monomial, identity as ``e``."""
    if not any(w):
        return "e"
    parts = []
    for name, e in zip(generators, w):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}{e}")
    return "".join(parts)


class Presentation(NamedTuple):
    generators: tuple[str, ...]
    relations: tuple[tuple[Word, Word], ...]


def parse_presentation(text: str) -> Presentation:
    """Read a presentation: one ``gens: x z a b`` line, then ``lhs = rhs`` lines.

    ``#`` starts a comment; blank lines are ignored; ``1`` denotes the identity.
    """
    generators: tuple[str, ...] | None = None
    relations: list[tuple[Word, Word]] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("gens:"):
            if generators is not None:
                raise ValueError("duplicate gens: line")
            names = tuple(line[len("gens:") :].split())
            if not names:
                raise ValueError("empty generator list")
            if len(set(names)) != len(names):
                raise ValueError("generator names must be unique")
            generators = names
        else:
            if generators is None:
                raise ValueError("relation before gens: line")
            lhs, sep, rhs = line.partition("=")
            if not sep:
                raise ValueError(f"expected lhs = rhs, got {line!r}")
            relations.append(
                (parse_word(lhs, generators), parse_word(rhs, generators))
            )
    if generators is None:
        raise ValueError("missing gens: line")
    return Presentation(generators, tuple(relations))


class _Kernel:
    """Rewrite rules over packed words (see the module docstring).

    ``rules`` holds the (lhs, rhs) pairs packed at the current ``width``,
    in rule order; ``knuth_bendix`` swaps in a new list as it completes.
    ``reduce`` is the first-match loop of every hot path; ``steps`` lists
    the matching rules of each step, for traces and random rule choice.

    >>> k = _Kernel(2, (((2, 1), (0, 1)),))  # the rule x^2 y -> y
    >>> k.width, bin(k.guard), k.pack((2, 1)) == 0b010_001
    (3, '0b100100', True)
    >>> k.fit(8)  # before reducing a word of degree 8
    >>> k.width, k.unpack(k.reduce(k.pack((5, 3))))
    (5, (1, 3))
    """

    __slots__ = ("n", "width", "guard", "rules")

    def __init__(self, n: int, rules: tuple[tuple[Word, Word], ...] = ()):
        self.n = n
        self.width = 1
        self.guard = (1 << n) - 1
        self.rules: list[tuple[int, int]] = []
        self.fit(max(map(sum, itertools.chain.from_iterable(rules)), default=0))
        self.rules = [(self.pack(lhs), self.pack(rhs)) for lhs, rhs in rules]

    def fit(self, degree: int) -> None:
        """Widen the fields so that 2**(width-1) > degree, repacking the rules."""
        if degree < 1 << (self.width - 1):
            return
        words = [(self.unpack(lhs), self.unpack(rhs)) for lhs, rhs in self.rules]
        self.width = degree.bit_length() + 1
        ones = ((1 << self.width * self.n) - 1) // ((1 << self.width) - 1)
        self.guard = ones << (self.width - 1)
        self.rules = [(self.pack(lhs), self.pack(rhs)) for lhs, rhs in words]

    def pack(self, w: Word) -> int:
        x = 0
        for e in w:
            x = x << self.width | e
        return x

    def unpack(self, x: int) -> Word:
        width = self.width
        field = (1 << width) - 1
        return tuple(x >> s & field for s in range(width * (self.n - 1), -1, -width))

    def lcm(self, a: int, b: int) -> int:
        """Field-wise max of two packed words."""
        ge = ((a | self.guard) - b) & self.guard  # guard bits of fields a >= b
        low = ge - (ge >> (self.width - 1))  # the value bits of those fields
        return (a & low) | (b & ~low)

    def reduce(self, x: int) -> int:
        guard = self.guard
        rules = self.rules
        while True:
            probe = x | guard
            for lhs, rhs in rules:
                if (probe - lhs) & guard == guard:
                    x += rhs - lhs
                    break
            else:
                return x

    def steps(self, x: int, rng: random.Random | None):
        """Yield (result, rule index) per step: the first matching rule, or
        with ``rng`` a random one of the matching rules in rule order."""
        guard = self.guard
        while True:
            probe = x | guard
            hits = [
                i
                for i, (lhs, _) in enumerate(self.rules)
                if (probe - lhs) & guard == guard
            ]
            if not hits:
                return
            i = hits[0] if rng is None else rng.choice(hits)
            lhs, rhs = self.rules[i]
            x += rhs - lhs
            yield x, i


class RewriteSystem(_Frozen):
    """Confluent, terminating rules; every pattern exceeds its replacement in
    word_key order, so reduction strictly descends and normal forms are the
    order-minimal representatives of their congruence classes."""

    __slots__ = ("generators", "rules", "_kernel")
    _fields = ("generators", "rules")

    def __init__(self, generators: tuple[str, ...],
                 rules: tuple[tuple[Word, Word], ...]) -> None:
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "rules", rules)
        # Not a field, so equality, hashing and pickling leave it out.
        object.__setattr__(self, "_kernel", _Kernel(len(generators), rules))


def reduce_word(rws: RewriteSystem, w: Word, rng: random.Random | None = None) -> Word:
    """Rewrite ``w`` to its normal form.

    Rules are tried first-match by default; pass ``rng`` to pick each applied
    rule at random instead.  Confluence makes the result identical either way.
    """
    kernel = rws._kernel
    kernel.fit(sum(w))
    x = kernel.pack(w)
    if rng is None:
        x = kernel.reduce(x)
    else:
        for x, _ in kernel.steps(x, rng):
            pass
    return kernel.unpack(x)


def reduction_trace(
    rws: RewriteSystem, w: Word, rng: random.Random | None = None
) -> list[tuple[Word, tuple[Word, Word]]]:
    """Steps taken while rewriting ``w``: pairs of (result, rule applied).

    The starting word is not included; an already-normal word gives []."""
    kernel = rws._kernel
    kernel.fit(sum(w))
    return [
        (kernel.unpack(x), rws.rules[i]) for x, i in kernel.steps(kernel.pack(w), rng)
    ]


def knuth_bendix(pres: Presentation, max_rules: int = 10000) -> RewriteSystem:
    """Complete a presentation into a confluent rewriting system.

    Commutative completion always terminates: patterns are monomials, there
    are no infinite antichains of monomials under divisibility, and every
    critical pair comes from the lcm of two pattern supports that overlap.
    The max_rules cap only guards against an implementation bug.

    Pending pairs are word tuples, whose degree sizes the kernel's fields
    before they are packed and reduced.  Each critical pair word has
    fields below ``2**width``, so it unpacks exactly at the current width.
    """
    kernel = _Kernel(len(pres.generators))
    pending: deque[tuple[Word, Word]] = deque(pres.relations)
    while pending:
        left, right = pending.popleft()
        kernel.fit(max(sum(left), sum(right)))
        left = kernel.reduce(kernel.pack(left))
        right = kernel.reduce(kernel.pack(right))
        if left == right:
            continue
        if word_key(kernel.unpack(left)) < word_key(kernel.unpack(right)):
            left, right = right, left
        guard = kernel.guard
        kept: list[tuple[int, int]] = []
        for lhs, rhs in kernel.rules:
            if ((lhs | guard) - left) & guard == guard:  # left divides lhs
                pending.append((kernel.unpack(lhs), kernel.unpack(rhs)))
            else:
                kept.append((lhs, rhs))
        for lhs, rhs in kept:
            overlap = kernel.lcm(left, lhs)
            if overlap != left + lhs:
                pending.append(
                    (
                        kernel.unpack(overlap - left + right),
                        kernel.unpack(overlap - lhs + rhs),
                    )
                )
        kept.append((left, right))
        kernel.rules = kept
        if len(kept) > max_rules:
            raise InternalError("completion exceeded max_rules; this is a bug")
    final = sorted(
        (
            (kernel.unpack(lhs), kernel.unpack(kernel.reduce(rhs)))
            for lhs, rhs in kernel.rules
        ),
        key=lambda rule: word_key(rule[0]),
    )
    system = RewriteSystem(pres.generators, tuple(final))
    _assert_confluent(system)
    return system


def _assert_confluent(rws: RewriteSystem) -> None:
    # Every critical pair must join; guaranteed by construction, cheap to check.
    # An overlap's degree is at most the sum of its two patterns' degrees.
    kernel = rws._kernel
    kernel.fit(2 * max((sum(lhs) for lhs, _ in rws.rules), default=0))
    reduce = kernel.reduce
    for (l1, r1), (l2, r2) in itertools.combinations(kernel.rules, 2):
        overlap = kernel.lcm(l1, l2)
        if reduce(overlap - l1 + r1) != reduce(overlap - l2 + r2):
            raise InternalError("completion produced a non-confluent system")


class FiniteCommutativeMonoid(_Frozen):
    """A finite commutative monoid as an explicit multiplication table.

    Element 0 is the identity.  ``names`` label the elements; ``words``
    holds their exponent vectors when the monoid came from a rewriting
    system (None for derived monoids such as subgroups and quotient
    factors).  The table passes ``_check_table`` on construction, so the
    ``generator_map`` images must generate it.
    """

    __slots__ = _fields = ("names", "table", "generator_map", "words", "generators")

    def __init__(
        self,
        names: tuple[str, ...],
        table: tuple[tuple[int, ...], ...],
        generator_map: dict[str, int],
        words: tuple[Word, ...] | None = None,
        generators: tuple[str, ...] = (),
    ) -> None:
        k = len(names)
        if len(table) != k or any(len(row) != k for row in table):
            raise ValueError("table shape does not match element count")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "generator_map", dict(generator_map))
        object.__setattr__(self, "words", words)
        object.__setattr__(self, "generators", generators)
        _check_table(table, self.generator_map.values())

    def __len__(self) -> int:
        return len(self.names)

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def power(self, i: int, k: int) -> int:
        acc = 0
        for _ in range(k):
            acc = self.table[acc][i]
        return acc

    def product(self, indices) -> int:
        acc = 0
        for i in indices:
            acc = self.table[acc][i]
        return acc

    def index_of(self, name: str) -> int:
        return self.names.index(name)


def _check_table(table, gens) -> None:
    """Raise ValueError unless the square ``table`` is a commutative monoid
    with element 0 as its identity, generated by the elements ``gens``.

    Generation makes Light's test over ``gens`` a proof of associativity, so
    this is the one check every table passes, whatever its size or source.
    """
    k = len(table)
    # Whole rows against whole columns: the transpose of a commutative table
    # is the table itself.
    rows = list(map(tuple, table))
    columns = list(zip(*table))
    identity_map = tuple(range(k))
    if rows[0] != identity_map or columns[0] != identity_map:
        raise ValueError("identity row/column is not the identity map")
    if columns != rows:
        raise ValueError("table is not commutative")
    gens = set(gens)
    if not gens <= set(range(k)):
        raise ValueError("generator map points outside the table")
    if len(_closure(table, gens)) != k:
        raise ValueError("'generator_map' does not generate the table")
    _check_associative(table, gens)


def _check_associative(table: tuple[tuple[int, ...], ...], gens) -> None:
    """Light's test on a commutative table: raise ValueError unless
    (x*g)*y = x*(g*y) for every g in ``gens`` and all x, y.

    With the identity law, this proves associativity whenever ``gens``
    generate the table: the elements g passing the test contain the identity
    and are closed under products, since (x*(gh))*y = ((x*g)*h)*y
    = (x*g)*(h*y) = x*(g*(h*y)) = x*((gh)*y).  With ``gens`` every element
    it is the exhaustive check.  By commutativity x*(g*y) = (y*g)*x, so the
    test for g asks that the rows of x*g, stacked in the order of x, form a
    symmetric matrix.
    """
    rows = list(map(tuple, table))
    for g in gens:
        stacked = [rows[v] for v in rows[g]]
        if stacked != list(zip(*stacked)):
            raise ValueError("table is not associative")


def _generated_table(start, gens, act, key, cap: int):
    """Close ``start`` under the generators by breadth-first search and fold
    the multiplication table of the classes found.

    ``act(x, g)`` is the representative x*g, and two representatives are one
    class when ``key`` gives them equal keys; ``start`` must represent the
    identity.  Returns (representatives in the order found, table, the class
    of start*g for each g), class 0 being start.  Raises BudgetExceededError
    once more than ``cap`` classes appear.

    Every class v other than the identity was first reached as p*g from a
    class p found before it, so its row is folded from p's row: v*u = (p*u)*g,
    by commutativity and associativity, that is row(v)[u] = act_g[row(p)[u]].
    The table thus costs k*|A| actions and k*k list lookups instead of k*k
    products, for k classes and |A| generators.  The fold assumes what it
    folds is a monoid; ``_check_table`` then decides whether it is one.
    """
    class_of = {key(start): 0}
    reps = [start]
    parents: list[tuple[int, int]] = []
    acts: list[list[int]] = []  # acts[c][i]: the class of rep_c * gens[i]
    for c, rep in enumerate(reps):  # reps grows as classes appear
        row = []
        for i, g in enumerate(gens):
            y = act(rep, g)
            k = key(y)
            cls = class_of.get(k)
            if cls is None:
                if len(reps) >= cap:
                    raise BudgetExceededError(f"more than {cap} classes")
                cls = class_of[k] = len(reps)
                reps.append(y)
                parents.append((c, i))
            row.append(cls)
        acts.append(row)
    table = [list(range(len(reps)))]
    for p, i in parents:
        table.append([acts[x][i] for x in table[p]])
    return reps, table, acts[0]


def _named_monoid(table, letters, names: tuple[str, ...]):
    """The monoid of a table whose class 0 is the identity and which the
    classes ``letters`` generate, renumbered by ``_least_words`` and each
    element named by its least word over ``names``, one name per letter.
    Returns (monoid, old class -> new index)."""
    least = _least_words(table, letters)
    index_of = {cls: i for i, cls in enumerate(least)}
    words = tuple(least.values())
    monoid = FiniteCommutativeMonoid(
        names=tuple(format_word(w, names) for w in words),
        table=tuple(tuple(index_of[table[a][b]] for b in least) for a in least),
        generator_map=dict(zip(names, map(index_of.get, letters))),
        words=words,
        generators=names,
    )
    return monoid, index_of


def enumerate_elements(rws: RewriteSystem, cap: int) -> FiniteCommutativeMonoid:
    """Close {identity} under generator multiplication with reduction.

    Raises BudgetExceededError once more than ``cap`` normal forms appear,
    i.e. the monoid was not shown finite within budget.  The classes are the
    packed normal forms, found and folded by ``_generated_table``; confluence
    makes each generator's action a well-defined map on them.  A normal form
    is the least word of its element, so naming by least words keeps the
    normal forms as the element words.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    gens = rws.generators
    kernel = rws._kernel
    # An element first reached at breadth-first depth d has degree at most
    # d < cap, as every layer up to it holds a new element; so every word
    # x + unit reduced here has degree at most cap.
    kernel.fit(cap)
    units = [
        kernel.pack(tuple(1 if j == i else 0 for j in range(len(gens))))
        for i in range(len(gens))
    ]
    _, table, letters = _generated_table(
        0, units, lambda x, unit: kernel.reduce(x + unit), lambda x: x, cap
    )
    return _named_monoid(table, letters, gens)[0]


def action_table(monoid: FiniteCommutativeMonoid, generator: str) -> list[int]:
    """The map i -> i * g as a list over all element indices."""
    if generator not in monoid.generator_map:
        raise ValueError(f"unknown generator {generator!r}")
    g = monoid.generator_map[generator]
    return [monoid.table[i][g] for i in range(len(monoid))]


# ---------------------------------------------------------------------------
# isomorphism testing


def _element_profile(m: FiniteCommutativeMonoid, i: int) -> tuple[int, int, int]:
    # (power tail length, power cycle length, rank |iS|): isomorphism invariants.
    seen: dict[int, int] = {}
    u = i
    step = 1
    while u not in seen:
        seen[u] = step
        u = m.table[u][i]
        step += 1
    tail = seen[u]
    cycle = step - seen[u]
    rank = len(set(m.table[i]))
    return (tail, cycle, rank)


def _closure_add(table, mask: int, g: int) -> int:
    """Submonoid closure of the elements in mask (already a submonoid) plus
    generator g, as a bitmask.

    Since mask is closed, every new element is old * g^k, so it is enough to
    saturate under multiplication by g alone."""
    row = table[g]
    # mask's binary digits, least first, pick the images of its elements:
    # cheaper than a generator step per bit.
    frontier = [e for e, bit in zip(row, bin(mask)[:1:-1]) if bit == "1"]
    while frontier:
        e = frontier.pop()
        if not mask >> e & 1:
            mask |= 1 << e
            frontier.append(row[e])
    return mask


def _closure(table, gens) -> set[int]:
    """The submonoid of a multiplication table generated by gens."""
    mask = reduce(partial(_closure_add, table), gens, 1)
    return {x for x, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"}


def _least_words(table, letters) -> dict[int, Word]:
    """Each element generated by ``letters`` mapped to its least word, as an
    exponent vector over ``letters``; the keys are in word_key order.

    A word is held as the sorted tuple of its letter indices.  Within one
    degree these tuples in lexicographic order are in word_key order, and
    dropping the last letter of a least word leaves a least word.  So each
    degree extends the least words of the degree below, in order, by every
    letter from their last one on, and the first tuple to reach an element
    is its least word.
    """
    found: dict[int, tuple[int, ...]] = {0: ()}
    layer = [(0, ())]
    while layer:
        below, layer = layer, []
        for el, combo in below:
            row = table[el]
            for i in range(combo[-1] if combo else 0, len(letters)):
                v = row[letters[i]]
                if v not in found:
                    found[v] = combo + (i,)
                    layer.append((v, found[v]))
    width = range(len(letters))
    return {el: tuple(map(combo.count, width)) for el, combo in found.items()}


# is_isomorphic refuses monoids larger than this.
_ISO_BOUND = 64


def is_isomorphic(
    m1: FiniteCommutativeMonoid, m2: FiniteCommutativeMonoid
) -> dict[int, int] | None:
    """Search for an isomorphism; returns an index bijection or None.

    Backtracks over images of a greedy generating set of m1, pruning by
    element invariants and by generated-submonoid size.  Raises ValueError
    beyond ``_ISO_BOUND`` elements.
    """
    if len(m1) > _ISO_BOUND or len(m2) > _ISO_BOUND:
        raise ValueError(f"monoid larger than the {_ISO_BOUND}-element bound")
    if len(m1) != len(m2):
        return None
    prof1 = [_element_profile(m1, i) for i in range(len(m1))]
    prof2 = [_element_profile(m2, i) for i in range(len(m2))]
    if sorted(prof1) != sorted(prof2):
        return None
    # Greedy generating set: adjoin the smallest element not yet generated.
    gens: list[int] = []
    while len(reached := _closure(m1.table, gens)) < len(m1):
        gens.append(min(set(range(len(m1))) - reached))
    words = _least_words(m1.table, gens)

    def check(images: list[int]) -> dict[int, int] | None:
        phi = {
            e: m2.product(itertools.chain(*map(itertools.repeat, images, w)))
            for e, w in words.items()
        }
        if len(set(phi.values())) != len(m1):
            return None
        for i in range(len(m1)):
            row = m1.table[i]
            fi = phi[i]
            for j in range(i, len(m1)):
                if phi[row[j]] != m2.table[fi][phi[j]]:
                    return None
        return phi

    def backtrack(depth: int, images: list[int]) -> dict[int, int] | None:
        if depth == len(gens):
            return check(images)
        want = prof1[gens[depth]]
        for cand in range(len(m2)):
            if prof2[cand] != want or cand in images:
                continue
            images.append(cand)
            sub1 = _closure(m1.table, gens[: depth + 1])
            if len(sub1) == len(_closure(m2.table, images)):
                found = backtrack(depth + 1, images)
                if found is not None:
                    return found
            images.pop()
        return None

    return backtrack(0, [])
