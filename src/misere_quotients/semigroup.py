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

>>> pres = parse_presentation("gens: x\\nx^2 = 1")
>>> monoid = enumerate_elements(knuth_bendix(pres), cap=10)
>>> [monoid.names[i] for i in range(len(monoid))]
['e', 'x']
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from dataclasses import dataclass

from .oracle import BudgetExceededError

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
    return all(a <= b for a, b in zip(u, v))


def _word_sub(v: Word, u: Word) -> Word:
    return tuple(b - a for a, b in zip(u, v))


def _word_lcm(u: Word, v: Word) -> Word:
    return tuple(max(a, b) for a, b in zip(u, v))


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


@dataclass(frozen=True)
class Presentation:
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


@dataclass(frozen=True)
class RewriteSystem:
    """Confluent, terminating rules; every pattern exceeds its replacement in
    word_key order, so reduction strictly descends and normal forms are the
    order-minimal representatives of their congruence classes."""

    generators: tuple[str, ...]
    rules: tuple[tuple[Word, Word], ...]


def reduce_word(rws: RewriteSystem, w: Word, rng: random.Random | None = None) -> Word:
    """Rewrite ``w`` to its normal form.

    Rules are tried first-match by default; pass ``rng`` to pick each applied
    rule at random instead.  Confluence makes the result identical either way.
    """
    while True:
        hits = [k for k, (lhs, _) in enumerate(rws.rules) if word_divides(lhs, w)]
        if not hits:
            return w
        lhs, rhs = rws.rules[hits[0] if rng is None else rng.choice(hits)]
        w = word_mul(_word_sub(w, lhs), rhs)


def reduction_trace(
    rws: RewriteSystem, w: Word, rng: random.Random | None = None
) -> list[tuple[Word, tuple[Word, Word]]]:
    """Steps taken while rewriting ``w``: pairs of (result, rule applied).

    The starting word is not included; an already-normal word gives []."""
    steps = []
    while True:
        hits = [k for k, (lhs, _) in enumerate(rws.rules) if word_divides(lhs, w)]
        if not hits:
            return steps
        lhs, rhs = rws.rules[hits[0] if rng is None else rng.choice(hits)]
        w = word_mul(_word_sub(w, lhs), rhs)
        steps.append((w, (lhs, rhs)))


def _reduce_by(rules: list[tuple[Word, Word]], w: Word) -> Word:
    changed = True
    while changed:
        changed = False
        for lhs, rhs in rules:
            if word_divides(lhs, w):
                w = word_mul(_word_sub(w, lhs), rhs)
                changed = True
    return w


def knuth_bendix(pres: Presentation, max_rules: int = 10000) -> RewriteSystem:
    """Complete a presentation into a confluent rewriting system.

    Commutative completion always terminates: patterns are monomials, there
    are no infinite antichains of monomials under divisibility, and every
    critical pair comes from the lcm of two pattern supports that overlap.
    The max_rules cap only guards against an implementation bug.
    """
    rules: list[tuple[Word, Word]] = []
    pending: deque[tuple[Word, Word]] = deque(pres.relations)
    while pending:
        left, right = pending.popleft()
        left = _reduce_by(rules, left)
        right = _reduce_by(rules, right)
        if left == right:
            continue
        if word_key(left) < word_key(right):
            left, right = right, left
        kept: list[tuple[Word, Word]] = []
        for lhs, rhs in rules:
            if word_divides(left, lhs):
                pending.append((lhs, rhs))
            else:
                kept.append((lhs, rhs))
        rules = kept
        for lhs, rhs in rules:
            overlap = _word_lcm(left, lhs)
            if sum(overlap) < sum(left) + sum(lhs):
                pending.append(
                    (
                        word_mul(right, _word_sub(overlap, left)),
                        word_mul(rhs, _word_sub(overlap, lhs)),
                    )
                )
        rules.append((left, right))
        if len(rules) > max_rules:
            raise RuntimeError("completion exceeded max_rules; this is a bug")
    final = sorted(
        ((lhs, _reduce_by(rules, rhs)) for lhs, rhs in rules),
        key=lambda rule: word_key(rule[0]),
    )
    system = RewriteSystem(pres.generators, tuple(final))
    _assert_confluent(system)
    return system


def _assert_confluent(rws: RewriteSystem) -> None:
    # Every critical pair must join; guaranteed by construction, cheap to check.
    for (l1, r1), (l2, r2) in itertools.combinations(rws.rules, 2):
        overlap = _word_lcm(l1, l2)
        a = reduce_word(rws, word_mul(r1, _word_sub(overlap, l1)))
        b = reduce_word(rws, word_mul(r2, _word_sub(overlap, l2)))
        if a != b:
            raise RuntimeError("completion produced a non-confluent system")


class FiniteCommutativeMonoid:
    """A finite commutative monoid as an explicit multiplication table.

    ``names`` label the elements; ``words`` holds their exponent vectors when
    the monoid came from a rewriting system (None for derived monoids such as
    subgroups and quotient factors).  The table is validated on construction:
    commutativity and the identity law always; associativity by Light's test
    on the ``generator_map`` images when they generate the table, otherwise
    exhaustively for at most 64 elements.
    """

    def __init__(
        self,
        names: tuple[str, ...],
        table: tuple[tuple[int, ...], ...],
        generator_map: dict[str, int],
        identity_index: int = 0,
        words: tuple[Word, ...] | None = None,
        generators: tuple[str, ...] = (),
    ):
        k = len(names)
        if len(table) != k or any(len(row) != k for row in table):
            raise ValueError("table shape does not match element count")
        self.names = names
        self.table = table
        self.generator_map = dict(generator_map)
        self.identity_index = identity_index
        self.words = words
        self.generators = generators
        self._index = {name: i for i, name in enumerate(names)}
        for i in range(k):
            if table[identity_index][i] != i or table[i][identity_index] != i:
                raise ValueError("identity row/column is not the identity map")
            for j in range(i, k):
                if table[i][j] != table[j][i]:
                    raise ValueError("table is not commutative")
        gens = set(self.generator_map.values())
        if not gens <= set(range(k)):
            raise ValueError("generator map points outside the table")
        if _closure_size(self, gens) == k:
            _check_associative(table, gens)
        elif k <= 64:
            _check_associative(table, range(k))

    def __len__(self) -> int:
        return len(self.names)

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def power(self, i: int, k: int) -> int:
        acc = self.identity_index
        for _ in range(k):
            acc = self.table[acc][i]
        return acc

    def product(self, indices) -> int:
        acc = self.identity_index
        for i in indices:
            acc = self.table[acc][i]
        return acc

    def index_of(self, name: str) -> int:
        return self._index[name]


def _check_associative(table: tuple[tuple[int, ...], ...], gens) -> None:
    """Light's test: raise ValueError unless (x*g)*y = x*(g*y) for every g in
    ``gens`` and all x, y.

    With the identity law, this proves associativity whenever ``gens``
    generate the table: the elements g passing the test contain the identity
    and are closed under products, since (x*(gh))*y = ((x*g)*h)*y
    = (x*g)*(h*y) = x*(g*(h*y)) = x*((gh)*y).  With ``gens`` every element
    it is the exhaustive check.
    """
    for g in gens:
        g_row = table[g]
        for x_row in table:
            if [x_row[gy] for gy in g_row] != list(table[x_row[g]]):
                raise ValueError("table is not associative")


def enumerate_elements(rws: RewriteSystem, cap: int) -> FiniteCommutativeMonoid:
    """Close {identity} under generator multiplication with reduction.

    Raises BudgetExceededError once more than ``cap`` normal forms appear,
    i.e. the monoid was not shown finite within budget.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    gens = rws.generators
    units = [
        tuple(1 if j == i else 0 for j in range(len(gens))) for i in range(len(gens))
    ]
    identity = tuple(0 for _ in gens)
    seen = {identity}
    frontier = deque([identity])
    while frontier:
        w = frontier.popleft()
        for unit in units:
            nxt = reduce_word(rws, word_mul(w, unit))
            if nxt not in seen:
                if len(seen) >= cap:
                    raise BudgetExceededError(
                        f"more than {cap} elements; monoid not shown finite"
                    )
                seen.add(nxt)
                frontier.append(nxt)
    elements = tuple(sorted(seen, key=word_key))
    index = {w: i for i, w in enumerate(elements)}
    table = tuple(
        tuple(index[reduce_word(rws, word_mul(u, v))] for v in elements)
        for u in elements
    )
    generator_map = {
        name: index[reduce_word(rws, unit)] for name, unit in zip(gens, units)
    }
    return FiniteCommutativeMonoid(
        names=tuple(format_word(w, gens) for w in elements),
        table=table,
        generator_map=generator_map,
        identity_index=index[identity],
        words=elements,
        generators=gens,
    )


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


def _generating_sequence(
    m: FiniteCommutativeMonoid,
) -> tuple[list[int], dict[int, tuple[int, ...]]]:
    # Greedy generating set; expr[e] lists positions into the generator list
    # whose product is e.  Deterministic: always adjoin the smallest missing.
    gens: list[int] = []
    expr: dict[int, tuple[int, ...]] = {m.identity_index: ()}
    while len(expr) < len(m):
        new = min(i for i in range(len(m)) if i not in expr)
        gens.append(new)
        expr[new] = (len(gens) - 1,)
        frontier = deque(expr)
        while frontier:
            u = frontier.popleft()
            for slot, g in enumerate(gens):
                v = m.table[u][g]
                if v not in expr:
                    expr[v] = expr[u] + (slot,)
                    frontier.append(v)
    return gens, expr


def _closure_size(m: FiniteCommutativeMonoid, seeds: list[int]) -> int:
    seen = {m.identity_index}
    frontier = deque(seen)
    while frontier:
        u = frontier.popleft()
        for g in seeds:
            v = m.table[u][g]
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return len(seen)


def is_isomorphic(
    m1: FiniteCommutativeMonoid, m2: FiniteCommutativeMonoid, bound: int = 64
) -> dict[int, int] | None:
    """Search for an isomorphism; returns an index bijection or None.

    Backtracks over images of a greedy generating set of m1, pruning by
    element invariants and by generated-submonoid size.  Raises ValueError
    beyond ``bound`` elements.
    """
    if len(m1) > bound or len(m2) > bound:
        raise ValueError(f"monoid larger than the {bound}-element bound")
    if len(m1) != len(m2):
        return None
    prof1 = [_element_profile(m1, i) for i in range(len(m1))]
    prof2 = [_element_profile(m2, i) for i in range(len(m2))]
    if sorted(prof1) != sorted(prof2):
        return None
    gens, expr = _generating_sequence(m1)
    order = sorted(expr, key=lambda e: len(expr[e]))

    def check(images: list[int]) -> dict[int, int] | None:
        phi = {e: m2.product(images[slot] for slot in expr[e]) for e in order}
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
            if _closure_size(m1, gens[: depth + 1]) == _closure_size(m2, images):
                found = backtrack(depth + 1, images)
                if found is not None:
                    return found
            images.pop()
        return None

    return backtrack(0, [])
