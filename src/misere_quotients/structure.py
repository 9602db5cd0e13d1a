"""Algebraic anatomy of a finite commutative monoid.

The interesting landmarks of a quotient monoid are its idempotents (ordered
by f <= g iff f*g = f), its mutual-divisibility classes, the maximal
subgroup sitting at each idempotent, the kernel (the unique minimal ideal),
and a principal series: a maximal descending chain of ideals whose
successive quotients-with-zero-adjoined classify the monoid's layers.

The subgroups whose every element squares to the local identity behave like
groups of nim values under addition; reporting them with that reading
attached gives a quick map of where a misere quotient looks classical.
"""

from __future__ import annotations

from typing import NamedTuple

from .oracle import GenusSymbol, InternalError
from .semigroup import FiniteCommutativeMonoid

__all__ = [
    "idempotents",
    "idempotent_order",
    "hasse_edges",
    "mutual_divisibility_classes",
    "maximal_subgroup",
    "kernel_ideal",
    "RFactor",
    "PrincipalSeries",
    "principal_series",
    "TameIsland",
    "tame_islands",
]


def idempotents(m: FiniteCommutativeMonoid) -> list[int]:
    return [u for u in range(len(m)) if m.table[u][u] == u]


def idempotent_order(
    m: FiniteCommutativeMonoid, idems: list[int] | None = None
) -> list[tuple[int, int]]:
    """All strict comparabilities (f, g) with f below g, i.e. f*g = f."""
    if idems is None:
        idems = idempotents(m)
    return [
        (f, g)
        for f in idems
        for g in idems
        if f != g and m.table[f][g] == f
    ]


def hasse_edges(
    m: FiniteCommutativeMonoid, idems: list[int] | None = None
) -> list[tuple[int, int]]:
    """Covering pairs of the idempotent order (transitive reduction)."""
    order = set(idempotent_order(m, idems))
    return sorted(
        (f, g)
        for f, g in order
        if not any((f, h) in order and (h, g) in order for h in range(len(m)))
    )


def _divides(m: FiniteCommutativeMonoid) -> list[set[int]]:
    # divides[u] = principal ideal uS (u itself included: identity present).
    return [set(m.table[u]) for u in range(len(m))]


def mutual_divisibility_classes(
    m: FiniteCommutativeMonoid,
) -> list[tuple[int, ...]]:
    """Classes of elements dividing each other, sorted by smallest member."""
    ideal = _divides(m)
    classes: dict[frozenset[int], list[int]] = {}
    for u in range(len(m)):
        classes.setdefault(frozenset(ideal[u]), []).append(u)
    return sorted((tuple(sorted(c)) for c in classes.values()), key=min)


def maximal_subgroup(
    m: FiniteCommutativeMonoid, f: int
) -> FiniteCommutativeMonoid:
    """The largest group inside m whose identity is the idempotent f.

    Its members are exactly the elements mutually divisible with f, listed
    f first (the identity of every monoid is element 0) and then in order."""
    if m.table[f][f] != f:
        raise ValueError("maximal subgroups sit at idempotents")
    ideal = _divides(m)
    members = [f] + [u for u in range(len(m)) if u != f and ideal[u] == ideal[f]]
    local = {u: i for i, u in enumerate(members)}
    table = tuple(
        tuple(local[m.table[a][b]] for b in members) for a in members
    )
    names = tuple(m.names[u] for u in members)
    return FiniteCommutativeMonoid(
        names=names,
        table=table,
        generator_map=dict(zip(names, range(len(members)))),
    )


def kernel_ideal(m: FiniteCommutativeMonoid) -> tuple[int, ...]:
    """The unique minimal ideal: the elements of minimal rank |uS|."""
    ideal = _divides(m)
    least = min(len(s) for s in ideal)
    return tuple(sorted(u for u in range(len(m)) if len(ideal[u]) == least))


class RFactor(NamedTuple):
    """A quotient layer: one divisibility class with a zero adjoined.

    Products falling out of the class collapse to the zero at local index 0."""

    members: tuple[int, ...]
    names: tuple[str, ...]
    table: tuple[tuple[int, ...], ...]
    label: str


def _factor_of(m: FiniteCommutativeMonoid, members: tuple[int, ...]) -> RFactor:
    local = {u: i + 1 for i, u in enumerate(members)}
    k = len(members)
    table = [[0] * (k + 1) for _ in range(k + 1)]
    for a in members:
        for b in members:
            table[local[a]][local[b]] = local.get(m.table[a][b], 0)
    # A mutual-divisibility class of a finite commutative monoid is an
    # H-class, and by Green's theorem an H-class is a group as soon as one
    # product of two members stays inside it.  So the square of the first
    # member decides: inside, the class is a group; outside, no product
    # stays inside and the factor is null.  A group of four whose squares all
    # agree squares to its identity.
    if not table[1][1]:
        label = f"null({k})"
    elif k == 4 and len({table[i][i] for i in range(1, 5)}) == 1:
        label = "K4+0"
    else:
        label = f"group({k})+0"
    return RFactor(
        members=members,
        names=("0",) + tuple(m.names[u] for u in members),
        table=tuple(tuple(row) for row in table),
        label=label,
    )


class PrincipalSeries(NamedTuple):
    """Maximal descending chain of ideals S = S_1 > S_2 > ... > S_k > ()."""

    chain: tuple[tuple[int, ...], ...]
    classes: tuple[tuple[int, ...], ...]
    factors: tuple[RFactor, ...]


def principal_series(m: FiniteCommutativeMonoid) -> PrincipalSeries:
    ideal = _divides(m)
    classes = mutual_divisibility_classes(m)
    remaining = list(classes)
    current = tuple(range(len(m)))
    chain = [current]
    removed: list[tuple[int, ...]] = []
    factors: list[RFactor] = []
    while remaining:
        # A class is removable when deleting it leaves an ideal: nothing
        # still present may divide into it from outside.
        live = {u for c in remaining for u in c}
        removable = [
            c
            for c in remaining
            if not any(
                c[0] in ideal[u] for u in live if u not in c
            )
        ]
        if not removable:
            raise InternalError("no removable divisibility class")
        choice = min(removable, key=min)
        remaining.remove(choice)
        removed.append(choice)
        factors.append(_factor_of(m, choice))
        current = tuple(u for u in current if u not in choice)
        chain.append(current)
    return PrincipalSeries(
        chain=tuple(chain), classes=tuple(removed), factors=tuple(factors)
    )


class TameIsland(NamedTuple):
    """A maximal subgroup all of whose elements square to its identity.

    Such a subgroup multiplies exactly like nim values under addition; the
    reading maps a greedy basis to powers of two and every member to the
    xor of its basis parts, with the usual genus attached.  The reading is
    reported, not certified."""

    idempotent: int
    members: tuple[int, ...]
    nim_reading: dict[int, int]
    genus_reading: dict[int, GenusSymbol]


def _tame_genus(value: int) -> GenusSymbol:
    if value == 0:
        return GenusSymbol(0, (0, 2))
    if value == 1:
        return GenusSymbol(1, (1, 3))
    return GenusSymbol(value, (value, value ^ 2))


def tame_islands(qa) -> list[TameIsland]:
    """Islands of a quotient analysis (or of a bare monoid)."""
    m = getattr(qa, "monoid", qa)
    ideal = _divides(m)
    islands = []
    for f in idempotents(m):
        members = tuple(
            sorted(u for u in range(len(m)) if ideal[u] == ideal[f])
        )
        if not all(m.table[u][u] == f for u in members):
            continue
        # Greedy basis: members not yet spanned, in element order, become
        # fresh powers of two; every member is then a xor of basis parts.
        reading = {f: 0}
        power = 1
        for u in members:
            if u in reading:
                continue
            for v, bits in list(reading.items()):
                reading[m.table[v][u]] = bits | power
            power <<= 1
        islands.append(
            TameIsland(
                idempotent=f,
                members=members,
                nim_reading={u: reading[u] for u in members},
                genus_reading={u: _tame_genus(reading[u]) for u in members},
            )
        )
    return islands
