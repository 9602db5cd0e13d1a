"""Proof machinery for candidate quotients.

A candidate analysis asserts an outcome for every position through its
pretending function.  Those assertions are correct to heap size n exactly
when (1) no position asserted P has a move to a position asserted P, and
(2) every non-endgame position asserted N has a move to a position asserted
P.  Both conditions reduce to finite checks over the monoid:

(1) ranges over translates u * (phi(h_f), phi(t)) of the finitely many move
pairs; (2) ranges over pairs (U, s) of a set U of distinct heaps and a
multiplier s drawn from the submonoid S(U) generated by U's elements, since
every position with support U and extra copies of its heaps factors that way,
and every such (U, s) is realized by some concrete position.

The N-to-P half is one memoized search over sets of distinct heap values.
It skips every subtree that holds no failing case (U, s) and lists the
failing cases of the rest, so a failing run walks the paths to its failures
rather than the whole tree.

Heaps with no moves at all need care under (2): a position made entirely of
them has no move to anything, yet the player to move has already won under
misere play.  Such all-dead products are checked separately for the correct
outcome label and are exempt from the winning-move requirement.

A certified period turns correctness to one finite heap size into
correctness everywhere (the translate sets stop changing), which is the
final deliverable of this module.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .octal import GameCode
from .oracle import MISERE, BudgetExceededError, _game
from .builder import QuotientAnalysis, phi_heap

__all__ = [
    "MovePair",
    "Translate",
    "VerificationReport",
    "move_pairs",
    "translates_for_basis",
    "check_no_PP",
    "submonoid_of",
    "solutions_for",
    "winning_moves",
    "check_N_to_P",
    "verify_to_heap",
    "certify_period",
]


@dataclass(frozen=True)
class MovePair:
    """Elements (phi(h_f), phi(t)) of some legal move h_f -> t, with the
    smallest witnessing move recorded."""

    lhs: int
    rhs: int
    source: tuple[int, tuple[int, ...]]


@dataclass(frozen=True)
class Translate:
    basis: int
    pair: MovePair
    start: int
    end: int


@dataclass
class VerificationReport:
    n: int
    pp_violations: list[Translate]
    np_failures: list[tuple[int, tuple[int, ...], int]]
    passed: bool
    stats: dict


def _phi(qa: QuotientAnalysis, heap: int) -> int:
    # Claimed-period extension is allowed here: verification is exactly the
    # step that turns the claim into a certificate.
    return phi_heap(qa, heap, claimed_ok=True)


def _move_targets(qa: QuotientAnalysis, h: int) -> list[tuple[tuple[int, ...], int]]:
    """(t, phi(t)) for every move h -> t, ordered by t: the one place that
    computes the element a move lands on."""
    product = qa.monoid.product
    return [(t, product(_phi(qa, x) for x in t)) for t in _game(qa.code).move_row(h)]


def _distinct_pairs(qa: QuotientAnalysis, targets_by_heap) -> set[MovePair]:
    """move_pairs from (f, _move_targets(qa, f)) items in increasing f."""
    found: dict[tuple[int, int], tuple[int, tuple[int, ...]]] = {}
    for f, targets in targets_by_heap:
        lhs = _phi(qa, f)
        for t, rhs in targets:
            found.setdefault((lhs, rhs), (f, t))
    return {MovePair(lhs, rhs, src) for (lhs, rhs), src in found.items()}


def move_pairs(qa: QuotientAnalysis, n: int) -> set[MovePair]:
    """One pair per distinct (phi(h_f), phi(t)) over all moves of ``qa.code``
    with f <= n."""
    return _distinct_pairs(qa, ((f, _move_targets(qa, f)) for f in range(1, n + 1)))


def translates_for_basis(
    qa: QuotientAnalysis, n: int, basis: int
) -> list[tuple[int, tuple[int, ...], int, int]]:
    """Every single move f -> t with f <= n translated by one basis element,
    as (f, t, basis*phi(h_f), basis*phi(t)), ordered by (f, t).  This is the
    per-move view; check_no_PP works with the deduplicated pairs instead."""
    row = qa.monoid.table[basis]
    return [
        (f, t, row[_phi(qa, f)], row[el])
        for f in range(1, n + 1)
        for t, el in _move_targets(qa, f)
    ]


def check_no_PP(
    qa: QuotientAnalysis, n: int, pairs: set[MovePair] | None = None
) -> list[Translate]:
    """All translates u*(pair) landing P -> P; empty list proves half (1)."""
    if pairs is None:
        pairs = move_pairs(qa, n)
    table = qa.monoid.table
    p_set = qa.partition.p_set
    bad = []
    for u in range(len(qa.monoid)):
        row = table[u]
        for pair in pairs:
            if row[pair.lhs] in p_set and row[pair.rhs] in p_set:
                bad.append(Translate(u, pair, row[pair.lhs], row[pair.rhs]))
    return sorted(bad, key=lambda t: (t.basis, t.pair.lhs, t.pair.rhs))


# ---------------------------------------------------------------------------
# the N-to-P half


def _bits(mask: int):
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _closure_add(table, mask: int, g: int) -> int:
    """Submonoid closure of the elements in mask (already a submonoid) plus
    generator g, as a bitmask.

    Since mask is closed, every new element is old * g^k, so it is enough to
    saturate under multiplication by g alone."""
    row = table[g]
    frontier = [row[x] for x in _bits(mask)]
    while frontier:
        e = frontier.pop()
        if not mask >> e & 1:
            mask |= 1 << e
            frontier.append(row[e])
    return mask


class _Context:
    """Per-(qa, n) data shared by the subset scans."""

    def __init__(self, qa: QuotientAnalysis, n: int):
        self.qa = qa
        self.n = n
        m = qa.monoid
        self.table = m.table
        k = len(m)
        p_set = qa.partition.p_set
        # goodmask[b]: bit e set iff b*e is an asserted P element.
        self.goodmask = [
            sum(1 << e for e in range(k) if m.table[b][e] in p_set)
            for b in range(k)
        ]
        self.live: list[int] = []
        self.dead: list[int] = []
        self.heap_phi: dict[int, int] = {}
        self.heap_targets: dict[int, list[tuple[tuple[int, ...], int]]] = {}
        self.heap_targetmask: dict[int, int] = {}
        for h in range(1, n + 1):
            self.heap_phi[h] = _phi(qa, h)
            targets = self.heap_targets[h] = _move_targets(qa, h)
            self.heap_targetmask[h] = 0
            for _, el in targets:
                self.heap_targetmask[h] |= 1 << el
            (self.live if targets else self.dead).append(h)
        self.by_value: dict[int, list[int]] = {}
        for h in self.live:
            self.by_value.setdefault(self.heap_phi[h], []).append(h)
        self._bad_heaps: dict[tuple[int, int], list[int]] = {}
        self._closures: dict[tuple[int, int], int] = {}

    def closure_add(self, mask: int, g: int) -> int:
        """S(U) as a bitmask after adding generator g to the submonoid mask."""
        key = (mask, g)
        got = self._closures.get(key)
        if got is None:
            got = self._closures[key] = _closure_add(self.table, mask, g)
        return got

    def bad_heaps(self, value: int, base: int) -> list[int]:
        """Heaps of this phi value with no move target landing in P after
        multiplication by base."""
        key = (value, base)
        got = self._bad_heaps.get(key)
        if got is None:
            good = self.goodmask[base]
            got = [
                h for h in self.by_value[value]
                if not (self.heap_targetmask[h] & good)
            ]
            self._bad_heaps[key] = got
        return got


def _scan_naive(ctx: _Context, watch: frozenset[int], budget: int | None):
    """Enumerate all nonempty sets of distinct live heaps."""
    table = ctx.table
    goodmask = ctx.goodmask
    failures: list[tuple[int, tuple[int, ...], int]] = []
    cases: dict[int, int] = {}
    stats = {"nodes": 0, "evaluations": 0, "states": 0}
    identity = ctx.qa.monoid.identity_index
    live = ctx.live

    def descend(i, heaps, submonoid, product, derivs):
        for j in range(i, len(live)):
            h = live[j]
            phi = ctx.heap_phi[h]
            heaps2 = heaps + (h,)
            derivs2 = tuple(table[d][phi] for d in derivs) + (product,)
            product2 = table[product][phi]
            sub2 = ctx.closure_add(submonoid, phi)
            stats["nodes"] += 1
            for s in _bits(sub2):
                omega = table[s][product2]
                if omega not in watch:
                    continue
                stats["evaluations"] += 1
                if budget is not None and stats["evaluations"] > budget:
                    raise BudgetExceededError("subset scan exceeded budget")
                cases[omega] = cases.get(omega, 0) + 1
                if not any(
                    ctx.heap_targetmask[heaps2[i2]]
                    & goodmask[table[s][derivs2[i2]]]
                    for i2 in range(len(heaps2))
                ):
                    failures.append((omega, heaps2, s))
            descend(j + 1, heaps2, sub2, product2, derivs2)

    descend(0, (), 1 << identity, identity, ())
    return failures, cases, stats


def _multiplicities(ctx: _Context, v: int) -> tuple[int, ...]:
    # Two heaps of one value are the most a failing case ever needs: a third
    # copy folds into the multiplier s.
    return (1, 2) if len(ctx.by_value[v]) >= 2 else (1,)


def _witness(ctx: _Context, chosen, s: int) -> tuple[int, ...]:
    """Heaps of a failing collapsed case: for each chosen (v, mu), the first
    mu heaps of value v with no move into P at base s*d, d the rest of the
    chosen product."""
    table = ctx.table
    heaps: list[int] = []
    for i, (v, mu) in enumerate(chosen):
        base = s
        for j, (v2, mu2) in enumerate(chosen):
            for _ in range(mu2 - (i == j)):
                base = table[base][v2]
        heaps.extend(ctx.bad_heaps(v, base)[:mu])
    return tuple(sorted(heaps))


def _scan_collapsed(ctx: _Context, watch: frozenset[int], budget: int | None):
    """Enumerate sets of distinct phi values with a one-heap or two-heap flag,
    by memoized search.

    Sound and complete against the naive scan: extra copies of a value fold
    into s (the value generates part of S(U)), and a failing combination is
    realizable exactly when each chosen value has at least as many heaps
    failing against its base as the flag demands.

    Call G the set of elements x at which every chosen (v, mu) still fails:
    at least mu heaps of value v have no move into P at base x*d, with d the
    rest of the product.  Whether a subtree holds a failing case depends only
    on the next value index, the product P so far, S(U) so far and G.  Adding
    (v, mu) maps G to {x : x*v^mu in G and (v, mu) fails at x*P*v^(mu-1)},
    and the new node fails at exactly the s in G, in S(U) and with s*P in
    watch.  Those four are the memo key, as bitmasks.  A subtree is skipped
    when its G is empty or its key is memoized as holding no failure; one
    that holds a failure is walked again, since witnesses depend on the path.
    An evaluation is one (state, s) pair: a node that survives the pruning,
    and s in S(U) with s*P in watch.  They are counted per omega in
    ``cases``.
    """
    table = ctx.table
    k = len(table)
    values = sorted(ctx.by_value)
    mus = [_multiplicities(ctx, v) for v in values]
    # preimages[a][y]: the x with x*a = y, as a bitmask.
    preimages = [[0] * k for _ in range(k)]
    for a in range(k):
        inv = preimages[a]
        for x, y in enumerate(table[a]):
            inv[y] |= 1 << x

    def preimage(a: int, mask: int) -> int:
        inv = preimages[a]
        out = 0
        for y in _bits(mask):
            out |= inv[y]
        return out

    # fails[(v, mu)]: the bases b at which at least mu heaps of value v have
    # no move into P.
    fails = {}
    for v, options in zip(values, mus):
        counts = [len(ctx.bad_heaps(v, b)) for b in range(k)]
        for mu in options:
            fails[v, mu] = sum(1 << b for b in range(k) if counts[b] >= mu)
    fails_at: dict[tuple[int, int, int], int] = {}
    watch_mask = sum(1 << w for w in watch)
    watched_by: dict[int, int] = {}
    failures: list[tuple[int, tuple[int, ...], int]] = []
    cases: dict[int, int] = {}
    stats = {"nodes": 0, "evaluations": 0}
    memo: dict[tuple[int, int, int, int], bool] = {}
    chosen: list[tuple[int, int]] = []

    def descend(i, g_mask, product, submonoid):
        key = (i, g_mask, product, submonoid)
        if memo.get(key) is False:
            return
        listed = len(failures)
        for j in range(i, len(values)):
            v = values[j]
            sub2 = ctx.closure_add(submonoid, v)
            for mu in mus[j]:
                v_mu, base = (v, product) if mu == 1 else (
                    table[v][v], table[product][v]
                )
                stats["nodes"] += 1
                fkey = (v, mu, base)
                f_mask = fails_at.get(fkey)
                if f_mask is None:
                    f_mask = fails_at[fkey] = preimage(base, fails[v, mu])
                g2 = f_mask and preimage(v_mu, g_mask) & f_mask
                if not g2:
                    continue
                product2 = table[product][v_mu]
                w_mask = watched_by.get(product2)
                if w_mask is None:
                    w_mask = watched_by[product2] = preimage(product2, watch_mask)
                hits = sub2 & w_mask
                row = table[product2]
                for s in _bits(hits):
                    stats["evaluations"] += 1
                    if budget is not None and stats["evaluations"] > budget:
                        raise BudgetExceededError("subset scan exceeded budget")
                    omega = row[s]
                    cases[omega] = cases.get(omega, 0) + 1
                chosen.append((v, mu))
                for s in _bits(g2 & hits):
                    failures.append((row[s], _witness(ctx, chosen, s), s))
                descend(j + 1, g2, product2, sub2)
                chosen.pop()
        memo[key] = len(failures) > listed

    identity = ctx.qa.monoid.identity_index
    descend(0, (1 << k) - 1, identity, 1 << identity)
    stats["states"] = len(memo)
    return failures, cases, stats


def submonoid_of(qa: QuotientAnalysis, heaps) -> tuple[int, ...]:
    """S(U): the submonoid generated by the elements of the given heaps."""
    mask = 1 << qa.monoid.identity_index
    for h in heaps:
        mask = _closure_add(qa.monoid.table, mask, _phi(qa, h))
    return tuple(_bits(mask))


def solutions_for(qa: QuotientAnalysis, omega: int, heaps) -> tuple[int, ...]:
    """All s in the whole monoid with s * phi(U) = omega, ascending.

    Only the ones also in submonoid_of(qa, heaps) can come from a real
    position with support U; the subset scan ranges over exactly those."""
    product = qa.monoid.product(_phi(qa, h) for h in heaps)
    table = qa.monoid.table
    return tuple(
        s for s in range(len(qa.monoid)) if table[s][product] == omega
    )


def _iter_winning_moves(qa: QuotientAnalysis, heaps, s: int):
    """Lazily, by heap and then by t, every move h -> t of winning_moves."""
    heaps = tuple(sorted(heaps))
    table = qa.monoid.table
    p_set = qa.partition.p_set
    for i, h in enumerate(heaps):
        others = qa.monoid.product(
            _phi(qa, x) for j, x in enumerate(heaps) if j != i
        )
        row = table[table[s][others]]
        for t, el in _move_targets(qa, h):
            if row[el] in p_set:
                yield h, t, row[el]


def winning_moves(qa: QuotientAnalysis, heaps, s: int):
    """Every move h -> t from the case (U, s) whose translated target is an
    asserted P element, as (h, t, target element)."""
    return list(_iter_winning_moves(qa, heaps, s))


def check_N_to_P(
    qa: QuotientAnalysis,
    n: int,
    omega: int,
    *,
    collapse: bool = True,
    budget: int | None = None,
) -> list[tuple[int, tuple[int, ...], int]]:
    """Failing cases (omega, U, s) with no winning move; empty proves the
    N-to-P half for this element."""
    if omega not in qa.partition.n_set:
        raise ValueError("check_N_to_P expects an asserted N element")
    ctx = _Context(qa, n)
    scan = _scan_collapsed if collapse else _scan_naive
    failures, _, _ = scan(ctx, frozenset([omega]), budget)
    return failures


def verify_to_heap(
    qa: QuotientAnalysis,
    n: int,
    *,
    collapse: bool = True,
    budget: int | None = None,
) -> VerificationReport:
    """Run both induction halves for every asserted N element.

    ``collapse=False`` runs the naive subset scan, the reference that the
    collapsed scan is tested against."""
    ctx = _Context(qa, n)
    pairs = _distinct_pairs(qa, ctx.heap_targets.items())
    pp = check_no_PP(qa, n, pairs)
    scan = _scan_collapsed if collapse else _scan_naive
    failures, cases, stats = scan(ctx, qa.partition.n_set, budget)

    # All-dead positions have no moves: their label must be N under misere
    # play (the player to move has already won) and P under normal play.
    table = qa.monoid.table
    dead_failures: list[tuple[int, tuple[int, ...], int]] = []
    required = qa.partition.n_set if qa.play is MISERE else qa.partition.p_set
    reachable: dict[int, tuple[int, ...]] = {qa.monoid.identity_index: ()}
    frontier = [qa.monoid.identity_index]
    while frontier:
        u = frontier.pop()
        for h in ctx.dead:
            v = table[u][ctx.heap_phi[h]]
            if v not in reachable:
                reachable[v] = reachable[u] + (h,)
                frontier.append(v)
    for el, heaps in sorted(reachable.items()):
        if el not in required:
            dead_failures.append((el, heaps, qa.monoid.identity_index))

    np_failures = sorted(failures + dead_failures)
    stats = dict(stats)
    stats["cases_by_omega"] = {k: cases[k] for k in sorted(cases)}
    stats["move_pairs"] = len(pairs)
    stats["dead_heaps"] = list(ctx.dead)
    return VerificationReport(
        n=n,
        pp_violations=pp,
        np_failures=np_failures,
        passed=not pp and not np_failures,
        stats=stats,
    )


def _certificate_window(code: GameCode, r0: int, p: int) -> int:
    """Heap size to which certify_period verifies the period (r0, p)."""
    return 2 * r0 + p + code.places - 1


def certify_period(
    qa: QuotientAnalysis,
    r0: int,
    p: int,
    *,
    budget: int | None = None,
) -> QuotientAnalysis | None:
    """Prove the analysis correct for every heap size.

    Requires the stored values to actually repeat with period p from r0 on,
    with at least one full period stored.  Verifies correctness to heap size
    2*r0 + p + places - 1; past that bound the translate sets repeat, so the
    quotient decides all larger heaps too.  Returns the certified analysis,
    or None when the verification fails.
    """
    # Raises ValueError when the stored values break the period or do not
    # cover one full period.
    claimed = replace(qa.phi, claimed_period=(r0, p))
    n_window = _certificate_window(qa.code, r0, p)
    candidate = replace(qa, phi=claimed)
    report = verify_to_heap(candidate, n_window, budget=budget)
    if not report.passed:
        return None
    return replace(
        candidate, verified_to=n_window, certified_period=(r0, p)
    )
