"""Lattice-point counting for shifted polytopes.

The central quantity is the number of integer points captured by ``p + s``
for a shift ``s`` in the half-open unit cube.  Counting is closed-set:
points on the boundary are counted *and* reported, so callers can detect
non-generic shifts and resample.  Stream shifts are dyadic, ``m / 2**64``
with integer ``m``: exact, and almost surely generic.

A shift is a rational vector at `count_at`, which reduces it modulo Z^d
and translates the boundary hits back; inside the kernel it is integer
numerators ``m`` over one denominator ``D``.

The counter works on integer rows ``a . x <= b``: as ``a . z`` is an
integer, ``a . (z - m/D) <= b`` iff ``a . z <= b + floor(a . m / D)``, so
residuals are small ints and a row can be tight only when ``D | a . m``
(for a generic dyadic shift, never).  One ``divmod(a . m, D)`` per body
row gives both the floor and, by a zero remainder, the tightness.  Lattice
points are enumerated depth first, one coordinate per level, counting whole
fibers along the last; stepping a coordinate subtracts its column from the
residuals.  Level k
takes its range from the rows of the body's projection onto coordinates
0..k, which the shift moves by ``s[:k+1]``: z_k ranges exactly over that
projection's fiber above the prefix, so every visited fiber meets the body
and no lattice point is lost.

So the count is a function of the floor vector ``floor(a . s)`` over the
body's rows, which names the cell of s in the arrangement ``a . x in Z``,
whether or not a row is tight at s; only the boundary hits need the shift
itself.  The scalar counter, `count_at`, walks every shift afresh.

Sampling draws and counts in blocks of at most ``_BLOCK`` stream shifts:
one pass over the block per body row gives every draw's floor vector, and
each distinct cell in the block is read from the body's memo or counted
once, at its first draw, and then memoized, up to ``_MEMO_CAP`` cells per
body.  An empty body counts 0 at every draw, and so does a flat one, whose
equality rows miss Z^d unless tight.  A draw where some row is tight is
also walked on its own, which finds its boundary hits.  `generic_draws`
drops a draw where some body has one; `stream_counts` keeps every draw and
gets the hits from `count_at`.  Blocks are yielded one at a time, so
memory is bounded by ``_BLOCK`` draws, not by the sample size.

A new cell one or two crossings from a counted cell is stepped from it
rather than walked.  Along the segment between their draws each row's
``a . x`` is linear, so the segment crosses the planes ``a . x = c``
exactly ``|key_i - key0_i|`` times per row, and at each crossing point s*
the count gains or loses the lattice points of the facet ``F_i + s*``
(Barvinok 1994; De Loera et al. 2004, LattE): a unimodular W whose first
row is ``a_i`` maps them onto the lattice points of a (d-1)-polytope G_i
at the shift ``(W s*)[1:]``, counted by the same walk.  A row and its
negation cross together, and need both facet counts; any other coincident
crossings, a facet count with a boundary hit, or a tight row at either
draw leave the cell to the walk.  A deterministic cost model in units of
walk work picks the step only where its facet counts cost less than the
walk, so bodies below three dimensions and small bodies are walked
throughout.  `count_at` never steps: it stays the full walk, an
independent path for verifier witnesses and the tests' oracle.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import add, and_, floordiv, lshift, mul, neg, rshift, sub
from typing import Iterable, Iterator, Sequence

from .errors import DegenerateInput, NotConstant
from .geometry import (Body, IVec, Polytope, PolytopeUnion, Vec, _homogenize, as_vec, determinant,
                       minkowski_sum, parse_json_rows, parse_rational, segment, zero_vec)

DYADIC_BITS = 64
_DYADIC_DEN = 1 << DYADIC_BITS
_DYADIC_MASK = _DYADIC_DEN - 1
_MEMO_CAP = 4096  # cells memoized per body; later cells are counted but not stored
_BLOCK = 256  # stream draws counted together by generic_draws
# the costs the counter weighs a step against a walk by, in units of a
# walk's work (one residual updated at one visited value)
_VISIT_COST = 8  # a value the walk visits, beyond its residual updates
_WALK_COST = 100  # a walk's fixed cost, also paid by each facet count
_STEP_COST = 600  # a step's fixed cost: finding the crossings and their points
_PROBE_COST = 1000  # probing the cells two crossings away
_CODE_BITS = 24  # bits per key entry in a cell's code


def seeded_random(seed: int) -> random.Random:
    """``random.Random(seed)`` for a nonnegative seed."""
    if seed < 0:
        # random.seed takes |seed|, so a negative seed would replay another stream
        raise DegenerateInput(f"seed must be nonnegative, got {seed}")
    return random.Random(seed)


class ShiftStream:
    """Deterministic stream of dyadic shifts for one nonnegative generator seed."""

    def __init__(self, dim: int, seed: int = 0):
        self.dim = dim
        self._rng = seeded_random(seed)
        self._bits = (DYADIC_BITS,) * dim

    def numerators(self) -> IVec:
        """The next shift's numerators over ``2**DYADIC_BITS``."""
        return tuple(map(self._rng.getrandbits, self._bits))

    def block(self, k: int) -> list[list[int]]:
        """The numerators of the next k shifts, column by column: entry i
        lists coordinate i of each draw.  Consumes the generator exactly as
        k calls of `numerators` do."""
        flat = list(map(self._rng.getrandbits, itertools.repeat(DYADIC_BITS, k * self.dim)))
        return [flat[i::self.dim] for i in range(self.dim)]

    def draw(self) -> Vec:
        """The next shift as a rational vector."""
        return tuple(Fraction(x, _DYADIC_DEN) for x in self.numerators())


@dataclass(frozen=True)
class CountResult:
    """Count plus the lattice points found exactly on the boundary."""

    count: int
    boundary_hits: tuple[tuple[int, ...], ...] = ()

    @property
    def is_generic(self) -> bool:
        return not self.boundary_hits


_NONE = CountResult(0)


def _folded_rows(p: Polytope) -> list:
    """p's integer rows ``(a, b, is_equality)`` for ``a . x <= b``, equalities as pairs."""
    eqs, ineqs = p.integer_description()
    rows = [(a, b, False) for a, b in ineqs]
    for a, b in eqs:
        rows += [(a, b, True), (tuple(-x for x in a), -b, True)]
    return rows


class _CountPlan:
    """Shift-independent counting data of one nonempty polytope, built on its first count.

    Level k < d - 1 holds the rows of p's projection onto coordinates 0..k
    with a_k != 0, unpadded; rows with a_k = 0 are implied by the earlier
    levels.  ``levels[k]`` is (row count, first row with a_k > 0, the others,
    first row with a_k < 0, the others), rows as (index in level, |a_k|).
    The body's rows follow, ordered by the sign of a_last: positive below
    ``npos``, negative below ``nnz``, then zero; ``divs`` holds their |a_last|
    unless all are 1, ``eq_rows`` the folded equalities.  ``cols[k]`` is
    column k of the rows after level k.

    Only the block sampler, `_cell_counts`, reads or writes the rest.
    ``memo`` maps the floor vector (key) of the body's rows to the count in
    that cell; ``origins`` maps the code (`_code`) of a memoized cell whose
    first draw has no tight row to (key, that draw's numerators, count), the
    start of a segment to step a new cell from.  ``cost`` is a walk's cost,
    ``moves`` the key changes worth stepping across, cheapest first, and
    ``facets`` each crossed row's facet data (`_facet`); all three are
    built on first need.
    """

    __slots__ = ("rows", "rhs", "nlev", "cols", "levels", "npos", "nnz", "divs", "eq_rows",
                 "memo", "origins", "cost", "moves", "facets")

    def __init__(self, p: Polytope):
        rows, self.levels, ends = [], [], []
        for k in range(p.dim - 1):
            proj = Polytope(k + 1, [v[:k + 1] for v in p.numerators], den=p.denominator)
            level = [r for r in _folded_rows(proj) if r[0][k]]
            pos = [(j, a[k]) for j, (a, _, _) in enumerate(level) if a[k] > 0]
            neg = [(j, -a[k]) for j, (a, _, _) in enumerate(level) if a[k] < 0]
            self.levels.append((len(level), pos[0], pos[1:], neg[0], neg[1:]))
            rows += level
            ends.append(len(rows))
        self.nlev = len(rows)
        body = sorted(_folded_rows(p), key=lambda r: (r[0][-1] <= 0, r[0][-1] == 0))
        rows += body
        self.rows, self.rhs, eqs = zip(*rows)
        self.eq_rows = [j for j, e in enumerate(eqs[self.nlev:]) if e]
        last = tuple(a[-1] for a, _, _ in body)
        self.cols = [tuple(a[k] for a in self.rows[e:]) for k, e in enumerate(ends)] + [last]
        divs = [abs(c) for c in last if c]
        self.npos, self.nnz = sum(c > 0 for c in last), len(divs)
        self.divs = None if set(divs) == {1} else (divs[:self.npos], divs[self.npos:])
        self.memo: dict = {}
        self.origins: dict = {}
        self.cost: int | None = None
        self.moves: list | None = None
        self.facets: dict = {}


def _fiber_hits(R, tight, last, lo, hi, prefix) -> list:
    """The points of fiber ``prefix x [lo, hi]`` where a tight row is an equality, in order."""
    vals = set()
    for j in tight:
        a, r = last[j], R[j]
        if a == 0:
            if r == 0:
                return [prefix + (z,) for z in range(lo, hi + 1)]
        elif r % a == 0:
            vals.add(r // a)
    return [prefix + (z,) for z in sorted(vals) if lo <= z <= hi]


def _plan(p: Polytope) -> _CountPlan | None:
    """p's counting data, built on its first count; None when p is empty."""
    if p._count_plan is None and not p.is_empty:
        p._count_plan = _CountPlan(p)
    return p._count_plan


def _walk(plan: _CountPlan, m: IVec, D: int) -> tuple[int, list, int]:
    """(count, boundary hits, work) of the plan's body at shift m/D, for m
    in [0, D)^d; work is the residuals the walk updates plus
    ``_VISIT_COST``, summed over the values it visits at each level."""
    d, nlev, rhs = len(plan.cols), plan.nlev, plan.rhs
    # floor and remainder of a . m / D per body row: a row is tight when the
    # remainder is 0, and an equality must be, or the flat body misses Z^d
    floors, rems = zip(*[divmod(sum(map(mul, a, m)), D) for a in plan.rows[nlev:]])
    if any(rems[j] for j in plan.eq_rows):
        return 0, [], 0
    tight = [j for j, r in enumerate(rems) if not r]
    R = [b + sum(map(mul, a, m)) // D for a, b in zip(plan.rows[:nlev], rhs)]
    R += map(add, rhs[nlev:], floors)
    cols, levels, npos, nnz, divs = plan.cols, plan.levels, plan.npos, plan.nnz, plan.divs
    count = 0
    work = 0
    hits: list = []

    def fibers(R, prefix, zs, col):
        # whole fibers over prefix + z for z in zs, at residuals R, R - col, ...
        nonlocal count
        for z in zs:
            if divs is None:
                hi, lo = min(R[:npos]), -min(R[npos:nnz])
            else:
                hi = min(map(floordiv, R[:npos], divs[0]))
                lo = -min(map(floordiv, R[npos:nnz], divs[1]))
            if lo <= hi:
                count += hi - lo + 1
                if tight:
                    hits.extend(_fiber_hits(R, tight, cols[-1], lo, hi, prefix + z))
            R = list(map(sub, R, col))

    def walk(k, R, prefix):
        # z_k ranges over the fiber of the level-k projection above the
        # prefix; R holds the residuals of level k's rows and all after it
        nonlocal work
        n, (j, c), pos, (i, e), neg = levels[k]
        hi, lo = R[j] // c, -(R[i] // e)
        for j, c in pos:
            t = R[j] // c
            if t < hi:
                hi = t
        for j, c in neg:
            t = -(R[j] // c)
            if t > lo:
                lo = t
        if lo > hi:
            return
        col = cols[k]
        work += (hi - lo + 1) * (len(col) + _VISIT_COST)
        R = [r - lo * c for r, c in zip(R[n:], col)]
        if k + 2 == d:
            return fibers(R, prefix, zip(range(lo, hi + 1)), col)
        for z in range(lo, hi + 1):
            walk(k + 1, R, prefix + (z,) if tight else prefix)
            R = list(map(sub, R, col))

    if d == 1:
        fibers(R, (), ((),), cols[0])
    else:
        walk(0, R, ())
    return count, hits, work


def _count_polytope(p: Polytope, m: IVec, D: int) -> CountResult:
    """Exact count of z in Z^d with z in p + m/D, for m in [0, D)^d."""
    plan = _plan(p)
    if plan is None:
        return _NONE
    if len(m) != p.dim:
        raise DegenerateInput("shift dimension does not match the polytope")
    count, hits, _ = _walk(plan, m, D)
    return CountResult(count, tuple(hits))


def count_at(body: Body, shift) -> CountResult:
    """Number of lattice points inside ``body + shift`` (closed count).

    ``shift`` is any rational vector; it is reduced modulo Z^d and the
    boundary hits are translated back.  Unions count additively over their
    parts, matching the almost-sure additivity of counts over
    interior-disjoint families.  Every call walks the body afresh: it
    neither reads nor writes the memo that `generic_draws` keeps, and never
    steps a count from another cell's.
    """
    (full,), D = _homogenize([as_vec(shift)])
    m = tuple(x % D for x in full)
    parts = body.parts if isinstance(body, PolytopeUnion) else (body,)
    res = [_count_polytope(part, m, D) for part in parts]
    hits = tuple(z for r in res for z in r.boundary_hits)
    if m != full and hits:
        off = [x // D for x in full]
        hits = tuple(tuple(map(add, z, off)) for z in hits)
    return CountResult(sum(r.count for r in res), hits)


def _unimodular(a: IVec) -> list[list[int]]:
    """An integer matrix of determinant +-1 whose first row is the nonzero
    integer vector a over the gcd of its entries, by extended Euclid on
    them."""
    d = len(a)
    v = list(a)
    W = [[int(i == j) for j in range(d)] for i in range(d)]
    # a == v W throughout: subtracting q times entry k of v from entry j is
    # undone by adding q times row j of W to row k
    while True:
        nz = [j for j in range(d) if v[j]]
        k = min(nz, key=lambda j: abs(v[j]))
        if len(nz) == 1:
            break
        for j in nz:
            if j != k:
                q = v[j] // v[k]
                v[j] -= q * v[k]
                W[k] = [x + q * y for x, y in zip(W[k], W[j])]
    if v[k] < 0:
        W[k] = [-x for x in W[k]]
    W[0], W[k] = W[k], W[0]
    return W


def _cost(plan: _CountPlan) -> int:
    """A walk's cost: its fixed cost plus its work at the shift (1/3, ..., 1/3)."""
    if plan.cost is None:
        plan.cost = _WALK_COST + _walk(plan, (1,) * len(plan.cols), 3)[2]
    return plan.cost


def _facet(p: Polytope, plan: _CountPlan, i: int) -> tuple:
    """(rows 1.. of W, G's plan, G's walk cost) for body row i, ``a . x <= b``:
    W is unimodular with first row a over the gcd of its entries, so
    ``y = (W x)[1:]`` maps the lattice points of each plane ``a . x = c``
    (there are none unless that gcd divides c) onto Z^(d-1), and G is the
    facet ``p ∩ {a . x = b}`` in y."""
    f = plan.facets.get(i)
    if f is None:
        a, b = plan.rows[plan.nlev + i], plan.rhs[plan.nlev + i]
        W = _unimodular(a)[1:]
        den = p.denominator
        on = [v for v in p.numerators if sum(map(mul, a, v)) == b * den]
        g = _plan(Polytope(p.dim - 1, [tuple(sum(map(mul, w, v)) for w in W) for v in on],
                           den=den))
        f = plan.facets[i] = (W, g, _cost(g))
    return f


def _code(key: IVec) -> int:
    """A cell's key packed into one int, additive in the key."""
    return sum(map(lshift, key, range(0, _CODE_BITS * len(key), _CODE_BITS)))


def _moves(p: Polytope, plan: _CountPlan) -> list:
    """(code, key change) of each move to a cell one or two crossings away
    whose step costs less than the walk, cheapest first; a move two
    crossings away must also pay for probing.  A crossing moves one row's
    key by +-1, and its negation's, if p has that row, by -+1; each row
    moved costs a count of its facet."""
    if plan.moves is None:
        body = plan.rows[plan.nlev:]
        index = {a: i for i, a in enumerate(body)}
        one = []
        for i, a in enumerate(body):
            j = index.get(tuple(map(neg, a)))
            if j is None or i < j:
                for e in (1, -1):
                    move = [0] * len(body)
                    move[i] = e
                    if j is not None:
                        move[j] = -e
                    one.append(tuple(move))
        two = {tuple(map(add, u, v)): None for u, v in
               itertools.combinations_with_replacement(one, 2)}
        two.pop((0,) * len(body), None)
        walk = _cost(plan)
        priced = []
        for moves, overhead in ((one, _STEP_COST), (two, _STEP_COST + _PROBE_COST)):
            for mv in moves:
                cost = overhead + sum(abs(e) * _facet(p, plan, i)[2] for i, e in enumerate(mv) if e)
                if cost < walk:
                    priced.append((cost, _code(mv), mv))
        plan.moves = [(code, mv) for _, code, mv in sorted(priced)]
    return plan.moves


def _near(table: dict, code: int, key: IVec, moves: list) -> Iterator[tuple[int, tuple]]:
    """(code, entry) of the entries of `table`, a dict keyed by cell code
    whose entries start with the cell's key, at the cells `moves` away from
    `key`."""
    for c, mv in moves:
        hit = table.get(code + c)
        if hit is not None and hit[0] == tuple(map(add, key, mv)):
            yield code + c, hit


def _step(p: Polytope, plan: _CountPlan, key: IVec, m: IVec, start: tuple) -> int | None:
    """p's count in cell `key` at its draw m, from the count of a nearby
    cell ``start = (key0, m0, count0)`` at its draw m0, or None where the
    step cannot be done.  No row is tight at m or m0.

    Along the segment from m0 to m, row i's ``a . x`` is linear, so it
    crosses the planes ``a . x = c`` for the |key_i - key0_i| integers c
    between; at each crossing point s* the count gains (a . x rising) or
    loses the lattice points of the facet ``F_i + s*``, which are those of
    G_i at ``(W s*)[1:]``.  The sum does not depend on the order of the
    crossings, but two at the same point must be one plane, a row and its
    negation: the crossing points are compared exactly, and any other two
    that coincide, or a facet count with a boundary hit, leave the count to
    the walk."""
    key0, m0, count = start
    D = _DYADIC_DEN
    delta = tuple(map(sub, m, m0))
    body = plan.rows[plan.nlev:]
    events = []  # (r, beta, row, sign, facet plan, W s* numerators, den): t = r / beta
    for i, (k0, k) in enumerate(zip(key0, key)):
        if k0 == k:
            continue
        W, g, _ = _facet(p, plan, i)
        a, b = body[i], plan.rhs[plan.nlev + i]
        alpha, beta = sum(map(mul, a, m0)), sum(map(mul, a, delta))
        sign, den = (1, D * beta) if beta > 0 else (-1, -D * beta)
        # s* = (m0 + t delta) / D, so W s* has numerators
        # |beta| W m0 + sign r W delta over den
        wm0 = [abs(beta) * sum(map(mul, w, m0)) for w in W]
        wd = [sign * sum(map(mul, w, delta)) for w in W]
        gcd = math.gcd(*a)
        for c in range(min(k0, k) + 1, max(k0, k) + 1):
            # the count moves at a . x = c, by the lattice points of
            # a . z = b + c, which has none unless gcd | b + c
            r = c * D - alpha
            events.append((r, beta, i, sign, g if (b + c) % gcd == 0 else None,
                           tuple((x + r * y) % den for x, y in zip(wm0, wd)), den))
    for (r, beta, i, *_), (u, gamma, j, *_) in itertools.combinations(events, 2):
        if r * gamma == u * beta and body[i] != tuple(map(neg, body[j])):
            return None
    for *_, sign, g, y, den in events:
        if g is not None:
            n, hits, _ = _walk(g, y, den)
            if hits:
                return None
            count += sign * n
    return count


def _new_counts(p: Polytope, plan: _CountPlan, new: dict, nums: list[IVec], tight: set) -> list:
    """(key, draw index, count) of each new cell of a block, given as key ->
    index of its first draw, in the order counted.

    A cell one or two crossings from a counted one, where no row is tight
    at either draw, is stepped from it (`_step`) where that costs less than
    the walk (`_moves`): first the cells next to a memoized cell, then,
    breadth first, the cells next to those counted in this block.  Where
    none is left next to a counted cell, the next one left is walked.  A
    body of fewer than three dimensions, or one whose walk costs no more
    than a step's fixed costs, is walked throughout."""
    steps = p.dim >= 3 and _cost(plan) > _STEP_COST + _WALK_COST
    out, pending = [], {}
    for key, j in new.items():
        if not steps or j in tight:
            out.append((key, j, _count_polytope(p, nums[j], _DYADIC_DEN).count))
        else:
            pending[_code(key)] = (key, j)
    moves = _moves(p, plan) if pending else None
    queue: collections.deque = collections.deque()
    if moves and plan.origins:
        for code, (key, j) in pending.items():
            start = next(_near(plan.origins, code, key, moves), None)
            if start is not None:
                queue.append((code, start[1]))
    while pending:
        if queue:
            code, start = queue.popleft()
            if code not in pending:
                continue
            key, j = pending.pop(code)
            count = _step(p, plan, key, nums[j], start)
        else:
            code = next(iter(pending))
            (key, j), count = pending.pop(code), None
        m = nums[j]
        if count is None:
            count = _count_polytope(p, m, _DYADIC_DEN).count
        out.append((key, j, count))
        if moves:
            queue.extend((c, (key, m, count)) for c, _ in _near(pending, code, key, moves))
    return out


def _cell_counts(p: Polytope, cols: list[list[int]], nums: list[IVec]) -> list:
    """p's count at each draw of a block given column by column (`cols`) and
    row by row (`nums`), None at a draw where p has a boundary hit.  Each
    cell of the block is read from p's memo, or counted once at its first
    draw, stepped from a nearby counted cell or walked (`_new_counts`), and
    memoized: the count depends only on the cell, even where a row is
    tight.  An empty body counts 0 everywhere, and so does a flat one where
    none of its rows is tight: an equality with a nonzero remainder misses
    Z^d.  A draw where a row is tight is walked on its own for its boundary
    hits."""
    plan = _plan(p)
    if plan is None:
        return [0] * len(nums)
    if len(cols) != p.dim:
        raise DegenerateInput("shift dimension does not match the polytope")
    floors = []
    tight: set = set()
    for a in plan.rows[plan.nlev:]:
        # a . m for every draw: the floor over 2**64 is a shift, and the row
        # is tight where the low 64 bits are 0
        terms = [col if c == 1 else map(neg, col) if c == -1 else map(c.__mul__, col)
                 for c, col in zip(a, cols) if c]
        dots = list(functools.reduce(functools.partial(map, add), terms))
        if 0 in map(and_, dots, itertools.repeat(_DYADIC_MASK)):
            tight.update(j for j, x in enumerate(dots) if not x & _DYADIC_MASK)
        floors.append(map(rshift, dots, itertools.repeat(DYADIC_BITS)))
    if plan.eq_rows:
        counts = [0] * len(nums)
    else:
        keys = list(zip(*floors))
        # each cell with the index of its first draw, then with its count
        cells = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))
        memo = plan.memo
        new = {}
        for key, j in cells.items():
            count = memo.get(key)
            if count is None:
                new[key] = j
            else:
                cells[key] = count
        for key, j, count in _new_counts(p, plan, new, nums, tight):
            cells[key] = count
            if len(memo) < _MEMO_CAP:
                memo[key] = count
                if j not in tight:
                    plan.origins[_code(key)] = (key, nums[j], count)
        counts = list(map(cells.__getitem__, keys))
    for j in tight:
        res = _count_polytope(p, nums[j], _DYADIC_DEN)
        counts[j] = None if res.boundary_hits else res.count
    return counts


def _block_counts(body: Body, cols: list[list[int]], nums: list[IVec]) -> list:
    """`_cell_counts` over a body; a union adds up its parts' counts, and
    has a boundary hit where a part has one."""
    if not isinstance(body, PolytopeUnion):
        return _cell_counts(body, cols, nums)
    parts = zip(*[_cell_counts(part, cols, nums) for part in body.parts])
    return [None if None in c else sum(c) for c in parts]


def generic_draws(stream: ShiftStream, bodies: Sequence[Body], n: int, tries: int = 64
                  ) -> Iterator[tuple[list[IVec], list[list[int]], list[int]]]:
    """The first n draws from `stream` generic for every body, in blocks of
    at most ``_BLOCK``: each block is (the draws' numerators over
    ``2**DYADIC_BITS``, per body the counts at those draws, per draw the
    draws rejected just before it).  Every body is counted at every draw of
    a block, and a draw where some body has a boundary hit is dropped; the
    stream is read no further than the n-th generic draw.  Boundary hits at
    dyadic shifts signal a degenerate instance rather than bad luck, so
    after `tries` rejected draws in a row this yields the draws taken so far
    and raises DegenerateInput."""
    run = 0  # draws rejected since the last one taken
    while n > 0:
        k = min(n, _BLOCK)
        cols = stream.block(k)
        nums = list(zip(*cols))
        counts = [_block_counts(b, cols, nums) for b in bodies]
        if not any(None in c for c in counts):
            yield nums, counts, [run] + [0] * (k - 1)
            run = 0
            n -= k
            continue
        taken: list[int] = []
        redraws: list[int] = []
        for j, row in enumerate(zip(*counts)):
            if None not in row:
                taken.append(j)
                redraws.append(run)
                run = 0
                continue
            run += 1
            if run >= tries:
                break
        if taken:
            yield [nums[j] for j in taken], [[c[j] for j in taken] for c in counts], redraws
            n -= len(taken)
        if run >= tries:
            raise DegenerateInput(
                f"no shift generic for every body in {tries} draws; degenerate instance")


def stream_counts(stream: ShiftStream, body: Body, n: int) -> Iterator[tuple[Vec, CountResult]]:
    """The next n draws from `stream`, in order, each with body's closed
    count there.  Each block of at most ``_BLOCK`` draws is counted by cell
    (`_block_counts`); `count_at` walks only a draw where the body has a
    boundary hit, for its closed count and hits."""
    while n > 0:
        k = min(n, _BLOCK)
        cols = stream.block(k)
        nums = list(zip(*cols))
        for m, count in zip(nums, _block_counts(body, cols, nums)):
            s = tuple(Fraction(x, _DYADIC_DEN) for x in m)
            yield s, count_at(body, s) if count is None else CountResult(count)
        n -= k


def generic_count(body: Body, seed: int = 0, *, trials: int = 8) -> int:
    """Almost-sure count of a body whose generic count is constant.

    Draws shifts until generic (`generic_draws`, with its default `tries`)
    and checks the count over several independent generic shifts;
    disagreement raises NotConstant, flagging misuse.
    """
    draws = generic_draws(ShiftStream(body.dim, seed), [body], trials)
    values = {c for _, (counts,), _ in draws for c in counts}
    if len(values) > 1:
        raise NotConstant(f"generic counts disagree: {sorted(values)}")
    return values.pop()


# ---------------------------------------------------------------------------
# parallelepipeds and zonotopes


def parallelepiped_index(generators: Sequence[Iterable]) -> int:
    """|det| of d generators = index of the spanned sublattice = the
    almost-sure lattice count of the parallelepiped they span."""
    gens = [as_vec(g) for g in generators]
    d = len(gens)
    if any(len(g) != d for g in gens):
        raise DegenerateInput("need d generators of length d")
    det = determinant(gens)
    if det == 0:
        raise DegenerateInput("generators are linearly dependent")
    if det.denominator != 1:
        raise DegenerateInput("generators must be integer vectors")
    return abs(int(det))


@dataclass(frozen=True)
class ZonotopeSpec:
    """Integer generators of a zonotope (Minkowski sum of segments)."""

    dim: int
    generators: tuple[Vec, ...]

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(as_vec(g) for g in self.generators))
        for g in self.generators:
            if len(g) != self.dim:
                raise DegenerateInput("generator length does not match dim")
            if any(c.denominator != 1 for c in g):
                raise DegenerateInput("zonotope generators must be integral")


def zonotope_constant(spec: ZonotopeSpec) -> int:
    """Sum of |det| over d-subsets of the generators.

    This equals the almost-sure count of the zonotope and its volume: the
    zonotope splits into one integer parallelepiped per nonsingular subset.
    """
    total = sum(abs(int(determinant(s))) for s in itertools.combinations(spec.generators, spec.dim))
    if total == 0:
        raise DegenerateInput("generators do not span the ambient space")
    return total


def zonotope_polytope(spec: ZonotopeSpec) -> Polytope:
    """The zonotope itself, built by folding Minkowski segment sums."""
    out = Polytope(spec.dim, [zero_vec(spec.dim)])
    for g in spec.generators:
        out = minkowski_sum(out, segment(zero_vec(spec.dim), g))
    return out


def zonotope_spec_from_json(data: dict) -> ZonotopeSpec:
    dim, raw = parse_json_rows(data, "generators", "zonotope")
    rows = tuple(tuple(parse_rational(x) for x in g) for g in raw)
    for g, row in zip(raw, rows):
        if any(c.denominator != 1 for c in row):
            raise DegenerateInput(f"zonotope generators must be integral, got {g!r}")
    return ZonotopeSpec(dim, rows)


def zonotope_spec_to_json(spec: ZonotopeSpec) -> dict:
    return {"dim": spec.dim, "generators": [[int(c) for c in g] for g in spec.generators]}
