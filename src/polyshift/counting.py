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

So at a generic shift the count is a function of the floor vector
``floor(a . s)`` over the body's rows, which names the cell of s in the
arrangement ``a . x in Z``.  Each body memoizes its generic counts by that
vector, whatever the shift's denominator; a count at a shift where some
row is tight, and so every count of a flat body, neither reads nor writes
the memo, and a memo holds at most ``_MEMO_CAP`` cells.

Sampling goes through one generator, `generic_draws`, which draws and
counts in blocks of at most ``_BLOCK`` stream shifts: one pass over the
block per body row gives every draw's floor vector, and each distinct cell
in the block is read from the memo or counted once, at its first draw.  An
empty body counts 0 at every draw, and so does a flat one, whose equality
rows miss Z^d unless tight.  A draw where some row is tight goes through
the scalar counter instead, in draw order.  Blocks are yielded one
at a time, so memory is bounded by ``_BLOCK`` draws, not by the sample size.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import add, and_, floordiv, mul, neg, rshift, sub
from typing import Iterable, Iterator, Sequence

from .errors import DegenerateInput, NotConstant
from .geometry import (Body, IVec, Polytope, PolytopeUnion, Vec, _homogenize, as_vec, determinant,
                       minkowski_sum, parse_json_rows, parse_rational, segment, zero_vec)

DYADIC_BITS = 64
_DYADIC_DEN = 1 << DYADIC_BITS
_DYADIC_MASK = _DYADIC_DEN - 1
_MEMO_CAP = 4096  # cells memoized per body; later cells are counted but not stored
_BLOCK = 256  # stream draws counted together by generic_draws


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
        self.seed = seed
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
    column k of the rows after level k; ``memo`` maps the floor vector of the body's
    rows at a shift with none of them tight to the count's result there.
    """

    __slots__ = ("rows", "rhs", "nlev", "cols", "levels", "npos", "nnz", "divs", "eq_rows",
                 "memo")

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


def _count_polytope(p: Polytope, m: IVec, D: int) -> CountResult:
    """Exact count of z in Z^d with z in p + m/D, for m in [0, D)^d."""
    plan = _plan(p)
    if plan is None:
        return _NONE
    d = p.dim
    if len(m) != d:
        raise DegenerateInput("shift dimension does not match the polytope")
    nlev, rhs = plan.nlev, plan.rhs
    # floor and remainder of a . m / D per body row: a row is tight when the
    # remainder is 0, and an equality must be, or the flat body misses Z^d
    key, rems = zip(*[divmod(sum(map(mul, a, m)), D) for a in plan.rows[nlev:]])
    if 0 in rems:
        if any(rems[j] for j in plan.eq_rows):
            return _NONE
        tight = [j for j, r in enumerate(rems) if not r]
    else:
        if plan.eq_rows:
            return _NONE
        res = plan.memo.get(key)
        if res is not None:
            return res
        tight = ()
    R = [b + sum(map(mul, a, m)) // D for a, b in zip(plan.rows[:nlev], rhs)]
    R += map(add, rhs[nlev:], key)
    cols, levels, npos, nnz, divs = plan.cols, plan.levels, plan.npos, plan.nnz, plan.divs
    count = 0
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
    if hits:
        return CountResult(count, tuple(hits))
    res = CountResult(count)
    if not tight and len(plan.memo) < _MEMO_CAP:
        plan.memo[key] = res
    return res


def _count_body(body: Body, m: IVec, D: int) -> CountResult:
    """`_count_polytope` over a body; a union adds up its parts' counts."""
    if not isinstance(body, PolytopeUnion):
        return _count_polytope(body, m, D)
    res = [_count_polytope(part, m, D) for part in body.parts]
    return CountResult(sum(r.count for r in res), tuple(z for r in res for z in r.boundary_hits))


def count_at(body: Body, shift) -> CountResult:
    """Number of lattice points inside ``body + shift`` (closed count).

    ``shift`` is any rational vector; it is reduced modulo Z^d and the
    boundary hits are translated back.  Unions count additively over their
    parts, matching the almost-sure additivity of counts over
    interior-disjoint families.
    """
    (full,), D = _homogenize([as_vec(shift)])
    m = tuple(x % D for x in full)
    res = _count_body(body, m, D)
    if m == full or not res.boundary_hits:
        return res
    off = [x // D for x in full]
    return CountResult(res.count, tuple(tuple(map(add, z, off)) for z in res.boundary_hits))


def _cell_counts(p: Polytope, cols: list[list[int]], nums: list[IVec], tight: set) -> list:
    """p's count at each draw of a block given column by column (`cols`) and
    row by row (`nums`), valid where no row of p is tight; adds the draws
    where one is to `tight`.  Each cell of the block is read from p's memo
    or counted once, at its first draw.  An empty body counts 0 everywhere,
    and so does a flat one where none of its rows is tight: an equality
    with a nonzero remainder misses Z^d."""
    plan = _plan(p)
    if plan is None:
        return [0] * len(nums)
    if len(cols) != p.dim:
        raise DegenerateInput("shift dimension does not match the polytope")
    floors = []
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
        return [0] * len(nums)
    keys = list(zip(*floors))
    # each cell with the numerators of its first draw, then with its count
    cells = dict(zip(reversed(keys), reversed(nums)))
    memo = plan.memo
    for key, m in cells.items():
        res = memo.get(key)
        cells[key] = (res if res is not None else _count_polytope(p, m, _DYADIC_DEN)).count
    return list(map(cells.__getitem__, keys))


def _block_counts(body: Body, cols: list[list[int]], nums: list[IVec], tight: set) -> list:
    """`_cell_counts` over a body; a union adds up its parts' counts."""
    if not isinstance(body, PolytopeUnion):
        return _cell_counts(body, cols, nums, tight)
    return list(map(sum, zip(*[_cell_counts(part, cols, nums, tight) for part in body.parts])))


def generic_draws(stream: ShiftStream, bodies: Sequence[Body], n: int, tries: int = 64
                  ) -> Iterator[tuple[list[IVec], list[list[int]], list[int]]]:
    """The first n draws from `stream` generic for every body, in blocks of
    at most ``_BLOCK``: each block is (the draws' numerators over
    ``2**DYADIC_BITS``, per body the counts at those draws, per draw the
    draws rejected just before it).  A draw is rejected at its first body
    with a boundary hit, before the later bodies are counted; the stream
    is read no further than the n-th generic draw.  Boundary hits at dyadic
    shifts signal a degenerate instance rather than bad luck, so after
    `tries` rejected draws in a row this yields the draws taken so far and
    raises DegenerateInput."""
    run = 0  # draws rejected since the last one taken
    while n > 0:
        k = min(n, _BLOCK)
        cols = stream.block(k)
        nums = list(zip(*cols))
        tight: set = set()
        counts = [_block_counts(b, cols, nums, tight) for b in bodies]
        if not tight:
            yield nums, counts, [run] + [0] * (k - 1)
            run = 0
            n -= k
            continue
        taken: list[IVec] = []
        redraws: list[int] = []
        rows = []
        for j, m in enumerate(nums):
            row = []
            for b, c in zip(bodies, counts):
                if j not in tight:
                    row.append(c[j])
                    continue
                res = _count_body(b, m, _DYADIC_DEN)
                if res.boundary_hits:
                    break
                row.append(res.count)
            else:
                taken.append(m)
                redraws.append(run)
                rows.append(row)
                run = 0
                continue
            run += 1
            if run >= tries:
                if taken:
                    yield taken, [list(c) for c in zip(*rows)], redraws
                raise DegenerateInput(
                    f"no shift generic for every body in {tries} draws; degenerate instance")
        if taken:
            yield taken, [list(c) for c in zip(*rows)], redraws
            n -= len(taken)


def generic_count(body: Body, seed: int = 0, *, trials: int = 8, max_resamples: int = 64) -> int:
    """Almost-sure count of a body whose generic count is constant.

    Draws shifts until generic (`generic_draws`, up to `max_resamples`
    resamples each) and checks the count over several independent generic
    shifts; disagreement raises NotConstant, flagging misuse.
    """
    draws = generic_draws(ShiftStream(body.dim, seed), [body], trials, max_resamples + 1)
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
