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

So the count is a function of the floor vector ``key = floor(a . s)`` over
the body's rows, which names the cell of s in the arrangement ``a . x in
Z``, whether or not a row is tight at s; only the boundary hits need the
shift itself.  It is the dominance count ``#{z : a . z - b <= key}``.  The
scalar counter, `count_at`, walks every shift afresh.

Sampling draws and counts in blocks of at most ``_BLOCK`` stream shifts
(`_Block`), one `getrandbits` call per block.  A block packs each
coordinate of its draws into lanes of one big int, so one multiply-add
per distinct row gives every draw's ``a . m - kmin 2**64`` at once, with
kmin the row's least key (below): above the low 64 bits of each lane lies
the draw's offset ``floor(a . m / 2**64) - kmin``, and one carry test over
all lanes finds the draws whose low bits are all zero, where the row is
tight.  A row's offsets are shared by every body counted at the block:
P, -P, its dilates and translates and the parts of a scaling piece share
rows.  (A scaling piece is a tuple of parts, each counted as a body of
its own; the verifier's relations add up their counts.)  Nothing is
shared across blocks, and a draw's numerators are decoded only where a
walk or a caller reads them.  A cell is named by its offset vector, the
key less each row's kmin.  Each distinct cell in the block is read from
the body's memo or counted once, at its first draw, and then memoized,
up to ``_MEMO_CAP`` cells per body.  An empty body counts 0 at every
draw, and so does a flat one, whose equality rows miss Z^d unless tight.  A draw where some row is tight is also walked on
its own, which finds its boundary hits.
`generic_draws` drops a draw where some body has one; `stream_counts`
keeps every draw and gets the hits from `count_at`.  Blocks are yielded
one at a time, so memory is bounded by ``_BLOCK`` draws, not by the
sample size.

A new cell is counted from the body's rim table (`_rim_table`), built by
one walk at the body's first new cell.  Over s in [0, 1)^d a row's key
ranges over ``[kmin, kmax]``, ``kmin = neg(a)`` and ``kmax = max(pos(a) -
1, 0)`` with neg and pos the sums of a's negative and positive entries.
The table's walk puts every row at ``b + kmax``, the level rows too.  That
loses no point: a lattice point z of some ``p + s`` has its prefix in the
level-k projection moved by ``s[:k+1]``, so on each level row ``a . z <=
b + floor(a . s) <= b + kmax``.  A point it adds in no ``p + s`` is in no
cell's count either, since the body rows alone decide that.  The points
at or below ``kmin`` on every body row, the core, are in every cell; they
form a subinterval of each fiber, counted in O(1) like a whole fiber.  The
rest, the rim, get one bit each, and ``mask[i][k - kmin_i]``, read at the
cell's offset, holds the rim points with ``a_i . z - b_i <= k``.  A cell's
count is the core plus the bits left in the AND of its rows' masks
(dominance counting, Bentley 1980).
The table is written column by column: along a fiber a row's entries are
an arithmetic run clipped at 0, written at once, and each mask is one
translate of the row's column into binary digits.  A body whose table
would pass ``_RIM_CAP`` bits is walked instead.  `count_at` never reads
the table: it stays the full walk, an independent path for verifier
witnesses and the tests' oracle.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import struct
from dataclasses import dataclass
from fractions import Fraction
from operator import add, floordiv, mul, sub
from typing import Iterator, Sequence

from .errors import DegenerateInput
from .geometry import (IVec, Polytope, Vec, _homogenize, as_vec, determinant, minkowski_sum,
                       parse_json_rows, parse_rational, segment, zero_vec)

DYADIC_BITS = 64
_DYADIC_DEN = 1 << DYADIC_BITS
_MEMO_CAP = 4096  # cells memoized per body; later cells are counted but not stored
_BLOCK = 256  # stream draws counted together by generic_draws
_TRIES = 64  # rejected draws in a row after which generic_draws gives up
_RIM_CAP = 1 << 22  # bits of masks a body's rim table may hold
# translate tables for rim masks: _AT_MOST[v] writes byte x as the digit
# "1" if x <= v, else "0"; _DIGITS writes the bytes 0 and 1 as digits
_AT_MOST = [b"1" * (v + 1) + b"0" * (255 - v) for v in range(256)]
_DIGITS = bytes.maketrans(b"\0\1", b"01")


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

    def block(self, k: int) -> bytes:
        """The numerators of the next k shifts as little-endian 64-bit
        words, word ``j * dim + i`` coordinate i of draw j, from one
        `getrandbits` call.  CPython fills its result 32 bits at a time from
        the least significant end, as it fills each ``getrandbits(64)``, so
        this consumes the generator exactly as k calls of `numerators` do
        and word w equals the w-th ``getrandbits(64)``."""
        n = k * self.dim * DYADIC_BITS
        return self._rng.getrandbits(n).to_bytes(n // 8, "little")

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
    eqs, ineqs = p.linear_description()
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
    ``memo`` maps the offset vector (key less kmin) of the body's rows to
    the count in that cell, and ``table`` is the body's rim table
    (`_rim_table`), None until first needed.
    """

    __slots__ = ("rows", "rhs", "nlev", "cols", "levels", "npos", "nnz", "divs", "eq_rows",
                 "memo", "table")

    def __init__(self, p: Polytope):
        rows, self.levels, ends = [], [], []
        for k in range(p.dim - 1):
            if k == 0:
                # an interval: the numerators are sorted, so their first
                # coordinates run from its least to its greatest end
                level = _interval_rows(p.numerators[0][0], p.numerators[-1][0], p.denominator)
            else:
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
        self.table: tuple | bool | None = None


def _interval_rows(lo: int, hi: int, den: int) -> list:
    """`_folded_rows` of the interval ``[lo/den, hi/den]``, lower end first."""
    g, h = math.gcd(lo, den), math.gcd(hi, den)
    if lo == hi:
        return [((den // h,), hi // h, True), ((-den // h,), -hi // h, True)]
    return [((-den // g,), -lo // g, False), ((den // h,), hi // h, False)]


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


def _levels(plan: _CountPlan, R: list, fiber, prefixes: bool) -> None:
    """Call ``fiber(R, prefix)`` on each fiber of the level walk from the
    residuals R of every row, R then holding the residuals of the body rows
    at the prefix and z_last = 0; the prefix is () unless `prefixes`."""
    d, cols, levels = len(plan.cols), plan.cols, plan.levels

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
        step = fiber if k + 2 == d else functools.partial(walk, k + 1)
        for z in range(lo, hi + 1):
            step(R, prefix + (z,) if prefixes else prefix)
            R = list(map(sub, R, col))

    if d == 1:
        fiber(R, ())
    else:
        walk(0, R, ())


def _span(plan: _CountPlan, R: list) -> tuple[int, int]:
    """(lo, hi) of z_last over the fiber whose body rows have residuals R;
    rows with a_last = 0 are left out."""
    npos, nnz, divs = plan.npos, plan.nnz, plan.divs
    if divs is None:
        return -min(R[npos:nnz]), min(R[:npos])
    return -min(map(floordiv, R[npos:nnz], divs[1])), min(map(floordiv, R[:npos], divs[0]))


def _walk(plan: _CountPlan, m: IVec, D: int) -> tuple[int, list]:
    """(count, boundary hits) of the plan's body at shift m/D, for m in [0, D)^d."""
    nlev, rhs = plan.nlev, plan.rhs
    # floor and remainder of a . m / D per body row: a row is tight when the
    # remainder is 0, and an equality must be, or the flat body misses Z^d
    floors, rems = zip(*[divmod(sum(map(mul, a, m)), D) for a in plan.rows[nlev:]])
    if any(rems[j] for j in plan.eq_rows):
        return 0, []
    tight = [j for j, r in enumerate(rems) if not r]
    R = [b + sum(map(mul, a, m)) // D for a, b in zip(plan.rows[:nlev], rhs)]
    R += map(add, rhs[nlev:], floors)
    last = plan.cols[-1]
    count = 0
    hits: list = []

    def fiber(R, prefix):
        nonlocal count
        lo, hi = _span(plan, R)
        if lo <= hi:
            count += hi - lo + 1
            if tight:
                hits.extend(_fiber_hits(R, tight, last, lo, hi, prefix))

    _levels(plan, R, fiber, bool(tight))
    return count, hits


def _count_polytope(p: Polytope, m: IVec, D: int) -> CountResult:
    """Exact count of z in Z^d with z in p + m/D, for m in [0, D)^d."""
    if len(m) != p.dim:
        raise DegenerateInput("shift dimension does not match the polytope")
    plan = _plan(p)
    if plan is None:
        return _NONE
    count, hits = _walk(plan, m, D)
    return CountResult(count, tuple(hits))


def count_at(p: Polytope, shift) -> CountResult:
    """Number of lattice points inside ``p + shift`` (closed count).

    ``shift`` is any rational vector; it is reduced modulo Z^d and the
    boundary hits are translated back.  One body is counted: a family such
    as a scaling piece is counted part by part, and its caller adds the
    parts' counts.  Every call walks the body afresh: it reads neither the
    memo nor the rim table that `generic_draws` keeps.
    """
    (full,), D = _homogenize([as_vec(shift)])
    m = tuple(x % D for x in full)
    res = _count_polytope(p, m, D)
    if m != full and res.boundary_hits:
        off = [x // D for x in full]
        res = CountResult(res.count, tuple(tuple(map(add, z, off)) for z in res.boundary_hits))
    return res


def _key_range(a: IVec) -> tuple[int, int]:
    """(kmin, kmax): the least and greatest ``floor(a . s)`` over s in [0, 1)^d."""
    return sum(c for c in a if c < 0), max(sum(c for c in a if c > 0) - 1, 0)


def _rim_table(plan: _CountPlan) -> tuple | bool:
    """The plan's rim table ``(ncore, full mask, rows)``, or False where
    its masks would pass ``_RIM_CAP`` bits.

    One walk with every row at ``b + kmax`` lists every lattice point of
    every ``p + s``.  In each fiber the points with ``a . z - b <= kmin`` on
    every body row, a subinterval, are the core, counted in every cell; the
    rest are the rim, one bit each.  ``rows`` holds ``(i, masks)`` for each
    body row i that cuts some rim point at its least key, ``masks[k -
    kmin_i]`` (the offset of key k, as `_Block.offsets` gives it) the rim
    points with ``a_i . z - b_i <= k``, rim point j at digit j of the mask
    written in binary.  Row i's column
    holds its entry ``a_i . z - b_i - kmin_i``, clipped at 0, at each rim
    point: bytes where the row spans fewer than 256 keys, else a list."""
    body = plan.rows[plan.nlev:]
    kmin, kmax = zip(*map(_key_range, body))
    widths = list(map(sub, kmax, kmin))
    # rim points whose w + 1 masks per row fit in _RIM_CAP bits
    cap = _RIM_CAP // (sum(widths) + len(widths))
    last, npos, nnz = plan.cols[-1], plan.npos, plan.nnz
    ncore = 0
    cols = [bytearray() if w < 256 else [] for w in widths]
    first = cols[0]
    rising = list(zip(cols[:npos], last[:npos]))
    falling = list(zip(cols[npos:nnz], last[npos:nnz]))
    level = cols[nnz:]

    def run(lo, hi, C):
        # the rim points z = lo..hi of one fiber: along it row i's entry
        # z a_i - C_i is an arithmetic run, clipped at 0 below its zero
        n = hi - lo + 1
        zeros = bytes(n)
        for (col, a), c in zip(rising, C):
            k = c // a - lo + 1  # the entries <= 0 come first
            if k >= n:
                col.extend(zeros)
                continue
            if k > 0:
                col.extend(zeros[:k])
            else:
                k = 0
            v = a * (lo + k) - c
            col.extend(range(v, v + a * (n - k), a))
        for (col, a), c in zip(falling, C[npos:]):
            k = (c + 1) // a - lo + 1  # the entries > 0 come first
            if k <= 0:
                col.extend(zeros)
                continue
            v = a * lo - c
            if k >= n:
                col.extend(range(v, v + a * n, a))
                continue
            col.extend(range(v, v + a * k, a))
            col.extend(zeros[k:])
        for col, c in zip(level, C[nnz:]):
            col.extend(zeros if c >= 0 else itertools.repeat(-c, n))

    def fiber(R, prefix):
        # R: b + kmax - a . (prefix, 0) per body row, so at z_last = z a row's
        # entry is z a_last - (R - width), clipped at 0.  A row with a_last = 0
        # is also a row of an earlier level, with the same kmax, so its R is
        # never negative here; at kmin it can still leave the fiber no core
        nonlocal ncore
        lo, hi = _span(plan, R)
        if lo > hi or len(first) > cap:
            return
        C = list(map(sub, R, widths))
        clo, chi = _span(plan, C)
        if clo <= chi and min(C[nnz:], default=0) >= 0:
            ncore += chi - clo + 1
            if lo < clo:
                run(lo, clo - 1, C)
            if chi < hi:
                run(chi + 1, hi, C)
        else:
            run(lo, hi, C)

    R = [b + _key_range(a)[1] for a, b in zip(plan.rows, plan.rhs)]
    _levels(plan, R, fiber, False)
    if len(first) > cap:
        return False
    full = (1 << len(first)) - 1
    rows = []
    for i, (w, col) in enumerate(zip(widths, cols)):
        top = max(col, default=0)
        if top:
            # masks[v]: digit j is 1 where rim point j has entry <= v
            least = min(col)
            masks = [0] * least
            if isinstance(col, bytearray):
                masks += [int(col.translate(_AT_MOST[v]), 2) for v in range(least, top)]
            else:
                masks += [int(bytes(map(v.__ge__, col)).translate(_DIGITS), 2)
                          for v in range(least, top)]
            masks += [full] * (w + 1 - top)
            rows.append((i, masks))
    return ncore, full, rows


def _table_count(table: tuple, key: IVec) -> int:
    """The count in cell `key`, a vector of offsets, from a rim table: the
    core plus the rim points left in the AND of the key's masks."""
    ncore, m, rows = table
    for i, masks in rows:
        m &= masks[key[i]]
    return ncore + m.bit_count()


@functools.cache
def _lane_masks(width: int) -> tuple[int, int]:
    """(ONES, LOW) over a full block of `width`-byte lanes: bit 64 of every
    lane, and the low 64 bits of every lane.  A short block of k lanes
    takes them shifted right by ``_BLOCK - k`` lanes."""
    pad = bytes(width - 9)
    ones = int.from_bytes((bytes(8) + b"\1" + pad) * _BLOCK, "little")
    low = int.from_bytes((b"\xff" * 8 + b"\0" + pad) * _BLOCK, "little")
    return ones, low


class _Block:
    """One block of stream draws, held as the little-endian 64-bit words
    of `ShiftStream.block` (`raw`, word ``j * dim + i`` coordinate i of
    draw j), with the offsets of each body row met so far: every body
    counted at the block shares them.  Indexing or iterating a block
    decodes draws' numerators, only where they are needed.

    A row's offsets come from lanes of one big int per coordinate:
    ``M_i`` holds coordinate i of draw j at bits ``W j`` up, in lanes of W
    bits (`width` bytes), 64 for the numerator and at least 8 above it.  Over [0, 1)^d a
    row's key ``floor(a . m / 2**64)`` lies in ``[kmin, kmax]``
    (`_key_range`), so ``a . m - kmin 2**64`` lies in ``[0, (kmax - kmin + 1)
    2**64)``: it fits its lane and carries into no other.  One multiply-add
    ``S = -kmin ONES + sum c_i M_i`` (ONES: bit 64 of every lane) leaves it
    in every lane at once, its bytes above the low 8 the offset ``key -
    kmin`` and its low 64 bits zero exactly where the row is tight.  Adding
    ``LOW`` (the low 64 bits of every lane) to ``S & LOW`` carries into bit
    64 of each lane whose low bits are not all zero, so ``((S & LOW) + LOW)
    & ONES == ONES`` says at once that no draw is tight; only where it fails
    are the lanes looked at one by one.  A row spanning more than 256 keys
    takes wider lanes, packed once per width and block."""

    __slots__ = ("raw", "dim", "size", "fmt", "lanes", "rows")

    def __init__(self, raw: bytes, dim: int):
        self.raw, self.dim = raw, dim
        self.fmt = struct.Struct(f"<{dim}Q")  # one draw's words
        self.size = len(raw) // self.fmt.size
        self.lanes: dict = {}
        self.rows: dict = {}

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, j: int) -> IVec:
        """The numerators of draw j."""
        if not 0 <= j < self.size:
            raise IndexError(j)
        return self.fmt.unpack_from(self.raw, self.fmt.size * j)

    def __iter__(self) -> Iterator[IVec]:
        return self.fmt.iter_unpack(self.raw)

    def _packed(self, width: int) -> tuple[list[int], int, int]:
        """(``M_i`` per coordinate, ONES, LOW) in `width`-byte lanes."""
        got = self.lanes.get(width)
        if got is None:
            raw, step, n = self.raw, self.fmt.size, self.size * width
            packed = []
            for i in range(0, step, 8):
                lanes = bytearray(n)
                for t in range(8):
                    lanes[t::width] = raw[i + t::step]
                packed.append(int.from_bytes(lanes, "little"))
            shift = 8 * width * (_BLOCK - self.size)
            ones, low = _lane_masks(width)
            got = self.lanes[width] = packed, ones >> shift, low >> shift
        return got

    def offsets(self, a: IVec) -> tuple[Sequence[int], list[int]]:
        """(``floor(a . m / 2**64) - kmin`` at each draw, the draws where
        row a is tight), computed once per block."""
        got = self.rows.get(a)
        if got is None:
            kmin, kmax = _key_range(a)
            width = 8 + max(1, -(-(kmax - kmin).bit_length() // 8))
            packed, ones, low = self._packed(width)
            S = -kmin * ones
            for c, M in zip(a, packed):
                if c:
                    S += c * M
            n = self.size * width
            carry = (S & low) + low
            tight = []
            if carry & ones != ones:
                flags = carry.to_bytes(n, "little")[8::width]
                tight = [j for j, f in enumerate(flags) if not f]
            # the offset's bytes, least significant first, one byte of every lane at a time
            lanes = S.to_bytes(n, "little")
            offsets = lanes[8::width]
            for t in range(9, width):
                offsets = list(map(add, offsets, map((1 << 8 * (t - 8)).__mul__, lanes[t::width])))
            got = self.rows[a] = offsets, tight
        return got


def _cell_counts(p: Polytope, block: _Block) -> list:
    """p's count at each draw of a block, None at a draw where p has a
    boundary hit.  Each cell of the block is read from p's memo, or counted
    once from p's rim table (`_rim_table`, built at the first new cell) or,
    where p has none, walked at its first draw, and memoized: the count
    depends only on the cell, even where a row is tight.  An empty body
    counts 0 everywhere, and so does a flat one where none of its rows is
    tight: an equality with a nonzero remainder misses Z^d.  A draw where a
    row is tight is walked on its own for its boundary hits."""
    if block.dim != p.dim:
        raise DegenerateInput("shift dimension does not match the polytope")
    plan = _plan(p)
    if plan is None:
        return [0] * len(block)
    offsets, tight = zip(*map(block.offsets, plan.rows[plan.nlev:]))
    if plan.eq_rows:
        counts = [0] * len(block)
    else:
        keys = list(zip(*offsets))
        # each cell with the index of its first draw, then with its count
        cells = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))
        memo = plan.memo
        for key, j in cells.items():
            count = memo.get(key)
            if count is None:
                if plan.table is None:
                    plan.table = _rim_table(plan)
                if plan.table:
                    count = _table_count(plan.table, key)
                else:
                    count = _count_polytope(p, block[j], _DYADIC_DEN).count
                if len(memo) < _MEMO_CAP:
                    memo[key] = count
            cells[key] = count
        counts = list(map(cells.__getitem__, keys))
    for j in set().union(*tight):
        res = _count_polytope(p, block[j], _DYADIC_DEN)
        counts[j] = None if res.boundary_hits else res.count
    return counts


def _require_count(n, what: str) -> None:
    """Reject a bool or non-int count of draws or samples: `getrandbits`
    would take True as 1."""
    if isinstance(n, bool) or not isinstance(n, int):
        raise DegenerateInput(f"{what} must be an integer, got {n!r}")


def generic_draws(stream: ShiftStream, bodies: Sequence[Polytope], n: int
                  ) -> Iterator[tuple[Sequence[IVec], list[list[int]], list[int]]]:
    """The first n draws from `stream` generic for every body, in blocks of
    at most ``_BLOCK``: each block is (the draws' numerators over
    ``2**DYADIC_BITS``, a sequence that decodes each draw when read, per
    body the counts at those draws, per draw the draws rejected just before
    it).  Every body is counted at every draw of a block, and a draw where
    some body has a boundary hit is dropped; the stream is read no further
    than the n-th generic draw.  Boundary hits at dyadic shifts signal a
    degenerate instance rather than bad luck, so after ``_TRIES`` rejected
    draws in a row this yields the draws taken so far and raises
    DegenerateInput."""
    _require_count(n, "the number of draws")
    run = 0  # draws rejected since the last one taken
    while n > 0:
        k = min(n, _BLOCK)
        block = _Block(stream.block(k), stream.dim)
        counts = [_cell_counts(b, block) for b in bodies]
        if not any(None in c for c in counts):
            yield block, counts, [run] + [0] * (k - 1)
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
            if run >= _TRIES:
                break
        if taken:
            yield [block[j] for j in taken], [[c[j] for j in taken] for c in counts], redraws
            n -= len(taken)
        if run >= _TRIES:
            raise DegenerateInput(
                f"no shift generic for every body in {_TRIES} draws; degenerate instance")


def stream_counts(stream: ShiftStream, p: Polytope, n: int) -> Iterator[tuple[Vec, CountResult]]:
    """The next n draws from `stream`, in order, each with p's closed
    count there.  Each block of at most ``_BLOCK`` draws is counted by cell
    (`_cell_counts`); `count_at` walks only a draw where p has a boundary
    hit, for its closed count and hits."""
    _require_count(n, "the number of draws")
    while n > 0:
        k = min(n, _BLOCK)
        block = _Block(stream.block(k), stream.dim)
        for m, count in zip(block, _cell_counts(p, block)):
            s = tuple(Fraction(x, _DYADIC_DEN) for x in m)
            yield s, count_at(p, s) if count is None else CountResult(count)
        n -= k


# ---------------------------------------------------------------------------
# zonotopes


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
                raise DegenerateInput("zonotope generators must be integral, "
                                      f"got ({', '.join(map(str, g))})")


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
    return ZonotopeSpec(dim, tuple(tuple(parse_rational(x) for x in g) for g in raw))
