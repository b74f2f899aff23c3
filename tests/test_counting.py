"""Shifted lattice-point counting, genericity, parallelepipeds, zonotopes."""

import hashlib
import itertools
import json
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyshift.catalog import (
    central_slab,
    centrally_symmetric_polytope,
    cross_polytope,
    embed_with_zero_last,
    prism_over_embedded,
    random_lattice_polytope,
    random_lattice_simplex,
    reeve_tetrahedron,
    slab_pieces,
    standard_simplex,
)
from polyshift import counting
from polyshift.cli import main
from polyshift.counting import (
    CountResult,
    ShiftStream,
    ZonotopeSpec,
    count_at,
    generic_draws,
    zonotope_constant,
    zonotope_polytope,
    zonotope_spec_from_json,
)
from polyshift.errors import DegenerateInput
from polyshift.geometry import Polytope, dilate, unit_cube

from conftest import HEXAGON, on_boundary, pack_draws

F = Fraction


def brute_count(p, coords):
    """Independent oracle: test every box point through raw membership."""
    import itertools
    import math

    lo, hi = p.bounding_box()
    rng = [
        range(math.ceil(lo[i] + coords[i]), math.floor(hi[i] + coords[i]) + 1)
        for i in range(p.dim)
    ]
    pts = [
        z
        for z in itertools.product(*rng)
        if p.contains(tuple(F(c) - s for c, s in zip(z, coords)))
    ]
    hits = tuple(
        z
        for z in pts
        if on_boundary(p, tuple(F(c) - s for c, s in zip(z, coords)))
    )
    return CountResult(len(pts), hits)


@st.composite
def oracle_bodies(draw):
    """Hulls of d + 1 .. d + 3 points: lattice (q = 1) or rational."""
    d = draw(st.integers(1, 4))
    q = draw(st.sampled_from((1, 2, 3)))
    reach = (2 if d < 4 else 1) * q  # keeps the oracle's 4-d boxes small
    coord = st.integers(-reach, reach).map(lambda k: F(k, q))
    n = d + draw(st.integers(1, 3))
    return Polytope(d, draw(st.lists(st.tuples(*[coord] * d), min_size=n, max_size=n)))


@st.composite
def oracle_shifts(draw, d):
    """Boundary-rich shifts on the k/4 and k/6 grids, and shifts k/7 far
    outside the unit cube."""
    grid = draw(st.sampled_from((4, 6, 7)))
    k = st.integers(-40, 39) if grid == 7 else st.integers(0, grid - 1)
    return tuple(F(x, grid) for x in draw(st.tuples(*[k] * d)))


FLAT_BODIES = (
    Polytope(3, [(0, 0, 0), (2, 1, 1)]),  # a segment in R^3
    Polytope(3, [(0, 0, 0), (2, 0, 1), (0, 2, 1)]),  # a triangle in x + y = 2z
    # flat projections onto the leading coordinates: equality rows inside the counting levels
    Polytope(3, [(1, 0, 0), (1, 2, 0), (1, 0, 2)]),  # a triangle in x0 = 1: level 0 is a point
    Polytope(3, [(F(1, 2), 1, -1), (F(1, 2), 1, 2)]),  # a segment at x0 = 1/2 along x2
    # in x0 + x1 = 1: level 1 is a segment
    Polytope(4, [(1, 0, 0, 0), (0, 1, 0, 0), (1, 0, 1, 0), (0, 1, 0, 1), (1, 0, 1, 1)]),
)

RATIONAL_3D = {"dim": 3, "vertices": [["-4/3", "-2", "1/3"], ["-1/3", "-1/3", "0"],
                                      ["1/3", "2/3", "2"], ["2/3", "-2/3", "-1"],
                                      ["5/3", "2", "2/3"]]}


# ---------------------------------------------------------------------------
# count_at basics


def test_unit_cube_always_one_generic():
    stream = ShiftStream(3, seed=4)
    for _ in range(20):
        res = count_at(unit_cube(3), stream.draw())
        assert res.count == 1
        assert res.is_generic


def test_unit_cube_zero_shift_hits_all_corners():
    res = count_at(unit_cube(3), (0, 0, 0))
    assert res.count == 8
    assert len(res.boundary_hits) == 8


def test_simplex3_count_is_zero_or_one():
    stream = ShiftStream(3, seed=9)
    seen = set()
    for _ in range(200):
        res = count_at(standard_simplex(3), stream.draw())
        assert res.count in (0, 1)
        seen.add(res.count)
    assert seen == {0, 1}


def test_flat_embedded_segment_counts_zero():
    seg = Polytope(3, [(0, 0, 0), (0, 0, 1)])
    stream = ShiftStream(3, seed=2)
    for _ in range(50):
        res = count_at(seg, stream.draw())
        assert res.count == 0
        assert res.is_generic


def test_flat_body_counted_points_are_boundary():
    seg = Polytope(2, [(0, 0), (3, 0)])
    res = count_at(seg, (0, 0))
    assert res.count == 4
    assert len(res.boundary_hits) == 4
    assert not res.is_generic


def test_embedded_slab_counts_zero_generically():
    flat = embed_with_zero_last(central_slab(3))
    stream = ShiftStream(4, seed=6)
    for _ in range(30):
        assert count_at(flat, stream.draw()).count == 0


def test_is_generic_cases():
    assert count_at(unit_cube(3), (F(1, 2), F(1, 2), F(1, 2))).is_generic
    assert not count_at(unit_cube(3), (0, 0, 0)).is_generic
    # (1,1) lies exactly on the long side: 1 + 1 == 1 + 1/2 + 1/2
    res = count_at(standard_simplex(2), (F(1, 2), F(1, 2)))
    assert (1, 1) in res.boundary_hits
    assert not res.is_generic


# ---------------------------------------------------------------------------
# invariances


@given(st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4)))
@settings(max_examples=30, deadline=None)
def test_integer_translation_invariance(m):
    p = standard_simplex(3)
    q = p.translated(m)
    stream = ShiftStream(3, seed=1)
    for _ in range(5):
        s = stream.draw()
        assert count_at(p, s).count == count_at(q, s).count


def test_shift_periodicity():
    p = random_lattice_polytope(2, 5, 2, seed=3)
    s = (F(3, 8), F(5, 7))
    bumped = (F(3, 8) + 2, F(5, 7) - 1)
    assert count_at(p, s).count == count_at(p, bumped).count


def test_monotonicity_under_inclusion():
    inner = standard_simplex(3)
    outer = unit_cube(3)
    stream = ShiftStream(3, seed=11)
    for _ in range(50):
        s = stream.draw()
        assert count_at(inner, s).count <= count_at(outer, s).count


@given(
    st.integers(0, 10**6),
    st.integers(2, 3),
)
@settings(max_examples=25, deadline=None)
def test_count_matches_brute_force(seed, d):
    p = random_lattice_polytope(d, d + 2, 2, seed=seed)
    stream = ShiftStream(d, seed=seed + 1)
    s = stream.draw()
    fast = count_at(p, s)
    slow = brute_count(p, s)
    assert fast.count == slow.count
    assert set(fast.boundary_hits) == set(slow.boundary_hits)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_count_equals_oracle_exactly(data):
    p = data.draw(oracle_bodies())
    s = data.draw(oracle_shifts(p.dim))
    assert count_at(p, s) == brute_count(p, s)


@given(st.sampled_from(FLAT_BODIES), st.data())
@settings(max_examples=100, deadline=None)
def test_flat_count_equals_oracle_exactly(p, data):
    s = data.draw(oracle_shifts(p.dim))
    assert count_at(p, s) == brute_count(p, s)


def alone(p):
    """p as a family of one part."""
    return (p,)


def half_step_union(p):
    """p and its copy moved by 1/2 along the first axis, as a family of two
    parts."""
    return p, p.translated((F(1, 2),) + (0,) * (p.dim - 1))


@given(st.one_of(oracle_bodies().map(alone), st.sampled_from(FLAT_BODIES).map(alone),
                 oracle_bodies().map(half_step_union)), st.data())
@settings(max_examples=150, deadline=None)
def test_integer_move_of_the_shift_moves_the_hits(parts, data):
    # count_at reduces the shift modulo Z^d and translates the hits back
    d = parts[0].dim
    s = data.draw(oracle_shifts(d))
    k = data.draw(st.tuples(*[st.integers(-3, 3)] * d))
    for p in parts:
        res = count_at(p, s)
        moved = tuple(tuple(map(operator.add, z, k)) for z in res.boundary_hits)
        assert count_at(p, tuple(map(operator.add, s, k))) == CountResult(res.count, moved)


# ---------------------------------------------------------------------------
# the per-body count memo, keyed by the floor vector of the body's rows and
# kept by the block sampler alone


class ScriptedStream:
    """Hands out the numerators of the given shifts in turn, over 2**64, and
    counts the draws."""

    def __init__(self, shifts):
        self.shifts = [tuple(int(c * 2**64) for c in s) for s in shifts]
        self.dim = len(self.shifts[0])
        self.drawn = 0

    def block(self, k):
        self.drawn += k
        return pack_draws([self.shifts.pop(0) for _ in range(k)])


def listed(draws):
    """`generic_draws`' blocks, each block's draws decoded into a list."""
    return [(list(nums), counts, redraws) for nums, counts, redraws in draws]


def sample(bodies, shifts, n):
    """The count rows `generic_draws` yields for the first n draws among the
    given dyadic shifts that are generic for every body."""
    draws = generic_draws(ScriptedStream(shifts), bodies, n)
    return [row for _, counts, _ in draws for row in zip(*counts)]


def spy_walks(monkeypatch):
    """The shifts walked by the counter from now on, in order."""
    walked = []
    walk = counting._count_polytope

    def spy(p, m, D):
        walked.append(m)
        return walk(p, m, D)

    monkeypatch.setattr(counting, "_count_polytope", spy)
    return walked


def fresh_copy(p):
    """The same body with no count plan, hence an empty memo."""
    return Polytope(p.dim, p.numerators, den=p.denominator)


def body_offsets(p, s):
    """The memo key of shift s on p: floor(a . s) - kmin over p's counted rows."""
    plan = p._count_plan
    return tuple(math.floor(sum(map(operator.mul, a, s))) - counting._key_range(a)[0]
                 for a in plan.rows[plan.nlev:])


@st.composite
def same_cell_shifts(draw, d):
    """Shifts near one k/8 grid point, most sharing its floor vector: the
    grid point plus dyadic offsets below 1/32, the first one repeated."""
    base = draw(st.tuples(*[st.integers(0, 7)] * d))
    offset = st.tuples(*[st.integers(0, 7)] * d)
    offsets = draw(st.lists(offset, min_size=2, max_size=6))
    shifts = [tuple(F(k, 8) + F(j, 256) for k, j in zip(base, o)) for o in offsets]
    return shifts + shifts[:1]


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_memo_hits_equal_oracle_and_fresh_counts(data):
    p = data.draw(oracle_bodies())
    parts = half_step_union(p) if data.draw(st.booleans()) else alone(p)
    shifts = data.draw(same_cell_shifts(p.dim))
    oracle = [[brute_count(q, s) for q in parts] for s in shifts]
    generic = [s for s, res in zip(shifts, oracle) if all(r.is_generic for r in res)]
    expected = [tuple(r.count for r in res) for res in oracle if all(r.is_generic for r in res)]
    # one block counts each cell once; then one draw per block reads the
    # cells the first block memoized, and fresh bodies walk every draw
    assert sample(parts, shifts, len(generic)) == expected
    assert [row for s in generic for row in sample(parts, [s], 1)] == expected
    fresh = [fresh_copy(q) for q in parts]
    assert [row for s in generic for row in sample(fresh, [s], 1)] == expected


def test_memo_keys_on_rows_with_zero_last_coefficient():
    # [0, 1/2] x [0, 1]: the rows on y agree at both shifts, 2x <= 1 does not
    p = Polytope(2, [(0, 0), (F(1, 2), 0), (0, 1), (F(1, 2), 1)])
    assert sample([p], [(F(1, 4), F(1, 2))], 1) == [(0,)]
    assert sample([p], [(F(3, 4), F(1, 2))], 1) == [(1,)]
    assert len(p._count_plan.memo) == 2


def test_tight_shift_in_a_cached_cell_reports_its_boundary_hits(monkeypatch):
    p = reeve_tetrahedron(3)
    generic, tight = (F(1, 64), F(1, 2), F(33, 64)), (F(0), F(1, 2), F(1, 2))
    assert sample([p], [generic], 1) == [(1,)]
    assert body_offsets(p, tight) in p._count_plan.memo
    # the memo holds the cell's count, but the tight draw is walked for its
    # boundary hit and dropped
    walked = spy_walks(monkeypatch)
    stream = ScriptedStream([tight, generic])
    assert listed(generic_draws(stream, [p], 1)) == [([(2**58, 2**63, 33 * 2**58)], [[1]], [1])]
    assert walked == [(0, 2**63, 2**63)]
    assert count_at(p, tight) == CountResult(1, ((1, 1, 2),)) == brute_count(p, tight)
    # translated back by the shift's integer part
    far = (F(-1), F(5, 2), F(1, 2))
    assert count_at(p, far) == CountResult(1, ((0, 3, 2),)) == brute_count(p, far)
    assert len(p._count_plan.memo) == 1


def test_tight_first_draw_of_a_cell_memoizes_its_count(monkeypatch):
    # 2x + 2y <= 1 is tight at (1/8, 3/8) with no boundary hit; the count
    # depends only on the cell, so that draw's count is memoized for it
    tri = Polytope(2, [(0, 0), (F(1, 2), 0), (0, F(1, 2))])
    tight, later = (F(1, 8), F(3, 8)), (F(1, 4), F(5, 16))
    assert sample([tri], [tight], 1) == [(0,)]
    assert body_offsets(tri, later) == body_offsets(tri, tight)
    assert tri._count_plan.memo == {body_offsets(tri, tight): 0}
    walked = spy_walks(monkeypatch)
    assert sample([tri], [later], 1) == [(0,)]
    assert walked == []


def test_count_at_keeps_no_memo():
    p = reeve_tetrahedron(3)
    stream = ShiftStream(3, seed=1)
    for _ in range(20):
        count_at(p, stream.draw())
    count_at(p, (0, 0, 0))
    assert p._count_plan.memo == {}


def test_flat_bodies_never_touch_the_memo():
    stream = ShiftStream(4, seed=3)
    for p in FLAT_BODIES:
        shifts = [stream.draw()[:p.dim] for _ in range(40)] + [(0,) * p.dim]
        generic = sum(count_at(p, s).is_generic for s in shifts)
        # every lattice point of a flat body is on its boundary
        assert sample([p], shifts, generic) == [(0,)] * generic
        assert p._count_plan.memo == {}


def test_memo_stops_growing_at_its_cap_and_counts_stay_exact(monkeypatch):
    monkeypatch.setattr(counting, "_MEMO_CAP", 3)
    p = random_lattice_polytope(3, 8, 3, seed=7)
    stream = ShiftStream(3, seed=5)
    shifts = [stream.draw() for _ in range(30)]
    expected = [(brute_count(p, s).count,) for s in shifts]
    assert sample([p], shifts, 30) == sample([p], shifts, 30) == expected
    memo = p._count_plan.memo
    assert len(memo) == 3
    cells = {body_offsets(p, s) for s in shifts}
    assert len(cells) > 3
    # a full memo still serves its cells: a block reads only the others off
    # the rim table
    counted = []
    table_count = counting._table_count
    monkeypatch.setattr(counting, "_table_count", lambda t, key: counted.append(key) or table_count(t, key))
    assert sample([p], shifts, 30) == expected
    assert len(counted) == len(cells) - 3
    assert set(memo) <= cells


# ---------------------------------------------------------------------------
# new cells counted from the per-body rim table


def stream_keys(plan, draws):
    """The offset vector of each draw's numerators over 2**64 on the plan's
    body rows: floor(a . m / 2**64) - kmin per row."""
    return [tuple((sum(map(operator.mul, a, m)) >> 64) - counting._key_range(a)[0]
                  for a in plan.rows[plan.nlev:]) for m in draws]


def hull_plan_rows(p):
    """(rows, rhs, levels) of p's counting plan with every level read off a
    hull of p's projection, as the plan was first built."""
    rows, levels = [], []
    for k in range(p.dim - 1):
        proj = Polytope(k + 1, [v[:k + 1] for v in p.numerators], den=p.denominator)
        level = [r for r in counting._folded_rows(proj) if r[0][k]]
        pos = [(j, a[k]) for j, (a, _, _) in enumerate(level) if a[k] > 0]
        neg = [(j, -a[k]) for j, (a, _, _) in enumerate(level) if a[k] < 0]
        levels.append((len(level), pos[0], pos[1:], neg[0], neg[1:]))
        rows += level
    rows += sorted(counting._folded_rows(p), key=lambda r: (r[0][-1] <= 0, r[0][-1] == 0))
    return tuple(a for a, _, _ in rows), tuple(b for _, b, _ in rows), levels


CATALOG_BODIES = (
    [standard_simplex(d) for d in (1, 2, 3, 4)] + slab_pieces(3)
    + [reeve_tetrahedron(n) for n in (1, 3, 8)] + [central_slab(d) for d in (2, 3)]
    + [embed_with_zero_last(standard_simplex(2)), prism_over_embedded(standard_simplex(2)),
       random_lattice_polytope(3, 6, 3, seed=300), random_lattice_simplex(3, 4, seed=2),
       centrally_symmetric_polytope(3, 4, 3, seed=1), cross_polytope(4),
       zonotope_polytope(HEXAGON)]
    + list(FLAT_BODIES)
    + [Polytope(3, [tuple(map(F, v)) for v in RATIONAL_3D["vertices"]])]
)
WIDE_ROW = Polytope(2, [(0, 0), (300, 0), (0, 1)])  # x + 300 y <= 300: one row spans 301 keys


@pytest.mark.parametrize("p", CATALOG_BODIES)
def test_level_zero_rows_equal_the_hull_rows(p):
    # level 0 is read off the least and greatest first coordinate
    plan = counting._plan(fresh_copy(p))
    assert (plan.rows, plan.rhs, plan.levels) == hull_plan_rows(p)


@given(oracle_bodies())
@settings(max_examples=100, deadline=None)
def test_level_zero_rows_equal_the_hull_rows_on_oracle_bodies(p):
    if not p.is_empty:
        plan = counting._plan(p)
        assert (plan.rows, plan.rhs, plan.levels) == hull_plan_rows(p)


@st.composite
def table_bodies(draw):
    """Families of parts: oracle bodies (1-D to 4-D, lattice or rational),
    their dilates and bodies squeezed along the last axis, whose rows mostly
    have |a_last| > 1, each alone, and two-part half-step families."""
    body = draw(oracle_bodies())
    kind = draw(st.sampled_from(("oracle", "dilate", "union", "squeeze")))
    if kind == "dilate" and body.dim < 4:
        return alone(dilate(body, draw(st.integers(2, 3))))
    if kind == "union":
        return half_step_union(body)
    if kind == "squeeze":
        q = draw(st.integers(2, 3))
        return alone(Polytope(body.dim, [v[:-1] + (v[-1] / q,) for v in body.vertices]))
    return alone(body)


@given(table_bodies(), st.integers(0, 2**32))
@settings(max_examples=80, deadline=None)
def test_table_counts_equal_the_oracle(parts, seed):
    with pytest.MonkeyPatch.context() as mp:
        # new cells come from the table: only a draw with a tight row, which
        # the stream almost surely never makes, would be walked
        walked = spy_walks(mp)
        counts = [list(counting.stream_counts(ShiftStream(p.dim, seed), p, 20)) for p in parts]
    assert walked == []
    for p in parts:
        if p.is_full_dim:
            # a mask per key of each kept row, and a rim point only where the
            # cell at the greatest keys counts it
            plan = p._count_plan
            ncore, full, rows = plan.table
            ranges = [counting._key_range(a) for a in plan.rows[plan.nlev:]]
            assert [len(masks) for _, masks in rows] == [
                ranges[i][1] - ranges[i][0] + 1 for i, _ in rows]
            assert all(masks[-1] & full == full for _, masks in rows)
    for p, part_counts in zip(parts, counts):
        for s, res in part_counts:
            assert res.count == brute_count(p, s).count
            m = tuple(int(x * 2**64) for x in s)
            assert res.count == counting._count_polytope(p, m, 2**64).count


@pytest.mark.parametrize("body", [reeve_tetrahedron(5), dilate(cross_polytope(4), 2),
                                  Polytope(2, [(0, 0), (100, 0), (0, 1)]),
                                  Polytope(3, [tuple(map(F, v)) for v in RATIONAL_3D["vertices"]])],
                         ids=["reeve5", "cross4-x2", "long-triangle", "rational3"])
def test_stream_keys_lie_in_the_key_range_and_its_ends_are_reached(body):
    # a key is an offset: it and the ends are read less each row's kmin
    plan = counting._plan(body)
    ranges = [(0, hi - lo) for lo, hi in map(counting._key_range, plan.rows[plan.nlev:])]
    stream = ShiftStream(body.dim, 8)
    for key in stream_keys(plan, [stream.numerators() for _ in range(300)]):
        assert all(lo <= k <= hi for k, (lo, hi) in zip(key, ranges))
    # each end is the key at a corner of [0, 1)^d: coordinates 0 or 1 - 2**-64
    top = 2**64 - 1
    for i, (a, (lo, hi)) in enumerate(zip(plan.rows[plan.nlev:], ranges)):
        (low,), (high,) = (stream_keys(plan, [tuple(top * (c < 0) for c in a)]),
                           stream_keys(plan, [tuple(top * (c > 0) for c in a)]))
        assert (low[i], high[i]) == (lo, hi)


def test_a_table_built_below_kmax_on_one_row_miscounts():
    # the table's walk needs each row at b + kmax: with reeve:3's level row
    # x0 <= b put at b - 1 (its kmax is 0), the table loses the lattice
    # points with z0 = b, which many cells count
    p = reeve_tetrahedron(3)
    plan = counting._plan(p)
    stream = ShiftStream(3, 1)
    draws = [stream.numerators() for _ in range(300)]
    keys = stream_keys(plan, draws)
    truth = [counting._count_polytope(p, m, 2**64).count for m in draws]
    table = counting._rim_table(plan)
    assert [counting._table_count(table, key) for key in keys] == truth
    j = next(j for j in range(plan.nlev) if plan.rows[j][0] > 0)
    levels = counting._levels

    def lowered(plan, R, fiber, prefixes):
        return levels(plan, R[:j] + [R[j] - 1] + R[j + 1:], fiber, prefixes)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(counting, "_levels", lowered)
        mutant = counting._rim_table(plan)
    assert [counting._table_count(mutant, key) for key in keys] != truth


def test_a_large_dilate_has_a_small_rim_and_exact_table_counts():
    p = dilate(random_lattice_polytope(3, 6, 3, seed=300), 20)
    plan = counting._plan(p)
    ncore, full, rows = counting._rim_table(plan)
    rim = full.bit_length()
    assert 0 < 5 * rim < ncore + rim and rows
    stream = ShiftStream(3, 6)
    draws = [stream.numerators() for _ in range(30)]
    for m, key in zip(draws, stream_keys(plan, draws)):
        assert counting._table_count((ncore, full, rows), key) == count_at(
            p, tuple(F(x, 2**64) for x in m)).count


@pytest.mark.parametrize("parts", [
    alone(dilate(random_lattice_polytope(3, 6, 3, seed=300), 5)),
    half_step_union(dilate(random_lattice_polytope(3, 6, 3, seed=300), 3)),
    alone(dilate(cross_polytope(4), 3)),
    alone(WIDE_ROW),
], ids=["3d-x5", "3d-x3-union", "cross4-x3", "wide-row"])
def test_table_counts_equal_the_walk_on_large_bodies(parts, monkeypatch):
    walked = spy_walks(monkeypatch)
    draws = list(generic_draws(ShiftStream(parts[0].dim, 4), list(parts), 400))
    assert walked == []
    for nums, counts, _ in draws:
        for p, part_counts in zip(parts, counts):
            for m, count in zip(nums, part_counts):
                assert count == counting._count_polytope(p, m, 2**64).count


def test_generic_new_cells_are_never_walked(monkeypatch):
    # reeve:3 has a handful of points per fiber; every new cell still comes from its table
    walked = spy_walks(monkeypatch)
    p = reeve_tetrahedron(3)
    list(generic_draws(ShiftStream(3, 1), [p], 2000))
    assert walked == [] and p._count_plan.table and len(p._count_plan.memo) > 1


def test_a_body_past_the_rim_cap_walks_its_new_cells(monkeypatch):
    # dilate(cross_polytope(4), 3) has a 260-point rim: its masks do not fit in 4096 bits
    monkeypatch.setattr(counting, "_RIM_CAP", 4096)
    p = dilate(cross_polytope(4), 3)
    walked = spy_walks(monkeypatch)
    draws = list(generic_draws(ShiftStream(4, 2), [p], 50))
    assert p._count_plan.table is False
    assert len(walked) == len(p._count_plan.memo) > 1
    for nums, (counts,), _ in draws:
        for m, count in zip(nums, counts):
            assert count == count_at(p, tuple(F(x, 2**64) for x in m)).count


def reference_rim_table(plan):
    """The rim table written point by point, as it was first built: each rim
    point's entries row by row, then each row's masks from its entries
    sorted by value."""
    body = plan.rows[plan.nlev:]
    kmin, kmax = zip(*map(counting._key_range, body))
    widths = list(map(operator.sub, kmax, kmin))
    cap = len(body) * (counting._RIM_CAP // (sum(widths) + len(widths)))
    last, nnz = plan.cols[-1], plan.nnz
    ncore = 0
    rim = bytearray() if max(widths) < 256 else []
    zero = itertools.repeat(0)

    def fiber(R, prefix):
        nonlocal ncore
        lo, hi = counting._span(plan, R)
        if lo > hi or len(rim) > cap:
            return
        C = list(map(operator.sub, R, widths))
        clo, chi = counting._span(plan, C)
        zs = range(lo, hi + 1)
        if clo <= chi and min(C[nnz:], default=0) >= 0:
            ncore += chi - clo + 1
            zs = itertools.chain(range(lo, clo), range(chi + 1, hi + 1))
        for z in zs:
            rim.extend(map(max, zero, map(operator.sub, map(z.__mul__, last), C)))

    R = [b + counting._key_range(a)[1] for a, b in zip(plan.rows, plan.rhs)]
    counting._levels(plan, R, fiber, False)
    if len(rim) > cap:
        return False
    rows = []
    for i, w in enumerate(widths):
        col = rim[i::len(body)]
        if col and max(col):
            digits = bytearray(b"0" * len(col))
            masks = []
            for v, js in itertools.groupby(sorted(range(len(col)), key=col.__getitem__),
                                           col.__getitem__):
                masks += [masks[-1] if masks else 0] * (v - len(masks))
                for j in js:
                    digits[j] = 49
                masks.append(int(digits, 2))
            masks += masks[-1:] * (w - v)
            rows.append((i, masks))
    return ncore, (1 << len(rim) // len(body)) - 1, rows


@pytest.mark.parametrize("p", CATALOG_BODIES + [WIDE_ROW])
def test_rim_table_equals_the_point_major_reference(p):
    # the table is written column by column, one arithmetic run per row and
    # fiber; on the wide row a column holds entries past a byte
    plan = counting._plan(fresh_copy(p))
    assert counting._rim_table(plan) == reference_rim_table(plan)


def test_the_wide_row_takes_the_list_path():
    # its column holds entries past a byte: its masks still change there
    ncore, full, rows = counting._rim_table(counting._plan(fresh_copy(WIDE_ROW)))
    wide = [masks for _, masks in rows if len(masks) > 256]
    assert wide and any(masks[255] != masks[-1] for masks in wide)


@given(table_bodies())
@settings(max_examples=80, deadline=None)
def test_rim_table_equals_the_point_major_reference_on_table_bodies(parts):
    for p in parts:
        if p.is_full_dim:
            plan = counting._plan(fresh_copy(p))
            assert counting._rim_table(plan) == reference_rim_table(plan)


def test_rim_table_past_the_cap_is_false_as_in_the_reference(monkeypatch):
    monkeypatch.setattr(counting, "_RIM_CAP", 4096)
    plan = counting._plan(fresh_copy(dilate(cross_polytope(4), 3)))
    assert counting._rim_table(plan) is False
    assert reference_rim_table(plan) is False


def test_count_at_never_reads_the_table_or_the_memo(monkeypatch):
    p = dilate(random_lattice_polytope(3, 6, 3, seed=300), 5)
    list(generic_draws(ShiftStream(3, 2), [p], 300))  # fill the memo, build the table
    plan = p._count_plan
    assert plan.table and plan.memo
    # poison both: a count read from either would be negative
    plan.memo = dict.fromkeys(plan.memo, -1)
    plan.table = (-10**6, 0, [])
    walked = spy_walks(monkeypatch)
    stream, fresh = ShiftStream(3, 2), fresh_copy(p)
    for _ in range(50):
        s = stream.draw()
        assert count_at(p, s) == count_at(fresh, s)
    assert len(walked) == 100


def test_count_matches_brute_force_rational_shift():
    p = random_lattice_polytope(3, 6, 2, seed=77)
    s = (F(1, 3), F(2, 5), F(5, 7))
    fast = count_at(p, s)
    slow = brute_count(p, s)
    assert fast.count == slow.count
    assert set(fast.boundary_hits) == set(slow.boundary_hits)


def test_count_matches_brute_force_non_lattice_body():
    p = random_lattice_polytope(2, 5, 3, seed=78).translated((F(1, 3), F(2, 7)))
    assert not p.is_lattice
    for s in ((F(0), F(0)), (F(1, 2), F(1, 5)), (F(2, 3), F(5, 7))):
        fast = count_at(p, s)
        slow = brute_count(p, s)
        assert fast.count == slow.count
        assert set(fast.boundary_hits) == set(slow.boundary_hits)


# ---------------------------------------------------------------------------
# generic counts, parallelepipeds, zonotopes


def generic_counts(body, seed, n=8):
    """The distinct counts of `body` at the first n generic stream draws."""
    return {c for _, (counts,), _ in generic_draws(ShiftStream(body.dim, seed), [body], n)
            for c in counts}


def test_generic_count_matches_parallelepiped_index():
    gens = [(1, 1), (0, 2)]
    para = Polytope(2, [(0, 0), (1, 1), (0, 2), (1, 3)])
    assert zonotope_constant(ZonotopeSpec(2, gens)) == 2
    # brute-force oracle over 100 generic shifts
    stream = ShiftStream(2, seed=13)
    counts = set()
    drawn = 0
    while drawn < 100:
        res = count_at(para, stream.draw())
        if res.is_generic:
            counts.add(res.count)
            drawn += 1
    assert counts == {2}
    assert generic_counts(para, seed=21) == {2}


def test_parallelepiped_index_standard_basis():
    # a parallelepiped is the zonotope of its d generators
    assert zonotope_constant(ZonotopeSpec(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])) == 1


def test_parallelepiped_index_degenerate():
    with pytest.raises(DegenerateInput):
        zonotope_constant(ZonotopeSpec(3, [(1, 0, 0), (0, 1, 0), (1, 1, 0)]))


def test_empty_body_rejects_a_wrong_length_shift():
    # the shift's length is checked before an empty body counts 0
    empty = Polytope.empty(3)
    assert count_at(empty, (F(1, 2),) * 3) == CountResult(0)
    with pytest.raises(DegenerateInput, match="shift dimension"):
        count_at(empty, (F(1, 2),))
    with pytest.raises(DegenerateInput, match="shift dimension"):
        next(generic_draws(ShiftStream(2, 0), [empty], 1))


@pytest.mark.parametrize("n", [True, 2.0, F(3)], ids=["bool", "float", "fraction"])
def test_draw_counts_must_be_ints(n):
    # getrandbits would take True as one draw's bits and reject the others bare
    p = reeve_tetrahedron(3)
    with pytest.raises(DegenerateInput, match="must be an integer"):
        list(generic_draws(ShiftStream(3, 0), [p], n))
    with pytest.raises(DegenerateInput, match="must be an integer"):
        list(counting.stream_counts(ShiftStream(3, 0), p, n))


def test_generic_draws_redraw_on_boundary_hits_then_give_up(monkeypatch):
    cube, corner, inside = unit_cube(2), (0, 0), (F(1, 2), F(1, 4))
    # the corner shift has boundary hits on both bodies, the inside one is taken
    stream = ScriptedStream([corner, corner, inside])
    assert listed(generic_draws(stream, [cube, dilate(cube, 2)], 1)) == [([(2**63, 2**62)], [[1], [4]], [2])]
    assert stream.drawn == 3
    monkeypatch.setattr(counting, "_TRIES", 5)
    stream = ScriptedStream([corner] * 5)
    with pytest.raises(DegenerateInput, match="no shift generic for every body in 5 draws"):
        next(generic_draws(stream, [cube], 1))
    assert stream.drawn == 5
    # _TRIES bounds the rejections in a row, across blocks: a generic draw
    # starts the count again
    monkeypatch.setattr(counting, "_TRIES", 3)
    stream = ScriptedStream([corner, corner, inside] * 2 + [corner] * 3)
    draws = generic_draws(stream, [cube], 3)
    assert [r for _, _, redraws in itertools.islice(draws, 2) for r in redraws] == [2, 2]
    with pytest.raises(DegenerateInput, match="in 3 draws"):
        next(draws)
    assert stream.drawn == 9
    # the draws taken before the limit in the same block come first
    stream = ScriptedStream([inside] + [corner] * 3)
    draws = generic_draws(stream, [cube], 4)
    assert listed(itertools.islice(draws, 1)) == [([(2**63, 2**62)], [[1]], [0])]
    with pytest.raises(DegenerateInput, match="in 3 draws"):
        next(draws)
    assert stream.drawn == 4


def test_generic_draws_keep_a_tight_draw_without_boundary_hits():
    # 2x + 2y <= 1 is tight at (1/8, 3/8), but no lattice point lands on the
    # shifted triangle's edge there, so the walk at that draw keeps it
    tri = Polytope(2, [(0, 0), (F(1, 2), 0), (0, F(1, 2))])
    shifts = [(F(1, 8), F(3, 8)), (0, 0), (F(1, 2), F(1, 4))]
    # the first block of two keeps one draw, so a block of one follows
    assert listed(generic_draws(ScriptedStream(shifts), [tri], 2)) == [
        ([(2**61, 3 * 2**61)], [[count_at(tri, shifts[0]).count]], [0]),
        ([(2**63, 2**62)], [[count_at(tri, shifts[2]).count]], [1]),
    ]
    assert count_at(tri, shifts[0]).is_generic and not count_at(tri, shifts[1]).is_generic


@pytest.mark.parametrize("p", [random_lattice_polytope(3, 6, 3, seed=300), reeve_tetrahedron(3),
                               cross_polytope(3)], ids=["rand3", "reeve3", "octahedron"])
def test_bodies_sharing_a_block_count_as_each_alone(p):
    # P, -P, 2P, P + t and the two parts of a half-step family share rows
    # and negated rows; a hand-made block holds draws where rows are tight,
    # with and without a boundary hit: m = 0, and coordinates at 1/2 =
    # 2**63 / 2**64
    bodies = [p, p.negated(), dilate(p, 2), p.translated((F(1, 3), F(1, 2), 0)),
              *half_step_union(p)]
    stream = ShiftStream(3, 5)
    draws = [stream.numerators() for _ in range(30)] + [
        (0, 0, 0), (2**63, 0, 0), (2**63, 2**63, 5), (1, 2**63, 2**62), (2**63, 2**63, 2**63)]
    raw = pack_draws(draws)
    block = counting._Block(raw, 3)
    shared = [counting._cell_counts(body, block) for body in bodies]
    for body, counts in zip(bodies, shared):
        assert counts == counting._cell_counts(fresh_copy(body), counting._Block(raw, 3))
        for m, count in zip(draws, counts):
            res = counting._count_polytope(body, m, 2**64)
            assert count == (None if res.boundary_hits else res.count)
    rows = block.rows
    assert any(tuple(-c for c in a) in rows for a in rows)
    # each shared row's offsets and tight draws, a negated row's too, are the row's own
    for a, (offsets, tight) in rows.items():
        dots = [sum(map(operator.mul, a, m)) for m in draws]
        kmin = counting._key_range(a)[0]
        assert list(offsets) == [(x >> 64) - kmin for x in dots]
        assert tight == [j for j, x in enumerate(dots) if x % 2**64 == 0]
    tight = set().union(*[t for _, t in rows.values()])
    assert tight <= set(range(30, 35))
    # P's lattice vertices are on its boundary at m = 0; P + t keeps some
    # tight draw, so its count there is a number
    assert shared[0][30] is None
    assert any(shared[3][j] is not None for j in tight)


@pytest.mark.parametrize("k", [1, 2, 7, 256])
def test_stream_block_reads_the_generator_as_numerators_does(k):
    # one getrandbits call of 64 k d bits: little-endian word w is the w-th
    # getrandbits(64), and the generator ends where k numerators() leave it
    for d in range(1, 5):
        block, reference = ShiftStream(d, 11), ShiftStream(d, 11)
        for _ in range(2):
            raw = block.block(k)
            expected = [reference.numerators() for _ in range(k)]
            assert len(raw) == 8 * k * d
            words = [int.from_bytes(raw[w:w + 8], "little") for w in range(0, len(raw), 8)]
            assert list(zip(*[iter(words)] * d)) == expected
            drawn = counting._Block(raw, d)
            assert list(drawn) == [drawn[j] for j in range(k)] == expected
            assert block._rng.getstate() == reference._rng.getstate()


@st.composite
def lane_cases(draw):
    """(rows, draws): one to four rows with entries in +-300, so that both
    9-byte and wider lanes occur, and a block of k draws in d = 1..4, k one
    of a full block and the short last blocks of 20000 and 600 samples.
    Lanes 0 and k - 1 may hold a forced corner draw, coordinates 0, 2**63
    or 2**64 - 1, where rows are tight or reach the ends of their key range."""
    d = draw(st.integers(1, 4))
    rows = draw(st.lists(st.tuples(*[st.integers(-300, 300)] * d).filter(any), min_size=1, max_size=4))
    k = draw(st.sampled_from((1, 32, 88, 256)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    draws = [tuple(rng.getrandbits(64) for _ in range(d)) for _ in range(k)]
    corner = st.tuples(*[st.sampled_from((0, 2**63, 2**64 - 1))] * d)
    for j in draw(st.sets(st.sampled_from((0, k - 1)))):
        draws[j] = draw(corner)
    return rows, draws


@given(lane_cases())
# offsets at the top of a 9-byte lane (255), and past it at m = 0 on a row
# with no positive entry (256 = -kmin, so a 10-byte lane)
@example(([(1, 255), (-1, -255), (-128, -128)], [(2**64 - 1, 2**64 - 1), (0, 0)]))
@settings(max_examples=150, deadline=None)
def test_lane_offsets_and_tight_draws_equal_divmod(case):
    rows, draws = case
    d = len(draws[0])
    block = counting._Block(pack_draws(draws), d)
    assert list(block) == draws
    for a in rows:
        kmin = counting._key_range(a)[0]
        floors, rems = zip(*[divmod(sum(map(operator.mul, a, m)), 2**64) for m in draws])
        offsets, tight = block.offsets(a)
        assert list(offsets) == [q - kmin for q in floors]
        assert tight == [j for j, r in enumerate(rems) if r == 0]


def _flat_body(d):
    """A segment for d >= 2, a rational point for d = 1."""
    if d == 1:
        return Polytope(1, [(F(1, 3),)])
    return Polytope(d, [(0,) * d, (2,) + (1,) * (d - 1)])


@given(oracle_bodies(), st.integers(0, 2**32), st.sampled_from((1, counting._BLOCK, counting._BLOCK + 1)))
@settings(max_examples=60, deadline=None)
def test_generic_draws_match_the_stream_and_count_at(body, seed, n):
    d = body.dim
    union = (body, body.translated((F(1, 2),) * d))
    # a flat body and an empty one count 0 on the block path like any body;
    # a draw where one of the flat body's rows is tight is walked on its own,
    # which decides whether the draw is taken
    for bodies in ([body, *union], [body, _flat_body(d), Polytope.empty(d), *union]):
        reference = ShiftStream(d, seed)
        taken = 0
        for nums, counts, redraws in generic_draws(ShiftStream(d, seed), bodies, n):
            assert 0 < len(nums) <= counting._BLOCK
            assert len(redraws) == len(nums) and all(len(c) == len(nums) for c in counts)
            for m, row, rejected in zip(nums, zip(*counts), redraws):
                for _ in range(rejected):
                    s = reference.draw()
                    assert not all(count_at(b, s).is_generic for b in bodies)
                s = reference.draw()
                assert s == tuple(Fraction(x, 2**64) for x in m)
                assert list(row) == [count_at(b, s).count for b in bodies]
                assert all(count_at(b, s).is_generic for b in bodies)
            taken += len(nums)
        assert taken == n


# golden stdout of `count --input <body> --shifts 5 --seed 2` on three 3-D
# bodies, one of them rational: the stream's shifts and the counts there
# must not move
SHIFTS_SEED2 = (
    '["15921556852572072307/18446744073709551616","15662305406710239867/18446744073709551616",'
    '"1689441204489037471/18446744073709551616"],'
    '["6660334802794327005/18446744073709551616","779760526190760009/4611686018427387904",'
    '"1865339480883138799/2305843009213693952"],'
    '["15750464385269855119/18446744073709551616","580111590634569983/2305843009213693952",'
    '"1957373065894532119/9223372036854775808"],'
    '["659184109953178577/18446744073709551616","785423381042076821/1152921504606846976",'
    '"18441556806163220353/18446744073709551616"],'
    '["11777717384603786643/18446744073709551616","14825084521627418697/18446744073709551616",'
    '"7934351388934121709/9223372036854775808"]'
)

def test_count_command_output_is_pinned(tmp_path, capsys):
    path = tmp_path / "rational3.json"
    path.write_text(json.dumps(RATIONAL_3D))
    for body, counts in (("simplex:3", "[0,0,0,0,1]"), ("central-slab:3", "[1,1,1,1,0]"),
                         (f"file:{path}", "[1,1,1,1,1]")):
        assert main(["count", "--input", body, "--shifts", "5", "--seed", "2"]) == 0
        assert capsys.readouterr().out == (
            '{"command":"count","counts":' + counts + ',"generic":[true,true,true,true,true],'
            '"input":"' + body + '","seed":2,"shifts":[' + SHIFTS_SEED2 + ']}\n'
        )


def test_count_command_output_across_blocks_is_pinned(capsys):
    # 600 shifts are three blocks of the cell-by-cell count path; the digest
    # is of the output of a plain count_at walk at every shift
    assert main(["count", "--input", "reeve:3", "--shifts", "600", "--seed", "2"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "24a2fbccd5860fa9c5730b84cce509eee344375aafaff43196d4e81b050b4091"


def test_stream_counts_give_count_at_results_in_draw_order(monkeypatch):
    # a tight draw with no boundary hit, a draw with a hit at (0, 0), and a
    # generic draw: only the draw with the hit is walked by count_at
    tri = Polytope(2, [(0, 0), (F(1, 2), 0), (0, F(1, 2))])
    shifts = [(F(1, 8), F(3, 8)), (0, 0), (F(1, 2), F(1, 4))]
    expected = [(s, count_at(tri, s)) for s in shifts]
    assert [r.boundary_hits for _, r in expected] == [(), ((0, 0),), ()]
    walked = []
    monkeypatch.setattr(counting, "count_at", lambda b, s: walked.append(s) or count_at(b, s))
    stream = ScriptedStream(shifts)
    assert list(counting.stream_counts(stream, tri, 3)) == expected
    assert walked == [(0, 0)] and stream.drawn == 3


def test_zonotope_constant_hexagon():
    spec = HEXAGON
    assert zonotope_constant(spec) == 3
    assert generic_counts(zonotope_polytope(spec), seed=2) == {3}
    assert zonotope_polytope(spec).volume() == 3


def test_zonotope_constant_3d_with_diagonal():
    spec = ZonotopeSpec(
        3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))
    )
    # four 3-subsets, each |det| = 1
    assert zonotope_constant(spec) == 4


def test_zonotope_constant_standard_basis():
    spec = ZonotopeSpec(2, ((1, 0), (0, 1)))
    assert zonotope_constant(spec) == 1


def test_zonotope_degenerate_span():
    with pytest.raises(DegenerateInput):
        zonotope_constant(ZonotopeSpec(2, ((1, 1), (2, 2))))


def test_zonotope_constancy_over_shifts():
    spec = HEXAGON
    poly = zonotope_polytope(spec)
    stream = ShiftStream(2, seed=17)
    done = 0
    while done < 100:
        res = count_at(poly, stream.draw())
        if res.is_generic:
            assert res.count == 3
            done += 1


def test_zonotope_json_round_trip():
    data = {"dim": 2, "generators": [[1, 0], [0, 1], [1, 1]]}
    assert zonotope_spec_from_json(data) == HEXAGON


def test_zonotope_spec_rejects_non_integer():
    # one check serves the constructor and the JSON reader, and names the generator
    with pytest.raises(DegenerateInput, match=r"integral, got \(1/2, 0\)"):
        ZonotopeSpec(2, ((F(1, 2), F(0)),))
    with pytest.raises(DegenerateInput, match=r"integral, got \(1, 3/2\)"):
        zonotope_spec_from_json({"dim": 2, "generators": [[1, 0], [1, "3/2"]]})


def test_shift_stream_pins_the_dyadic_mt19937_stream():
    rng = random.Random(42)
    stream = ShiftStream(3, seed=42)
    for _ in range(5):
        expected = tuple(Fraction(rng.getrandbits(64), 2**64) for _ in range(3))
        assert stream.draw() == expected


def test_shift_stream_deterministic():
    a = [ShiftStream(3, seed=42).draw() for _ in range(1)]
    b = [ShiftStream(3, seed=42).draw() for _ in range(1)]
    assert a == b
