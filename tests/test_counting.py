"""Shifted lattice-point counting, genericity, parallelepipeds, zonotopes."""

import itertools
import json
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyshift.catalog import (
    central_slab,
    embed_with_zero_last,
    hexagon_zonotope,
    random_lattice_polytope,
    reeve_tetrahedron,
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
    generic_count,
    parallelepiped_index,
    zonotope_constant,
    zonotope_polytope,
    zonotope_spec_from_json,
    zonotope_spec_to_json,
)
from polyshift.errors import DegenerateInput, NotConstant
from polyshift.geometry import Polytope, PolytopeUnion, dilate, unit_cube, volume

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
        if p.on_boundary(tuple(F(c) - s for c, s in zip(z, coords)))
    )
    return CountResult(len(pts), hits)


def brute_count_body(body, coords):
    """The oracle over a body; a union reports its parts' hits in part order."""
    parts = body.parts if isinstance(body, PolytopeUnion) else (body,)
    res = [brute_count(p, coords) for p in parts]
    return CountResult(sum(r.count for r in res), tuple(z for r in res for z in r.boundary_hits))


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


def test_union_counts_add():
    a = standard_simplex(2)
    b = standard_simplex(2).translated((5, 5))
    u = PolytopeUnion((a, b))
    stream = ShiftStream(2, seed=8)
    for _ in range(20):
        s = stream.draw()
        assert count_at(u, s).count == count_at(a, s).count + count_at(b, s).count


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
    assert count_at(p, s) == brute_count_body(p, s)


@given(st.sampled_from(FLAT_BODIES), st.data())
@settings(max_examples=100, deadline=None)
def test_flat_count_equals_oracle_exactly(p, data):
    s = data.draw(oracle_shifts(p.dim))
    assert count_at(p, s) == brute_count_body(p, s)


@given(oracle_shifts(2))
@settings(max_examples=60, deadline=None)
def test_union_count_equals_oracle_exactly(s):
    a = random_lattice_polytope(2, 5, 2, seed=4)
    b = standard_simplex(2).translated((F(1, 2), F(-1, 3)))
    u = PolytopeUnion((a, b, a.translated((1, 0))))
    assert count_at(u, s) == brute_count_body(u, s)


def half_step_union(p):
    """p and its copy moved by 1/2 along the first axis, as a two-part union."""
    return PolytopeUnion((p, p.translated((F(1, 2),) + (0,) * (p.dim - 1))))


@given(st.one_of(oracle_bodies(), st.sampled_from(FLAT_BODIES),
                 oracle_bodies().map(half_step_union)), st.data())
@settings(max_examples=150, deadline=None)
def test_integer_move_of_the_shift_moves_the_hits(body, data):
    # count_at reduces the shift modulo Z^d and translates the hits back
    s = data.draw(oracle_shifts(body.dim))
    k = data.draw(st.tuples(*[st.integers(-3, 3)] * body.dim))
    res = count_at(body, s)
    moved = tuple(tuple(map(operator.add, z, k)) for z in res.boundary_hits)
    assert count_at(body, tuple(map(operator.add, s, k))) == CountResult(res.count, moved)


# ---------------------------------------------------------------------------
# the per-body count memo, keyed by the floor vector of the body's rows


def fresh_copy(body):
    """The same body with no count plan, hence an empty memo."""
    if isinstance(body, PolytopeUnion):
        return PolytopeUnion(tuple(map(fresh_copy, body.parts)))
    return Polytope(body.dim, body.numerators, den=body.denominator)


def body_floors(p, s):
    """The memo key of shift s on p: floor(a . s) over p's counted rows."""
    plan = p._count_plan
    return tuple(math.floor(sum(map(operator.mul, a, s))) for a in plan.rows[plan.nlev:])


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
    if data.draw(st.booleans()):
        p = half_step_union(p)
    for s in data.draw(same_cell_shifts(p.dim)):
        res = count_at(p, s)
        assert res == brute_count_body(p, s)
        assert res == count_at(fresh_copy(p), s)


def test_memo_keys_on_rows_with_zero_last_coefficient():
    # [0, 1/2] x [0, 1]: the rows on y agree at both shifts, 2x <= 1 does not
    p = Polytope(2, [(0, 0), (F(1, 2), 0), (0, 1), (F(1, 2), 1)])
    assert count_at(p, (F(1, 4), F(1, 2))).count == 0
    assert count_at(p, (F(3, 4), F(1, 2))).count == 1
    assert len(p._count_plan.memo) == 2


def test_tight_shift_in_a_cached_cell_reports_its_boundary_hits():
    p = reeve_tetrahedron(3)
    generic, tight = (F(1, 64), F(1, 2), F(33, 64)), (F(0), F(1, 2), F(1, 2))
    assert count_at(p, generic) == CountResult(1)
    assert body_floors(p, tight) in p._count_plan.memo
    assert count_at(p, tight) == CountResult(1, ((1, 1, 2),)) == brute_count(p, tight)
    # translated back by the shift's integer part, as at a fresh body
    far = (F(-1), F(5, 2), F(1, 2))
    assert count_at(p, far) == CountResult(1, ((0, 3, 2),)) == count_at(fresh_copy(p), far)
    # the tight count wrote nothing, so the generic shift is still served clean
    assert len(p._count_plan.memo) == 1
    assert count_at(p, generic) == CountResult(1)


def test_flat_bodies_never_touch_the_memo():
    stream = ShiftStream(4, seed=3)
    for p in FLAT_BODIES:
        for _ in range(40):
            s = stream.draw()
            count_at(p, s[:p.dim])
        count_at(p, (0,) * p.dim)
        assert p._count_plan.memo == {}


def test_memo_stops_growing_at_its_cap_and_counts_stay_exact(monkeypatch):
    monkeypatch.setattr(counting, "_MEMO_CAP", 3)
    p = random_lattice_polytope(3, 8, 3, seed=7)
    stream = ShiftStream(3, seed=5)
    shifts = [stream.draw() for _ in range(30)]
    for s in shifts + shifts:
        assert count_at(p, s) == brute_count(p, s)
    memo = p._count_plan.memo
    assert len(memo) == 3
    # a full memo still serves its cells
    first = shifts[0]
    assert count_at(p, first) is memo[body_floors(p, first)]
    assert len({body_floors(p, s) for s in shifts}) > 3


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


def test_generic_count_cube():
    assert generic_count(unit_cube(3), seed=5) == 1


def test_generic_count_matches_parallelepiped_index():
    gens = [(1, 1), (0, 2)]
    para = Polytope(2, [(0, 0), (1, 1), (0, 2), (1, 3)])
    assert parallelepiped_index(gens) == 2
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
    assert generic_count(para, seed=21) == 2


def test_parallelepiped_index_standard_basis():
    assert parallelepiped_index([(1, 0, 0), (0, 1, 0), (0, 0, 1)]) == 1


def test_parallelepiped_index_degenerate():
    with pytest.raises(DegenerateInput):
        parallelepiped_index([(1, 1), (2, 2)])


def test_generic_count_detects_nonconstant():
    with pytest.raises(NotConstant):
        generic_count(standard_simplex(2), seed=3, trials=32)


class ScriptedStream:
    """Hands out the numerators of the given shifts in turn, over 2**64, and
    counts the draws."""

    def __init__(self, shifts):
        self.shifts = [tuple(int(c * 2**64) for c in s) for s in shifts]
        self.drawn = 0

    def block(self, k):
        self.drawn += k
        return [list(c) for c in zip(*[self.shifts.pop(0) for _ in range(k)])]


def test_generic_draws_redraw_on_boundary_hits_then_give_up():
    cube, corner, inside = unit_cube(2), (0, 0), (F(1, 2), F(1, 4))
    # the corner shift is rejected at the first body, the inside one taken
    stream = ScriptedStream([corner, corner, inside])
    assert next(generic_draws(stream, [cube, dilate(cube, 2)], 1)) == ([(2**63, 2**62)], [[1], [4]], [2])
    assert stream.drawn == 3
    stream = ScriptedStream([corner] * 5)
    with pytest.raises(DegenerateInput, match="no shift generic for every body in 5 draws"):
        next(generic_draws(stream, [cube], 1, tries=5))
    assert stream.drawn == 5
    # tries bounds the rejections in a row, across blocks: a generic draw
    # starts the count again
    stream = ScriptedStream([corner, corner, inside] * 2 + [corner] * 3)
    draws = generic_draws(stream, [cube], 3, tries=3)
    assert [r for _, _, redraws in itertools.islice(draws, 2) for r in redraws] == [2, 2]
    with pytest.raises(DegenerateInput, match="in 3 draws"):
        next(draws)
    assert stream.drawn == 9
    # the draws taken before the limit in the same block come first
    stream = ScriptedStream([inside] + [corner] * 3)
    draws = generic_draws(stream, [cube], 4, tries=3)
    assert next(draws) == ([(2**63, 2**62)], [[1]], [0])
    with pytest.raises(DegenerateInput, match="in 3 draws"):
        next(draws)
    assert stream.drawn == 4


def test_generic_draws_keep_a_tight_draw_without_boundary_hits():
    # 2x + 2y <= 1 is tight at (1/8, 3/8), but no lattice point lands on the
    # shifted triangle's edge there, so the scalar counter keeps the draw
    tri = Polytope(2, [(0, 0), (F(1, 2), 0), (0, F(1, 2))])
    shifts = [(F(1, 8), F(3, 8)), (0, 0), (F(1, 2), F(1, 4))]
    # the first block of two keeps one draw, so a block of one follows
    assert list(generic_draws(ScriptedStream(shifts), [tri], 2)) == [
        ([(2**61, 3 * 2**61)], [[count_at(tri, shifts[0]).count]], [0]),
        ([(2**63, 2**62)], [[count_at(tri, shifts[2]).count]], [1]),
    ]
    assert count_at(tri, shifts[0]).is_generic and not count_at(tri, shifts[1]).is_generic


@pytest.mark.parametrize("k", [1, 2, 7])
def test_stream_block_reads_the_generator_as_numerators_does(k):
    block, reference = ShiftStream(3, 11), ShiftStream(3, 11)
    for _ in range(2):
        assert list(zip(*block.block(k))) == [reference.numerators() for _ in range(k)]


def _flat_body(d):
    """A segment for d >= 2, a rational point for d = 1."""
    if d == 1:
        return Polytope(1, [(F(1, 3),)])
    return Polytope(d, [(0,) * d, (2,) + (1,) * (d - 1)])


@given(oracle_bodies(), st.integers(0, 2**32), st.sampled_from((1, counting._BLOCK, counting._BLOCK + 1)))
@settings(max_examples=60, deadline=None)
def test_generic_draws_match_the_stream_and_count_at(body, seed, n):
    d = body.dim
    union = PolytopeUnion((body, body.translated((F(1, 2),) * d)))
    # without a flat body every block may take the block path; with one,
    # every draw also goes through the scalar counter
    for bodies in ([body, union], [body, _flat_body(d), union]):
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
RATIONAL_3D = {"dim": 3, "vertices": [["-4/3", "-2", "1/3"], ["-1/3", "-1/3", "0"],
                                      ["1/3", "2/3", "2"], ["2/3", "-2/3", "-1"],
                                      ["5/3", "2", "2/3"]]}


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


def test_zonotope_constant_hexagon():
    spec = hexagon_zonotope()
    assert zonotope_constant(spec) == 3
    assert generic_count(zonotope_polytope(spec), seed=2) == 3
    assert volume(zonotope_polytope(spec)) == 3


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
    spec = hexagon_zonotope()
    poly = zonotope_polytope(spec)
    stream = ShiftStream(2, seed=17)
    done = 0
    while done < 100:
        res = count_at(poly, stream.draw())
        if res.is_generic:
            assert res.count == 3
            done += 1


def test_zonotope_json_round_trip():
    spec = hexagon_zonotope()
    assert zonotope_spec_from_json(zonotope_spec_to_json(spec)) == spec


def test_zonotope_spec_rejects_non_integer():
    with pytest.raises(DegenerateInput):
        ZonotopeSpec(2, ((F(1, 2), F(0)),))


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
