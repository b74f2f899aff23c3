"""Command-line interface: parsing, outputs, determinism, exit codes."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyshift.cli import main, parse_polytope_input
from polyshift.counting import ZonotopeSpec
from polyshift.errors import GeometryError
from polyshift.geometry import Polytope, as_vec
from polyshift.verifier import IDENTITY_TAGS


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


# ---------------------------------------------------------------------------
# input parsing


def test_parse_simplex():
    p = parse_polytope_input("simplex:2")
    assert set(p.vertices) == {as_vec(v) for v in [(0, 0), (1, 0), (0, 1)]}


def test_parse_reeve():
    p = parse_polytope_input("reeve:4")
    assert as_vec((1, 1, 4)) in p.vertices


def test_parse_slab():
    p = parse_polytope_input("slab:3:2")
    assert len(p.vertices) == 6


def test_parse_file(tmp_path):
    path = tmp_path / "box.json"
    path.write_text(
        json.dumps({"dim": 2, "vertices": [["0", "0"], ["1", "0"], ["0", "1"], ["1", "1"]]})
    )
    p = parse_polytope_input(f"file:{path}")
    assert isinstance(p, Polytope)
    assert len(p.vertices) == 4


def test_parse_zonotope_file(tmp_path):
    path = tmp_path / "hex.json"
    path.write_text(json.dumps({"dim": 2, "generators": [[1, 0], [0, 1], [1, 1]]}))
    z = parse_polytope_input(f"zonotope:{path}")
    assert isinstance(z, ZonotopeSpec)


@pytest.mark.parametrize(
    "bad", ["nonsense:2", "simplex:x", "file:/no/such/file.json", "slab:3:9"]
)
def test_parse_errors(bad):
    with pytest.raises(GeometryError):
        parse_polytope_input(bad)


# ---------------------------------------------------------------------------
# commands


def test_moments_reeve_1(capsys):
    code, out = run_cli(["moments", "--input", "reeve:1"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["mean"] == "1/6"
    assert data["variance"] == "5/36"
    assert data["seed"] == 0


def test_volume_command(capsys):
    code, out = run_cli(["volume", "--input", "central-slab:3"], capsys)
    data = json.loads(out)
    assert code == 0
    assert data["volume"] == "2/3"
    assert data["isLattice"] is True


def test_distribution_exact_csv(capsys):
    code, out = run_cli(
        ["distribution", "--input", "simplex:3", "--method", "exact", "--format", "csv"],
        capsys,
    )
    assert code == 0
    assert out == "count,probability\n0,5/6\n1,1/6\n"


def test_distribution_mc_deterministic(capsys):
    args = [
        "distribution", "--input", "simplex:2", "--method", "mc",
        "--samples", "2000", "--seed", "11",
    ]
    _, first = run_cli(args, capsys)
    _, second = run_cli(args, capsys)
    assert first == second
    data = json.loads(first)
    assert data["distribution"]["samples"] == 2000


# golden stdout of `distribution --method mc --samples 700 --seed 3`: 700
# samples fill two blocks of generic_draws and part of a third, and the
# tallies must not move
MC_SEED3 = {
    "reeve:3": '{"command":"distribution","distribution":{"entries":{"0":"53/100","1":"31/70",'
               '"2":"19/700"},"kind":"empirical","redraws":0,"samples":700},"input":"reeve:3",'
               '"method":"mc","seed":3}\n',
    "cross4x2": '{"command":"distribution","distribution":{"entries":{"12":"221/700",'
                '"16":"107/700","8":"93/175"},"kind":"empirical","redraws":0,"samples":700},'
                '"input":"{input}","method":"mc","seed":3}\n',
}


@pytest.mark.parametrize("name", sorted(MC_SEED3))
def test_distribution_mc_golden_across_blocks(name, tmp_path, capsys):
    spec = name
    if name == "cross4x2":  # dilate(cross_polytope(4), 2)
        path = tmp_path / "cross4x2.json"
        path.write_text(json.dumps({"dim": 4, "vertices": [
            [s * 2 if j == i else 0 for j in range(4)] for i in range(4) for s in (1, -1)]}))
        spec = f"file:{path}"
    argv = ["distribution", "--method", "mc", "--samples", "700", "--seed", "3", "--input", spec]
    assert run_cli(argv, capsys) == (0, MC_SEED3[name].replace("{input}", spec))


def test_count_command(capsys):
    code, out = run_cli(
        ["count", "--input", "simplex:2", "--shifts", "5", "--seed", "3"], capsys
    )
    data = json.loads(out)
    assert code == 0
    assert len(data["counts"]) == 5
    assert all(c in (0, 1) for c in data["counts"])


def test_verify_zonotope_file(tmp_path, capsys):
    path = tmp_path / "hexagon.json"
    path.write_text(json.dumps({"dim": 2, "generators": [[1, 0], [0, 1], [1, 1]]}))
    code, out = run_cli(
        [
            "verify", "--identity", "zonotope-constancy",
            "--input", f"zonotope:{path}", "--shifts", "100",
        ],
        capsys,
    )
    data = json.loads(out)
    assert code == 0
    assert data["status"] == "pass"
    assert any("constant 3" in n for n in data["notes"])


def test_verify_counterexample_exits_zero(capsys):
    code, out = run_cli(
        ["verify", "--identity", "counterexample-symmetry"], capsys
    )
    data = json.loads(out)
    assert code == 0
    assert data["status"] == "expected-failure-confirmed"


def test_reeve_audit_command(capsys):
    code, out = run_cli(["reeve-audit", "--n", "2"], capsys)
    data = json.loads(out)
    assert code == 0
    assert data["varLayerOracle"] == "2/9"
    assert data["varClosedForm"] == "29/144"
    assert data["oraclesAgree"] is True
    assert data["matchesClosedForm"] is False


def test_catalog_list(capsys):
    code, out = run_cli(["catalog"], capsys)
    data = json.loads(out)
    assert code == 0
    assert "simplex:<d>" in data["constructions"]
    assert "zonotope-constancy" in data["identities"]


def test_catalog_dump_round_trip(tmp_path, capsys):
    path = tmp_path / "dump.json"
    code, _ = run_cli(["catalog", "--dump", "simplex:2", "--out", str(path)], capsys)
    assert code == 0
    reparsed = parse_polytope_input(f"file:{path}")
    assert reparsed == parse_polytope_input("simplex:2")


def test_verify_failure_exits_one(capsys, monkeypatch):
    import polyshift.cli as cli_mod
    from polyshift.verifier import VerificationReport

    def fake_verify(kind, **kwargs):
        return VerificationReport(
            identity=kind, instances=1, shifts_per_instance=1, status="fail"
        )

    monkeypatch.setattr(cli_mod, "verify", fake_verify)
    code, out = run_cli(["verify", "--identity", "minkowski-2d"], capsys)
    assert code == 1
    assert json.loads(out)["status"] == "fail"


def test_error_exit_code_and_payload(capsys):
    code, out = run_cli(["moments", "--input", "nonsense:1"], capsys)
    assert code == 2
    data = json.loads(out)
    assert "error" in data


def test_flat_input_moment_error(capsys):
    code, out = run_cli(["moments", "--input", "central-slab:2"], capsys)
    assert code == 2
    assert "error" in json.loads(out)


def test_cell_budget_flag(capsys):
    code, out = run_cli(
        [
            "distribution", "--input", "reeve:3", "--method", "exact",
            "--cell-budget", "4",
        ],
        capsys,
    )
    assert code == 2
    assert "error" in json.loads(out)


def test_byte_determinism_across_processes():
    cmd = [
        sys.executable, "-m", "polyshift",
        "distribution", "--input", "simplex:2", "--method", "mc",
        "--samples", "500", "--seed", "7",
    ]
    a = subprocess.run(cmd, capture_output=True, check=True).stdout
    b = subprocess.run(cmd, capture_output=True, check=True).stdout
    assert a == b


def test_runtime_does_not_import_scipy():
    # scipy is a test-only dependency; the chi-square tail is closed form
    code = (
        "import sys, polyshift.cli; "
        "polyshift.cli.main(['distribution', '--method', 'mc', '--samples', '50', '--input', 'reeve:2']); "
        "assert 'scipy' not in sys.modules"
    )
    subprocess.run([sys.executable, "-c", code], capture_output=True, check=True)


def test_output_to_file(tmp_path, capsys):
    path = tmp_path / "out.json"
    code, out = run_cli(
        ["moments", "--input", "simplex:2", "--out", str(path)], capsys
    )
    assert code == 0
    assert out == ""
    assert json.loads(path.read_text())["mean"] == "1/2"


@pytest.mark.parametrize(
    "argv, body",
    [
        # a fractional zonotope generator is rejected, not truncated by int()
        (["volume", "--input", "zonotope:{path}"], {"dim": 2, "generators": [[1.5, 0], [0, 1]]}),
        # a JSON boolean is not a dimension
        (["volume", "--input", "file:{path}"], {"dim": True, "vertices": [["0"], ["1"]]}),
        (["volume", "--input", "zonotope:{path}"], {"dim": True, "generators": [[1]]}),
        (["reeve-audit", "--n", "0"], None),
        (["count", "--input", "simplex:2", "--shifts", "-3"], None),
        # verify: an input of the wrong kind, or on a tag that takes none
        (["verify", "--identity", "zonotope-constancy", "--input", "simplex:2"], None),
        (["verify", "--identity", "centrally-symmetric-2d-constancy", "--input", "simplex:2"],
         None),
        (["verify", "--identity", "centrally-symmetric-2d-constancy", "--input", "zonotope:{path}"],
         {"dim": 3, "generators": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}),
        (["verify", "--identity", "minkowski-2d", "--input", "simplex:2"], None),
        (["verify", "--identity", "scaling-simplex", "--input", "zonotope:{path}"],
         {"dim": 2, "generators": [[1, 0], [0, 1]]}),
        # verify: negative sizes would report a vacuous pass
        (["verify", "--identity", "minkowski-2d", "--instances", "-1"], None),
        (["verify", "--identity", "minkowski-2d", "--shifts", "-2"], None),
        (["verify", "--identity", "scaling-simplex", "--n", "-1"], None),
        # a Minkowski counterexample compares the deltas at two shifts
        (["verify", "--identity", "counterexample-minkowski", "--shifts", "0"], None),
        (["verify", "--identity", "counterexample-minkowski", "--shifts", "1"], None),
        # an --out path that cannot be written: a missing directory, or a directory
        (["volume", "--input", "simplex:2", "--out", "{dir}/missing/x.json"], None),
        (["volume", "--input", "simplex:2", "--out", "{dir}"], None),
        (["distribution", "--format", "csv", "--input", "simplex:2", "--out",
          "{dir}/missing/x.csv"], None),
    ],
)
def test_bad_input_exits_two_with_error_payload(argv, body, tmp_path, capsys):
    path = tmp_path / "body.json"
    if body is not None:
        path.write_text(json.dumps(body))
    code = main([a.format(path=path, dir=tmp_path) for a in argv])
    out, err = capsys.readouterr()
    assert code == 2
    assert "error" in json.loads(out)
    assert "Traceback" not in err


def test_broken_invariant_exits_three_with_error_payload(monkeypatch, capsys):
    # a split that loses the cut-away side leaves cells that no longer fill
    # the cube, which breaks the law engine's invariant; that is a defect,
    # not an input error or a failed identity
    import polyshift.distributions as distributions

    real = distributions.clip_both
    monkeypatch.setattr(distributions, "clip_both",
                        lambda cell, h: (real(cell, h)[0], Polytope.empty(cell.dim)))
    code, out = run_cli(["distribution", "--method", "exact", "--input", "simplex:2"], capsys)
    assert code == 3
    assert "not 1" in json.loads(out)["error"]


def test_flat_cap_inside_the_difference_body_exits_three(monkeypatch, capsys):
    # every translate the covariance clips lies strictly inside p - q, so
    # its cap is full-dimensional; a clip that flattens it is a kernel fault
    import polyshift.distributions as distributions

    real = distributions.clip
    monkeypatch.setattr(distributions, "clip", lambda cap, h: real(real(cap, h), h.flipped()))
    code, out = run_cli(["moments", "--input", "simplex:2"], capsys)
    assert code == 3
    assert "turned flat" in json.loads(out)["error"]


def test_non_symmetry_in_the_orbit_sum_exits_three(monkeypatch, capsys, tmp_path):
    # swapping x and y is no symmetry of the 3 x 1 box: it moves the
    # interior translate (2, 0) of the difference body (-3, 3) x (-1, 1) to
    # (0, 2) outside it, so the orbits overcount the interior translates
    import polyshift.distributions as distributions

    path = tmp_path / "box.json"
    path.write_text(json.dumps({"dim": 2, "vertices": [[0, 0], [3, 0], [0, 1], [3, 1]]}))
    swap = [[((0, 1), (1, 1)), ((1, 1), (0, 1))]]
    monkeypatch.setattr(distributions, "_symmetries", lambda p: swap)
    code, out = run_cli(["moments", "--input", f"file:{path}"], capsys)
    assert code == 3
    assert "orbits cover" in json.loads(out)["error"]


# ---------------------------------------------------------------------------
# malformed input never crashes: exit 0 or 2, never a traceback


def run_quietly(argv):
    """(exit code, stderr) of one in-process CLI call; argparse rejections
    arrive as SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


# small values only: a well-formed body must stay cheap to measure
json_entries = st.one_of(
    st.integers(-3, 3),
    st.sampled_from(["1/2", "-2/3", "0", "1/0", "", "x", " 1", "1e1", "nan", "inf", "1.5"]),
    st.none(),
    st.booleans(),
    st.floats(-2, 2),
    st.lists(st.integers(-1, 1), max_size=2),
    st.dictionaries(st.sampled_from(["dim", "x"]), st.integers(0, 2), max_size=1),
)
json_rows = st.one_of(
    st.lists(st.lists(json_entries, max_size=4), max_size=5),
    json_entries,
)
json_bodies = st.one_of(
    st.fixed_dictionaries({}, optional={
        "dim": st.one_of(st.integers(-1, 4), st.none(), st.booleans(), st.floats(0, 3),
                         st.sampled_from(["2", ""])),
        "vertices": json_rows,
        "generators": json_rows,
    }),
    json_rows,
)


@given(st.sampled_from(["file", "zonotope"]), json_bodies,
       st.sampled_from([["volume"], ["count", "--shifts", "2"], ["catalog", "--dump"]]))
@settings(max_examples=200, deadline=None)
def test_malformed_body_json_exits_zero_or_two(kind, body, command):
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(body, fh)
        spec = f"{kind}:{path}"
        argv = command + ([spec] if command[0] == "catalog" else ["--input", spec])
        code, err = run_quietly(argv)
    finally:
        os.unlink(path)
    assert code in (0, 2)
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["count", "--input", "simplex:3", "--shifts", "3", "--seed", "-1"],
    ["distribution", "--method", "mc", "--samples", "10", "--seed", "-5", "--input", "reeve:3"],
    # these two never build a stream from the seed: the catalog's draws and
    # the exact moments would otherwise run with it
    ["verify", "--identity", "symmetric-distribution-2d", "--seed", "-3"],
    ["moments", "--input", "reeve:2", "--seed", "-4"],
])
def test_negative_seed_exits_two_with_error_payload(argv, capsys):
    # random.seed takes |seed|, so a negative seed would replay another stream
    code, out = run_cli(argv, capsys)
    assert code == 2
    assert "seed must be nonnegative" in json.loads(out)["error"]


# out-of-range values: nonpositive sizes and dimensions, unknown names and
# non-integers; large positive sizes are left out, as they only cost time
sizes = st.one_of(st.integers(-2, 2), st.just(-10**6), st.sampled_from(["", "x", "1.5"])).map(str)
argument_lists = st.one_of(
    st.builds(lambda n: ["count", "--input", "simplex:2", "--shifts", n], sizes),
    st.builds(lambda n: ["distribution", "--method", "mc", "--samples", n, "--input", "simplex:2"],
              sizes),
    st.builds(lambda n: ["distribution", "--cell-budget", n, "--input", "simplex:2"], sizes),
    st.builds(lambda n: ["count", "--input", "simplex:2", "--shifts", "2", "--seed", n], sizes),
    st.builds(lambda n: ["distribution", "--method", "mc", "--samples", "5", "--seed", n,
                         "--input", "simplex:2"], sizes),
    st.builds(lambda n: ["verify", "--identity", "symmetric-distribution-2d", "--instances", "2",
                         "--seed", n], sizes),
    st.builds(lambda n: ["moments", "--input", "reeve:2", "--seed", n], sizes),
    st.builds(lambda n, m: ["reeve-audit", "--n", n, "--max-distribution-n", m], sizes, sizes),
    st.builds(lambda t, i, s, n: ["verify", "--identity", t, "--instances", i, "--shifts", s,
                                  "--n", n],
              st.sampled_from(IDENTITY_TAGS + ("no-such-tag",)), sizes, sizes, sizes),
    st.builds(lambda name, a, b: ["volume", "--input", f"{name}:{a}:{b}"],
              st.sampled_from(["simplex", "slab", "reeve", "central-slab", "cube"]), sizes, sizes),
    st.builds(lambda name, a: ["volume", "--input", f"{name}:{a}"],
              st.sampled_from(["simplex", "slab", "reeve", "central-slab"]), sizes),
)


@given(argument_lists)
@settings(max_examples=150, deadline=None)
def test_out_of_range_arguments_exit_zero_or_two(argv):
    code, err = run_quietly(argv)
    assert code in (0, 2)
    assert "Traceback" not in err
