import functools
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dtough import blocking, cli, delaunay, diskpath, exactgeom, generate, pointfile, structure
from dtough.exactgeom import MAX_EXPONENT, MAX_LITERAL
from dtough.pointfile import format_points, parse_points
from dtough.errors import (
    ConstructionFailed,
    DegenerateInput,
    InvariantBroken,
    NoPerfectMatching,
    PointFileError,
    TooLarge,
)
from dtough.exactgeom import Violation, ViolationKind, general_position, point

import helpers


def test_pointfile_roundtrip():
    text = "1/2 3\n-7/3 0\n4 -9/131\n"
    pts = parse_points(text)
    assert format_points(pts) == text
    # decimals parse exactly but re-emit canonically
    assert parse_points("0.25 0.5\n") == (point("1/4", "1/2"),)


def test_pointfile_errors_carry_line_numbers():
    with pytest.raises(PointFileError) as exc:
        parse_points("1 2\nbogus\n")
    assert exc.value.line_no == 2
    with pytest.raises(PointFileError) as exc:
        parse_points("1 2\n# fine\n1 2\n")
    assert exc.value.line_no == 3
    with pytest.raises(PointFileError) as exc:
        parse_points("1 2 3\n")
    assert exc.value.line_no == 1


# Point-file fields: canonical ints and fractions as gen writes them, with
# leading zeros, -0 and unreduced or zero denominators; fields past the
# length cap; spellings only coord reads or refuses. Small values, and
# pairs of lines that spell one point two ways, make duplicates common.
_SPELLED = [
    "0", "-0", "007", "-007", "00/4", "2/4", "-0/3", "1/0", "-3/00", "1.0", "1e0", "0.5", "-2.50",
    "2E-2", f"1e{MAX_EXPONENT + 1}", "1" * (MAX_LITERAL + 1), "1/" + "3" * MAX_LITERAL,
    "9" * MAX_LITERAL, "-" + "9" * (MAX_LITERAL - 1), "\u0663", "\uff11\uff12", "1/\u0663", "1_000",
    "+3", "+3/4", "abc", "1/2/3", "--1", "1/-2", "/2", "2/", "-", "1/2.0",
]
_FIELD = st.one_of(
    st.integers(-1, 1).map(str),
    st.builds("{}/{}".format, st.integers(-2, 2), st.integers(0, 2)),
    st.integers(-(10**40), 10**40).map(str),
    st.sampled_from(_SPELLED),
)
_ONES = st.sampled_from(["1", "01", "2/2", "1.0", "1e0"])
_LINE = st.one_of(
    st.builds("{} {}".format, _FIELD, _FIELD),
    st.builds("  {}\t{}  # note".format, _FIELD, _FIELD),
    st.builds("{0} {2}\n{1} {2}".format, _ONES, _ONES, _FIELD),
    st.sampled_from(["", "# comment", "", "# comment", "", "1 2 3"]),
)


def _parsed(parse, text):
    try:
        return parse(text)
    except PointFileError as exc:
        return exc.line_no, str(exc)


@given(st.lists(_LINE, max_size=8).map("\n".join))
@example("1 2\n-3 1/0\n")
@example("1 2\n1 " + "1" * (MAX_LITERAL + 1))
@example("1/2 -0\n1 0\n2/4 0")
@example("1 2\n\u0663 1")
def test_parse_points_matches_the_coord_parser(text):
    found = _parsed(parse_points, text)
    assert found == _parsed(helpers.parse_points_naive, text)
    if all(isinstance(p, exactgeom.Point) for p in found):
        assert all(type(c) is Fraction for p in found for c in p)


def test_pointfile_caps_decimal_exponents(tmp_path):
    # exponents up to the cap parse exactly; past it the parser refuses
    # before Fraction would materialise a power of ten that size
    assert parse_points(f"1e{MAX_EXPONENT} -2.5E-{MAX_EXPONENT}\n") == (
        point(10**MAX_EXPONENT, f"-25/{10 ** (MAX_EXPONENT + 1)}"),
    )
    for field in (f"1e{MAX_EXPONENT + 1}", "3E-999999999", "0.5e+1_000_000_000"):
        with pytest.raises(PointFileError) as exc:
            parse_points(f"0 0\n{field} 1\n")
        assert exc.value.line_no == 2 and "exponent" in str(exc.value)
    f = tmp_path / "huge.txt"
    f.write_text("0 0\n1 0\n0 1e999999999\n")
    code, out = helpers.run_cli(["check", str(f)])
    assert code == 2 and "exponent" in json.loads(out)["error"]


def test_non_utf8_point_files_are_input_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"0 0\n1 0\n\xff 1\n")
    with pytest.raises(PointFileError) as exc:
        pointfile.read_points(bad)
    assert exc.value.line_no == 3
    for argv in (
        ["check", str(bad)],
        ["block", str(bad), str(bad)],
        ["render", str(bad), "--svg", str(tmp_path / "bad.svg")],
        ["path", str(bad), "0", "1", "0", "0", "1"],
    ):
        code, out = helpers.run_cli(argv)
        assert code == 2 and "UTF-8" in json.loads(out)["error"], argv


def test_parser_is_built_once_and_reused(tmp_path):
    assert cli._build_parser() is cli._build_parser()
    f = tmp_path / "pts.txt"
    _, stdout = helpers.run_cli(["gen", "random", "8", "--seed", "3"])
    f.write_text(stdout)
    good = ["check", str(f), "--checks", "delaunay,audit"]
    _, first = helpers.run_cli(good)
    code, out = helpers.run_cli(["check", str(f), "--checks"])  # a usage error
    assert code == 2
    report = json.loads(out)
    assert report["command"] == "check"
    assert report["error"] == "argument --checks: expected one argument"
    _, again = helpers.run_cli(good)
    assert helpers.report_without_timing(again) == helpers.report_without_timing(first)


def test_usage_errors_are_json_reports(tmp_path, capsys):
    f = tmp_path / "tri.txt"
    f.write_text("0 0\n1 0\n0 1\n")
    for argv, command, error in (
        (["check", str(f), "--json"], "check", "unrecognized arguments: --json"),
        (["check", str(f), "--max-n"], "check", "argument --max-n: expected one argument"),
        (["render", str(f)], "render", "the following arguments are required: --svg"),
        (["bogus"], None, "argument command: invalid choice: 'bogus'"),
    ):
        code, out = helpers.run_cli(argv)
        report = json.loads(out)
        assert (code, report["command"]) == (2, command), argv
        assert report["error"].startswith(error), argv  # the choice list's format varies
    assert capsys.readouterr().err == ""  # no usage text
    with pytest.raises(SystemExit) as exc:
        helpers.run_cli(["--help"])
    assert exc.value.code == 0


def test_exit_code_rule():
    for exc, code in (
        (InvariantBroken("x"), 1),
        (NoPerfectMatching("x"), 1),
        (TooLarge("x"), 3),
        (MemoryError(), 3),
        (ConstructionFailed("x"), 2),
        (PointFileError(1, "x"), 2),
        (OSError("x"), 2),
        (ValueError("x"), 2),
    ):
        assert cli._exit_code(exc) == code, exc
    assert cli._worst([]) == 0
    assert cli._worst([0, 2, 3]) == 3
    assert cli._worst([3, 1, 2]) == 1  # an alarm outranks a refusal and bad input


def test_gen_random_deterministic(tmp_path):
    code1, out1 = helpers.run_cli(["gen", "random", "10", "--seed", "7"])
    code2, out2 = helpers.run_cli(["gen", "random", "10", "--seed", "7"])
    code3, out3 = helpers.run_cli(["gen", "random", "10", "--seed", "8"])
    assert code1 == code2 == code3 == 0
    assert out1 == out2
    assert out1 != out3
    pts = parse_points(out1)
    assert len(pts) == 10
    assert general_position(pts) is None


def test_gen_too_few():
    code, _ = helpers.run_cli(["gen", "random", "2"])
    assert code == 2


def test_gen_fan_writes_pair_and_blocks(tmp_path):
    out = tmp_path / "fan6.txt"
    code, stdout = helpers.run_cli(["gen", "fan", "6", "--seed", "1", "--out", str(out)])
    assert code == 0
    report = json.loads(stdout)
    assert report["files"] == [str(out), str(out) + ".blockers"]
    code, stdout = helpers.run_cli(["block", str(out), str(out) + ".blockers"])
    assert code == 0
    verdict = json.loads(stdout)
    assert verdict["blocked"] and verdict["tight"] and verdict["ok"]


def test_gen_fan_needs_out():
    code, _ = helpers.run_cli(["gen", "fan", "6"])
    assert code == 2


def test_gen_fan_refuses_stdout_before_constructing(monkeypatch):
    def construction(n, seed):
        raise ConstructionFailed("the fan was constructed")

    monkeypatch.setattr(blocking, "fan_instance", construction)
    code, out = helpers.run_cli(["gen", "fan", "40"])
    assert code == 2
    report = json.loads(helpers.report_without_timing(out))
    assert report == {"command": "gen", "error": "fan emits two files; --out is required"}


def test_gen_refuses_sizes_it_cannot_draw(tmp_path):
    for argv, cap in (
        (["gen", "convex", "513"], "n <= 512, got 513"),
        (["gen", "fan", "258", "--out", str(tmp_path / "fan.txt")], "n <= 257, got 258"),
    ):
        code, out = helpers.run_cli(argv)
        assert code == 2
        assert cap in json.loads(out)["error"]


def test_gen_convex_and_disjoint(tmp_path):
    code, out = helpers.run_cli(["gen", "convex", "9", "--seed", "3"])
    assert code == 0
    pts = parse_points(out)
    assert general_position(pts) is None
    code, out = helpers.run_cli(["gen", "disjoint-arc", "5"])
    assert code == 0
    assert len(parse_points(out)) == 5


def test_check_triangle_reports_null_toughness(tmp_path):
    f = tmp_path / "tri.txt"
    f.write_text("0 0\n1 0\n0 1\n")
    code, out = helpers.run_cli(["check", str(f)])
    assert code == 0
    report = json.loads(out)
    v = report["verdicts"]
    assert v["toughness"]["toughness"] is None
    assert v["delaunay"]["ok"] and v["mis"]["ok"] and v["audit"]["ok"]
    assert v["mis"]["size"] == 1
    assert v["matching"]["exists"] is False and v["matching"]["ok"]  # odd order


def test_check_fan_ten(tmp_path):
    out = tmp_path / "fan10.txt"
    helpers.run_cli(["gen", "fan", "10", "--seed", "1", "--out", str(out)])
    code, stdout = helpers.run_cli(["check", str(out)])
    assert code == 0
    report = json.loads(stdout)
    assert report["verdicts"]["mis"]["size"] == 5
    assert report["verdicts"]["matching"]["exists"]
    assert report["verdicts"]["audit"]["ok"]


def test_check_exit_codes(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2\nnot-a-point\n")
    code, out = helpers.run_cli(["check", str(bad)])
    assert code == 2
    assert "error" in json.loads(out)

    square = tmp_path / "square.txt"
    square.write_text("0 0\n1 0\n0 1\n1 1\n")
    code, _ = helpers.run_cli(["check", str(square)])
    assert code == 2

    big = tmp_path / "big.txt"
    code, stdout = helpers.run_cli(["gen", "random", "20", "--seed", "5"])
    big.write_text(stdout)
    code, _ = helpers.run_cli(["check", str(big), "--checks", "toughness"])
    assert code == 3  # size gate
    code, _ = helpers.run_cli(["check", str(big), "--checks", "delaunay,mis"])
    assert code == 0
    for checks in ("bogus", "", ","):  # an empty name is unknown too, not "all"
        code, out = helpers.run_cli(["check", str(big), "--checks", checks])
        name = checks.split(",")[0]
        assert (code, json.loads(out)["error"]) == (2, f"unknown check {name!r}"), checks


def test_builder_invariant_is_an_alarm(tmp_path, monkeypatch, capsys):
    # faces that do not triangulate the input are a broken builder, not bad
    # input: the check must report it, not crash
    quad = tmp_path / "quad.txt"
    quad.write_text("0 0\n2 0\n3 2\n1 3\n")
    scan = delaunay.delaunay_faces
    monkeypatch.setattr(delaunay, "delaunay_faces", lambda q: scan(q)[1:])
    code, out = helpers.run_cli(["check", str(quad), "--checks", "delaunay"])
    assert code == 1
    assert "do not triangulate" in json.loads(out)["error"]
    assert "Traceback" not in capsys.readouterr().err


def test_closed_gap_is_an_alarm(tmp_path, monkeypatch, capsys):
    # the face scan proves no circle empty; a wrong apex (here 2 for the
    # dart 0 -> 1, whose face circle holds 3) must fail the certificate
    quad = tmp_path / "quad.txt"
    quad.write_text("0 0\n2 0\n3 2\n1 3\n")
    monkeypatch.setattr(delaunay, "_left_apex", helpers.wrong_apex_once(delaunay._left_apex))
    code, out = helpers.run_cli(["check", str(quad), "--checks", "delaunay"])
    assert code == 1
    assert "(0, 2) is not strictly locally Delaunay" in json.loads(out)["error"]
    assert "Traceback" not in capsys.readouterr().err


def _audit_with_a_loose_edge(tmp_path, monkeypatch, pick):
    """check --checks mis,audit on random n=10 seed 4, with
    ``structure.edge_angle_check`` doctored to fail at the one interior edge
    ``pick(t, cert)`` names. Returns the exit code, the edge and the audit
    verdict."""
    f = tmp_path / "r10.txt"
    helpers.run_cli(["gen", "random", "10", "--seed", "4", "--out", str(f)])
    t = delaunay.build(pointfile.read_points(f))
    loose = pick(t, structure.max_independent_set(t)[1])
    assert len(t.opposite_vertices(*loose)) == 2
    real = delaunay.edge_angle_check

    def doctored(tri, u, v):
        return (min(u, v), max(u, v)) != loose and real(tri, u, v)

    monkeypatch.setattr(structure, "edge_angle_check", doctored)
    code, out = helpers.run_cli(["check", str(f), "--checks", "mis,audit"])
    return code, loose, json.loads(out)["verdicts"]["audit"]


def _interior(t, edges):
    return [e for e in edges if len(t.opposite_vertices(*e)) == 2]


def test_audit_fault_is_an_alarm(tmp_path, monkeypatch, capsys):
    # an edge test that fails on an edge avoiding the set is a broken
    # premise of the bound: the check names the edge, it does not crash
    def avoiding(t, cert):
        return _interior(t, [e for e in t.edges if not set(e) & cert])[-1]

    code, loose, verdict = _audit_with_a_loose_edge(tmp_path, monkeypatch, avoiding)
    assert code == 1
    assert verdict["loose_edge"] == list(loose) and verdict["flat_turn"] is None
    assert verdict["ok"] is False and verdict["form"] == "maximum"
    assert "Traceback" not in capsys.readouterr().err


def test_audit_open_fan_fails_the_angle_census(tmp_path, monkeypatch, capsys):
    # round the least chosen vertex x, the edges of its fan's rim avoid the
    # set and are premises: a loose one is an alarm that names it
    def rim(t, cert):
        x = min(cert)
        edges = [tuple(sorted((w, t.apex[(x, w)]))) for w in t.neighbors[x] if (x, w) in t.apex]
        return _interior(t, edges)[0]

    code, loose, verdict = _audit_with_a_loose_edge(tmp_path, monkeypatch, rim)
    assert code == 1 and verdict["loose_edge"] == list(loose) and verdict["ok"] is False
    assert "Traceback" not in capsys.readouterr().err

    # an edge at x is no premise: its angles are the 2 pi the set takes
    def spoke(t, cert):
        x = min(cert)
        return _interior(t, [tuple(sorted((x, w))) for w in t.neighbors[x]])[0]

    code, _, verdict = _audit_with_a_loose_edge(tmp_path, monkeypatch, spoke)
    assert code == 0 and verdict["loose_edge"] is None and verdict["ok"] is True
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("factor", [Fraction(1, 10**400), Fraction(1), Fraction(10**300)])
def test_audit_angle_census_ignores_scale(tmp_path, capsys, factor):
    # float products of coordinates near 10^-400 underflow and near 10^300
    # overflow; the exact ledger, and the census it replaced, must read the
    # same premises at every scale
    pts = [point(p.x * factor, p.y * factor) for p in generate.random_points(10, 1)]
    f = tmp_path / "r10.txt"
    f.write_text(format_points(pts))
    code, out = helpers.run_cli(["check", str(f), "--checks", "delaunay,mis,audit"])
    assert code == 0
    verdict = json.loads(out)["verdicts"]["audit"]
    t = delaunay.build(pts)
    assert verdict["loose_edge"] is None and verdict["flat_turn"] is None and verdict["ok"] is True
    assert (verdict["edges_checked"], verdict["hull_turns_checked"]) == (6, 4)
    assert helpers.sentinel_census_oracle(t, verdict["independent_set"]).angle_census_ok is True
    assert "Traceback" not in capsys.readouterr().err


def test_audit_above_the_gate_is_universal(tmp_path, capsys):
    # above 30 points no maximum set is searched for: the empty set's
    # ledger reads every interior edge and hull turn, which bounds every
    # independent set at once; --max-n brings the maximum set back
    f = tmp_path / "r31.txt"
    helpers.run_cli(["gen", "random", "31", "--seed", "1", "--out", str(f)])
    t = delaunay.build(pointfile.read_points(f))
    code, out = helpers.run_cli(["check", str(f), "--checks", "mis,audit"])
    assert code == 3
    verdicts = json.loads(out)["verdicts"]
    assert verdicts["mis"] == {"refused": "independent set search on 31 > 30 vertices refused"}
    audit = verdicts["audit"]
    assert (audit["form"], audit["independent_set"], audit["ok"]) == ("universal", [], True)
    assert audit["edges_checked"] == len(_interior(t, t.edges))
    assert audit["hull_turns_checked"] == len(t.hull)
    code, out = helpers.run_cli(["check", str(f), "--checks", "audit"])
    assert code == 0 and json.loads(out)["verdicts"]["audit"] == audit
    code, out = helpers.run_cli(["check", str(f), "--checks", "audit", "--max-n", "31"])
    audit = json.loads(out)["verdicts"]["audit"]
    assert code == 0 and audit["form"] == "maximum" and audit["ok"] is True
    assert 2 * len(audit["independent_set"]) <= 31
    assert "Traceback" not in capsys.readouterr().err


def test_witness_disk_failure_is_an_alarm(tmp_path, monkeypatch, capsys):
    # every edge of a built triangulation has an empty disk; not finding
    # one refutes the triangulation, it does not reject the input
    f = tmp_path / "r10.txt"
    helpers.run_cli(["gen", "random", "10", "--seed", "3", "--out", str(f)])
    monkeypatch.setattr(delaunay, "is_witness_disk", lambda *args: False)
    code, out = helpers.run_cli(["render", str(f), "--svg", str(tmp_path / "r.svg"), "--witness-disks"])
    assert code == 1
    assert "no verified witness disk" in json.loads(out)["error"]
    assert "Traceback" not in capsys.readouterr().err


def _matching_on_masks(tmp_path, monkeypatch, doctor):
    """``check --checks matching`` on an even random file whose adjacency
    masks ``doctor(tri, masks)`` has rewritten; the matching verdict."""
    f = tmp_path / "r10.txt"
    helpers.run_cli(["gen", "random", "10", "--seed", "3", "--out", str(f)])
    masks = structure._adjacency_masks
    monkeypatch.setattr(structure, "_adjacency_masks", lambda t: doctor(t, masks(t)))
    code, out = helpers.run_cli(["check", str(f), "--checks", "matching"])
    assert code == 1
    return json.loads(out)["verdicts"]["matching"]


def test_matching_alarm_on_an_isolated_vertex(tmp_path, monkeypatch, capsys):
    def isolate_last(tri, masks):
        last = len(tri) - 1
        return [0 if v == last else m & ~(1 << last) for v, m in enumerate(masks)]

    verdict = _matching_on_masks(tmp_path, monkeypatch, isolate_last)
    assert verdict["exists"] is False and verdict["ok"] is False
    assert "without a perfect matching" in verdict["error"]
    assert "Traceback" not in capsys.readouterr().err


def test_matching_on_a_non_edge_is_caught(tmp_path, monkeypatch, capsys):
    # vertex 0, which the search matches first, gets only non-neighbours;
    # the rest may pair with anyone
    def swap_first(tri, masks):
        full = (1 << len(tri)) - 1
        return [full & ~masks[0] & ~1] + [full & ~(1 << v) for v in range(1, len(tri))]

    verdict = _matching_on_masks(tmp_path, monkeypatch, swap_first)
    assert verdict["exists"] is True and verdict["ok"] is False
    assert "is not an edge" in verdict["error"]
    assert "Traceback" not in capsys.readouterr().err


def test_mis_alarm_on_an_unverified_certificate(tmp_path, monkeypatch, capsys):
    # masks without edges make the search return every vertex, which the
    # certificate check refuses as a broken invariant
    f = tmp_path / "r10.txt"
    helpers.run_cli(["gen", "random", "10", "--seed", "3", "--out", str(f)])
    monkeypatch.setattr(structure, "_adjacency_masks", lambda tri: [0] * len(tri))
    code, out = helpers.run_cli(["check", str(f), "--checks", "mis"])
    assert code == 1
    verdict = json.loads(out)["verdicts"]["mis"]
    assert verdict["ok"] is False and "holds the edge" in verdict["error"]
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("keep_one", [True, False])
def test_toughness_alarm_fires(tmp_path, monkeypatch, capsys, keep_one):
    # both the search and the witness recount read the doctored graph, as
    # they would read a triangulation that broke the theorem
    f = tmp_path / "r10.txt"
    helpers.run_cli(["gen", "random", "10", "--seed", "3", "--out", str(f)])
    tri = delaunay.build(pointfile.read_points(f))
    w = tri.neighbors[tri.hull[0]][0]
    h, cut = helpers.cut_hull_vertex(tri, [w] if keep_one else [])
    masks, components = structure._adjacency_masks, structure.components_after_removal
    monkeypatch.setattr(structure, "_adjacency_masks", lambda t: masks(cut))
    monkeypatch.setattr(structure, "components_after_removal", lambda t, s: components(cut, s))
    code, out = helpers.run_cli(["check", str(f), "--checks", "toughness"])
    assert code == 1
    verdict = json.loads(out)["verdicts"]["toughness"]
    expected = helpers.toughness_scan_oracle(cut)
    assert verdict["ok"] is False
    assert Fraction(verdict["toughness"]) == expected.ratio < 1
    assert verdict["witness"] == sorted(expected.separator)
    assert verdict["components"] == expected.component_count
    if keep_one:
        assert w in verdict["witness"]
    else:  # h alone is a component, but S = {} is no separator
        assert verdict["witness"] and expected.ratio > 0
    assert "Traceback" not in capsys.readouterr().err


def test_toughness_witness_is_recounted(tmp_path, monkeypatch, capsys):
    # a search run on another graph than the triangulation's own is caught
    # by the BFS recount of its separator
    f = tmp_path / "r10.txt"
    helpers.run_cli(["gen", "random", "10", "--seed", "3", "--out", str(f)])
    tri = delaunay.build(pointfile.read_points(f))
    _, cut = helpers.cut_hull_vertex(tri, tri.neighbors[tri.hull[0]][:1])
    masks = structure._adjacency_masks
    monkeypatch.setattr(structure, "_adjacency_masks", lambda t: masks(cut))
    code, out = helpers.run_cli(["check", str(f), "--checks", "toughness"])
    assert code == 1
    verdict = json.loads(out)["verdicts"]["toughness"]
    assert verdict["ok"] is False and "not the 2 the search counted" in verdict["error"]
    assert "Traceback" not in capsys.readouterr().err


def test_checks_out_of_memory_are_refused(tmp_path, monkeypatch, capsys):
    f = tmp_path / "r10.txt"
    helpers.run_cli(["gen", "random", "10", "--seed", "3", "--out", str(f)])

    def no_room(*args):
        raise MemoryError

    monkeypatch.setattr(structure, "_adjacency_masks", no_room)
    monkeypatch.setattr(structure, "perfect_matching", no_room)
    code, out = helpers.run_cli(["check", str(f), "--checks", "toughness,delaunay,matching"])
    assert code == 3
    verdicts = json.loads(out)["verdicts"]
    assert verdicts["toughness"] == {"refused": "out of memory"}
    assert verdicts["matching"] == {"refused": "out of memory"}
    assert verdicts["delaunay"]["ok"]
    assert "Traceback" not in capsys.readouterr().err


def _doctored_matching(tri):
    raise InvariantBroken("doctored matching")


def test_an_alarm_outranks_a_refusal(tmp_path, monkeypatch, capsys):
    # toughness is refused above 18 points; an alarm in another check of the
    # same file still exits 1
    f = tmp_path / "r20.txt"
    helpers.run_cli(["gen", "random", "20", "--seed", "5", "--out", str(f)])
    monkeypatch.setattr(structure, "perfect_matching", _doctored_matching)
    code, out = helpers.run_cli(["check", str(f)])
    assert code == 1
    verdicts = json.loads(out)["verdicts"]
    assert verdicts["toughness"] == {"refused": "toughness scan on 20 > 18 vertices refused"}
    assert verdicts["matching"] == {"exists": True, "error": "doctored matching", "ok": False}
    assert all(verdicts[name]["ok"] for name in ("delaunay", "mis", "audit"))
    assert "Traceback" not in capsys.readouterr().err


def test_an_alarm_outranks_bad_input(tmp_path, monkeypatch):
    alarm, square = tmp_path / "alarm.txt", tmp_path / "square.txt"
    helpers.run_cli(["gen", "random", "8", "--seed", "1", "--out", str(alarm)])
    square.write_text("0 0\n1 0\n0 1\n1 1\n")  # cocircular: exits 2 alone
    monkeypatch.setattr(structure, "perfect_matching", _doctored_matching)
    code, out = helpers.run_cli(["check", str(alarm), str(square)])
    assert code == 1
    first, second = json.loads(out)["reports"]
    assert first["verdicts"]["matching"]["ok"] is False
    assert "degenerate" in second["error"]


def test_a_failed_construction_keeps_the_other_reports(tmp_path, monkeypatch, capsys):
    # a construction that gives up inside a check is no alarm and no
    # refusal: the check records it and exits 2, and every other verdict
    # and report is kept
    files = []
    for n in (8, 10):
        f = tmp_path / f"r{n}.txt"
        helpers.run_cli(["gen", "random", str(n), "--seed", "1", "--out", str(f)])
        files.append(str(f))
    checks = ["--checks", "delaunay,audit"]
    _, alone = helpers.run_cli(["check", files[0], *checks])
    audit = structure.angle_audit

    def gives_up(tri, cert):
        if len(tri) == 10:
            raise ConstructionFailed("doctored construction")
        return audit(tri, cert)

    monkeypatch.setattr(structure, "angle_audit", gives_up)
    code, out = helpers.run_cli(["check", *files, *checks])
    assert code == 2
    first, second = json.loads(out)["reports"]
    assert json.dumps(first, indent=2) == helpers.report_without_timing(alone)
    assert second["file"] == files[1] and second["verdicts"]["delaunay"]["ok"]
    assert second["verdicts"]["audit"] == {"error": "doctored construction", "ok": False}
    assert "Traceback" not in capsys.readouterr().err


def test_python_m_dtough_runs_the_command_line():
    argv = ["gen", "random", "5", "--seed", "1"]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "dtough", *argv], capture_output=True, env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == helpers.run_cli(argv)[1].encode()


@pytest.mark.parametrize("copies, lines", [(150, 1), (1, 0)])
def test_a_closed_stdout_exits_2_without_a_traceback(tmp_path, copies, lines):
    # The reader reads some lines and quits, as `| head -1` does. After one
    # line of 150 reports (about 200 kB), the report's own write fails; a
    # report of one file fits the buffer, and its flush fails.
    f = tmp_path / "r11.txt"
    f.write_text(format_points(generate.random_points(11, 1)))
    argv = [sys.executable, "-m", "dtough.cli", "check", *[str(f)] * copies, "--checks", "delaunay,mis,audit"]
    # buffered, as stdout to a pipe is by default, so a report left in the
    # buffer is flushed again at shutdown
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        for _ in range(lines):
            assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert proc.returncode == 2
    assert b"Traceback" not in err and b"Exception ignored" not in err


def test_check_multiple_files(tmp_path):
    files = []
    for seed in (1, 2):
        f = tmp_path / f"r{seed}.txt"
        _, stdout = helpers.run_cli(["gen", "random", "8", "--seed", str(seed)])
        f.write_text(stdout)
        files.append(str(f))
    code, out = helpers.run_cli(["check", *files, "--checks", "delaunay,matching"])
    assert code == 0
    report = json.loads(out)
    assert len(report["reports"]) == 2


def test_check_alarm_keeps_the_other_reports(tmp_path, monkeypatch, capsys):
    # an alarm raised inside one file's audit is that check's verdict: the
    # file's other checks run and the first file's report is kept whole
    files = []
    for n in (8, 10):
        f = tmp_path / f"r{n}.txt"
        helpers.run_cli(["gen", "random", str(n), "--seed", "1", "--out", str(f)])
        files.append(str(f))
    checks = ["--checks", "delaunay,audit,matching"]
    _, alone = helpers.run_cli(["check", files[0], *checks])
    audit = structure.angle_audit

    def faulted(tri, cert):
        if len(tri) == 10:
            raise InvariantBroken("doctored audit")
        return audit(tri, cert)

    monkeypatch.setattr(structure, "angle_audit", faulted)
    code, out = helpers.run_cli(["check", *files, *checks])
    assert code == 1
    first, second = json.loads(out)["reports"]
    assert json.dumps(first, indent=2) == helpers.report_without_timing(alone)
    assert second["file"] == files[1]
    assert second["verdicts"]["audit"] == {"error": "doctored audit", "ok": False}
    assert second["verdicts"]["delaunay"]["ok"] and second["verdicts"]["matching"]["ok"]
    assert "Traceback" not in capsys.readouterr().err


def test_path_command(tmp_path):
    f = tmp_path / "quad.txt"
    f.write_text("0 0\n4 0\n2 1\n2 -1\n")
    # witness-style disk through vertices 2 and 3 (the Delaunay diagonal)
    code, out = helpers.run_cli(["path", str(f), "2", "3", "2", "0", "1"])
    assert code == 0
    report = json.loads(out)
    assert report["path"] == [2, 3]
    assert report["agree"] and report["ok"]

    # the symmetric tie: shrinking the disk through 0 and 1 pins 2 and 3 at
    # once; the least index is pinned and 3 counts as outside
    code, out = helpers.run_cli(["path", str(f), "0", "1", "2", "0", "4"])
    assert code == 0
    report = json.loads(out)
    assert report["path"] == report["oracle_path"] == [0, 2, 1]
    assert report["agree"] is True

    # vertex ids outside the file, or equal endpoints, are bad input
    for p, q, error in (
        ("0", "99", "vertex 99 is not in range(0, 4)"),
        ("-1", "1", "vertex -1 is not in range(0, 4)"),
        ("2", "2", "path endpoints must differ, got 2 twice"),
    ):
        code, out = helpers.run_cli(["path", "--", str(f), p, q, "2", "0", "1"])
        assert code == 2
        assert json.loads(out)["error"] == error


def test_path_tells_a_precondition_breach_from_a_shrink_tie(tmp_path):
    f = tmp_path / "quad.txt"
    f.write_text("0 0\n4 0\n2 1\n2 -1\n")
    # vertex 2 on the caller's own boundary breaks the precondition
    code, out = helpers.run_cli(["path", "--", str(f), "0", "1", "2", "-3/2", "25/4"])
    assert code == 2
    report = json.loads(out)
    assert report["error"] == "vertices [2] lie exactly on the disk boundary; only 0 and 1 may"
    # a valid disk whose first shrink pins 2 and 3 at once yields a path
    code, out = helpers.run_cli(["path", str(f), "0", "1", "2", "0", "4"])
    assert code == 0
    report = json.loads(out)
    assert report["path"] == report["oracle_path"] == [0, 2, 1]
    assert report["agree"] is True and "error" not in report


def test_path_refuses_a_negative_squared_radius(tmp_path):
    # the disk goes through exactgeom.disk, which refuses it before any
    # path search and before the point file is read, so its error also wins
    # over a missing file's; no disk is echoed back
    f = tmp_path / "quad.txt"
    f.write_text("0 0\n4 0\n2 1\n2 -1\n")
    for points in (f, tmp_path / "absent.txt"):
        code, out = helpers.run_cli(["path", str(points), "0", "1", "2", "0", "-1"])
        assert code == 2
        assert json.loads(helpers.report_without_timing(out)) == {
            "command": "path",
            "error": "squared radius must be nonnegative",
        }


def test_path_alarm_on_a_faulty_shrink(tmp_path, monkeypatch, capsys):
    # a shrunken circle whose constant is off by one misses its anchor
    f = tmp_path / "quad.txt"
    f.write_text("0 0\n4 0\n2 1\n2 -1\n")
    shrink = diskpath._shrink

    def off_by_one(*args):
        w, u, v, k = shrink(*args)
        return w, u, v, k + 1

    monkeypatch.setattr(diskpath, "_shrink", off_by_one)
    code, out = helpers.run_cli(["path", str(f), "0", "1", "2", "2", "8"])
    assert code == 1
    assert "tangency" in json.loads(out)["error"]
    assert "Traceback" not in capsys.readouterr().err


def test_path_alarm_on_a_shrunken_circle_that_misses_its_anchor(tmp_path, monkeypatch, capsys):
    # a pencil weight one too large keeps the circle tangent and inside its
    # parent but leaves the pinned vertex 2 strictly outside it
    f = tmp_path / "quad.txt"
    f.write_text("0 0\n4 0\n2 1\n2 -1\n")
    shrink = diskpath._shrink
    monkeypatch.setattr(diskpath, "_shrink", lambda c, a, r, lam: shrink(c, a, r, lam + 1))
    code, out = helpers.run_cli(["path", str(f), "0", "1", "2", "2", "8"])
    assert code == 1
    assert json.loads(out)["error"] == "shrunken disk lost its anchor 2"
    assert "Traceback" not in capsys.readouterr().err


def test_path_disk_arguments_are_parsed_like_point_files(tmp_path, monkeypatch):
    f = tmp_path / "quad.txt"
    f.write_text("0 0\n4 0\n2 1\n2 -1\n")
    code, out = helpers.run_cli(["path", str(f), "0", "1", "1/0", "0", "1"])
    assert code == 2 and json.loads(out)["error"] == "zero denominator"
    # the capped parser refuses the exponent before Fraction would build a
    # billion-digit integer; it is patched in (and must exist) so that a CLI
    # that bypassed it fails here instead of hanging
    parsed = []

    def recording(field):
        parsed.append(field)
        return parse_coordinate(field)

    parse_coordinate = exactgeom.coord
    monkeypatch.setattr(exactgeom, "coord", recording)
    code, out = helpers.run_cli(["path", str(f), "0", "1", "1e1000000000", "0", "1"])
    assert code == 2 and "exponent" in json.loads(out)["error"]
    assert parsed[-1] == "1e1000000000"


def test_path_svg(tmp_path):
    f = tmp_path / "quad.txt"
    f.write_text("0 0\n4 0\n2 1\n2 -1\n")
    svg = tmp_path / "path.svg"
    code, _ = helpers.run_cli(["path", str(f), "2", "3", "2", "0", "1", "--svg", str(svg)])
    assert code == 0
    body = svg.read_text()
    assert body.startswith("<?xml") and "<svg" in body and "polyline" in body


def test_render_deterministic(tmp_path):
    f = tmp_path / "pts.txt"
    _, stdout = helpers.run_cli(["gen", "random", "9", "--seed", "11"])
    f.write_text(stdout)
    s1, s2 = tmp_path / "a.svg", tmp_path / "b.svg"
    code, _ = helpers.run_cli(["render", str(f), "--svg", str(s1), "--mis", "--witness-disks"])
    assert code == 0
    code, _ = helpers.run_cli(["render", str(f), "--svg", str(s2), "--mis", "--witness-disks"])
    assert code == 0
    assert s1.read_bytes() == s2.read_bytes()
    body = s1.read_text()
    assert 'fill="white" stroke="black"' in body  # hollow independent-set vertices
    assert body.count("<circle") > 9  # witness disks present


def test_render_audit_overlay(tmp_path):
    f = tmp_path / "pts.txt"
    _, stdout = helpers.run_cli(["gen", "random", "7", "--seed", "2"])
    f.write_text(stdout)
    svg = tmp_path / "audit.svg"
    code, _ = helpers.run_cli(["render", str(f), "--svg", str(svg), "--audit"])
    assert code == 0
    assert "stroke-dasharray" in svg.read_text()  # sentinel triangle drawn


def test_render_audit_builds_input_once(tmp_path, monkeypatch):
    f = tmp_path / "pts.txt"
    _, stdout = helpers.run_cli(["gen", "random", "7", "--seed", "2"])
    f.write_text(stdout)
    sizes = []
    unions = []

    def counting(points):
        sizes.append(len(points))
        return delaunay.build(points)

    def counting_union(points):
        unions.append(len(points))
        return delaunay.build(points)

    # cli.build builds the input, and the sentinel search builds the input
    # with its sentinels through structure.build
    monkeypatch.setattr(cli, "build", counting)
    monkeypatch.setattr(structure, "build", counting_union)
    code, _ = helpers.run_cli(["render", str(f), "--svg", str(tmp_path / "a.svg"), "--audit"])
    assert code == 0
    assert sizes == [7]  # the input
    assert unions == [9]  # the input with two sentinels

    # blockers are not drawn on the audit overlay, so their union is not built
    fan = tmp_path / "fan8.txt"
    helpers.run_cli(["gen", "fan", "8", "--seed", "1", "--out", str(fan)])
    n = len(pointfile.read_points(fan))
    svgs = [tmp_path / "plain.svg", tmp_path / "blockers.svg"]
    sizes.clear()
    unions.clear()
    code, _ = helpers.run_cli(["render", str(fan), "--svg", str(svgs[0]), "--audit"])
    assert code == 0
    argv = ["render", str(fan), "--svg", str(svgs[1]), "--audit", "--blockers", f"{fan}.blockers"]
    code, _ = helpers.run_cli(argv)
    assert code == 0
    assert sizes == [n, n] and unions == [n + 2, n + 2]
    assert svgs[0].read_bytes() == svgs[1].read_bytes()


def test_render_refusals_come_from_the_library(tmp_path, monkeypatch, capsys):
    f = tmp_path / "r31.txt"
    helpers.run_cli(["gen", "random", "31", "--seed", "1", "--out", str(f)])
    svg = str(tmp_path / "r.svg")
    for overlay in ("--mis", "--audit"):
        code, out = helpers.run_cli(["render", str(f), "--svg", svg, overlay])
        assert code == 3
        assert json.loads(out)["error"] == "independent set search on 31 > 30 vertices refused"

    def no_room(*args, **kwargs):
        raise MemoryError

    f = tmp_path / "r9.txt"
    helpers.run_cli(["gen", "random", "9", "--seed", "1", "--out", str(f)])
    monkeypatch.setattr(structure, "max_independent_set", no_room)
    code, out = helpers.run_cli(["render", str(f), "--svg", svg, "--mis"])
    assert code == 3
    report = json.loads(out)
    assert (report["command"], report["error"]) == ("render", "out of memory")
    assert "Traceback" not in capsys.readouterr().err


def test_check_json_determinism(tmp_path):
    f = tmp_path / "pts.txt"
    _, stdout = helpers.run_cli(["gen", "random", "8", "--seed", "4"])
    f.write_text(stdout)
    _, out1 = helpers.run_cli(["check", str(f)])
    _, out2 = helpers.run_cli(["check", str(f)])
    assert helpers.report_without_timing(out1) == helpers.report_without_timing(out2)


def test_no_json_mode(tmp_path):
    f = tmp_path / "tri.txt"
    f.write_text("0 0\n1 0\n0 1\n")
    code, out = helpers.run_cli(["check", str(f), "--no-json", "--checks", "delaunay,audit"])
    assert code == 0
    # strings print as they are, every other value as JSON, not as a repr
    assert "ok: true" in out and "counterexample: null" in out
    assert not any(word in out for word in ("True", "None", "'"))
    flat = dict(line.strip().split(": ", 1) for line in out.splitlines() if ": " in line)
    assert flat["command"] == "check"
    _, plain = helpers.run_cli(["check", str(f), "--checks", "delaunay,audit"])
    audit = json.loads(plain)["verdicts"]["audit"]
    assert json.loads(flat["loose_edge"]) is audit["loose_edge"] is None
    assert json.loads(flat["independent_set"]) == audit["independent_set"]
    # several files: each report is flattened under its index, not printed as a dict
    g = tmp_path / "kite.txt"
    g.write_text("0 0\n4 0\n2 1\n2 -1\n")
    code, out = helpers.run_cli(["check", str(f), str(g), "--no-json", "--checks", "delaunay"])
    assert code == 0 and "{" not in out
    assert "  [1]:\n    command: check\n    file: " + str(g) in out
    assert out.count("      ok: true") == 2


# Points 0, 1, 3 and 4 are cocircular, and 2 lies inside their circle: no
# empty circle holds four points, so T is unique and strictly Delaunay.
COCIRCULAR_FIVE = "0 0\n0 1\n1 0\n1 2\n2 2\n"


def test_outside_the_hypothesis_check_reports_every_verdict(tmp_path):
    f = tmp_path / "five.txt"
    f.write_text(COCIRCULAR_FIVE)
    code, out = helpers.run_cli(["check", str(f)])
    assert code == 2
    report = json.loads(out)
    assert "error" not in report and list(report["verdicts"]) == list(cli.ALL_CHECKS)
    verdicts = report["verdicts"]
    assert verdicts["hypothesis"] == {
        "general_position": False,
        "violation": {"kind": "cocircular", "indices": [0, 1, 3, 4]},
        "ok": False,
    }
    assert verdicts["delaunay"]["ok"] and verdicts["toughness"]["toughness"] == "1"
    # path's induction needs only a strict T, so path answers on the file too
    code, out = helpers.run_cli(["path", str(f), "0", "4", "1", "1", "2"])
    report = json.loads(out)
    assert code == 0 and report["agree"]
    assert report["path"] == [0, 1, 3, 4] and report["oracle_path"] == [0, 2, 4]


# Points 0, 1 and 6 are collinear, and T is strict. The path below shrinks
# to a circle through 0 and 8 that carries 4 and 6 too, with 2 inside.
STRICT_NINE = "2 3\n0 4\n3 2\n0 3\n3 3\n1 4\n4 2\n1 0\n4 1\n"


def test_path_runs_on_a_strict_set_outside_general_position(tmp_path):
    f = tmp_path / "nine.txt"
    f.write_text(STRICT_NINE)
    violation = general_position(pointfile.read_points(f))
    assert violation == exactgeom.Violation(exactgeom.ViolationKind.COLLINEAR, (0, 1, 6))
    code, out = helpers.run_cli(["path", str(f), "5", "8", "7/4", "7/4", "45/8"])
    report = json.loads(out)
    assert code == 0 and report["agree"]
    assert report["path"] == report["oracle_path"] == [5, 0, 2, 8]


def test_a_failed_check_is_an_alarm_only_under_the_hypothesis(tmp_path, monkeypatch):
    five, general = tmp_path / "five.txt", tmp_path / "r8.txt"
    five.write_text(COCIRCULAR_FIVE)
    helpers.run_cli(["gen", "random", "8", "--seed", "1", "--out", str(general)])

    def failing(tri, limit, earlier):
        return {"ok": False}

    monkeypatch.setitem(cli.CHECKS, "delaunay", (None, failing))
    # with hypothesis asked for, and without it, when check runs the certificate
    for checks in (cli.ALL_CHECKS, ("delaunay",), ("delaunay", "matching")):
        argv = ["--checks", ",".join(checks)]
        assert helpers.run_cli(["check", str(five), *argv])[0] == 2, checks
        assert helpers.run_cli(["check", str(general), *argv])[0] == 1, checks
    code, out = helpers.run_cli(["check", str(five), "--checks", "delaunay"])
    assert list(json.loads(out)["verdicts"]) == ["delaunay"]  # the certificate is not reported


def test_the_certificate_runs_only_where_a_proof_needs_it(tmp_path, monkeypatch):
    f = tmp_path / "r12.txt"
    helpers.run_cli(["gen", "random", "12", "--seed", "3", "--out", str(f)])
    pts = pointfile.read_points(f)
    scans = []
    real = exactgeom._least_violation

    def counting(points, start):
        scans.append((len(points), start))
        return real(points, start)

    monkeypatch.setattr(exactgeom, "_least_violation", counting)
    t = delaunay.build(pts)
    assert scans == []  # the local tests certify T
    structure.sentinel_augment(t, t.hull[:1])
    assert scans == []  # a build of the union that passes its local tests
    code, _ = helpers.run_cli(["check", str(f)])
    assert code == 0 and scans == [(12, 0)]  # the hypothesis check's one scan
    scans.clear()
    code, _ = helpers.run_cli(["check", str(f), "--checks", "delaunay,mis,matching,audit"])
    assert code == 0 and scans == []
    # path's induction needs only the strict T that build certified
    p, q = t.edges[0]
    d = helpers.pencil_disk(t, p, q, len(t) // 2)
    disk_args = [pointfile.fraction_str(x) for x in (*d.center, d.radius_sq)]
    code, out = helpers.run_cli(["path", str(f), str(p), str(q), *disk_args])
    assert code == 0 and len(json.loads(out)["path"]) > 2 and scans == []


def test_check_computes_each_face_circle_once(tmp_path, monkeypatch):
    # every in-circle question of the delaunay check and the audit's
    # per-edge test reads Triangulation.circle, and the audit adds no
    # point, so one circle per face of T is computed
    f = tmp_path / "r16.txt"
    helpers.run_cli(["gen", "random", "16", "--seed", "100", "--out", str(f)])
    circles = helpers.count_calls(monkeypatch, "circle_through")
    asked = helpers.count_calls(monkeypatch, "in_circle")
    code, _ = helpers.run_cli(["check", str(f), "--checks", "delaunay,mis,matching,audit"])
    assert code == 0
    counted = len(circles)
    t = delaunay.build(pointfile.read_points(f))
    assert counted == len(t.triangles)
    assert asked == []


def test_an_over_long_coordinate_gets_the_package_message(tmp_path):
    f = tmp_path / "long.txt"
    f.write_text("0 0\n1 0\n0 " + "1" * 5000 + "\n")
    code, out = helpers.run_cli(["check", str(f)])
    error = json.loads(out)["error"]
    assert code == 2
    assert error.startswith("line 3: bad coordinate")
    assert error.endswith(f"literal longer than {MAX_LITERAL} characters")


def test_a_bad_coordinate_error_quotes_only_the_start_of_its_field(tmp_path):
    # neither the field nor Fraction's own message, which repeats it, is
    # copied whole into the error
    for field in ("1" * 5000, "x" * 3000):
        f = tmp_path / "bad.txt"
        f.write_text("0 0\n1 0\n0 " + field + "\n")
        code, out = helpers.run_cli(["check", str(f)])
        error = json.loads(out)["error"]
        assert code == 2
        assert error.startswith("line 3: bad coordinate")
        assert len(error) < 200


def test_degenerate_input_is_worded_without_a_repr(tmp_path):
    square = tmp_path / "square.txt"
    square.write_text("0 0\n1 0\n0 1\n1 1\n")
    other = tmp_path / "other.txt"
    other.write_text("5 7\n")
    runs = [
        ["check", str(square)],
        ["path", str(square), "0", "1", "1/2", "-1", "5/4"],
        ["block", str(square), str(other)],
        ["render", str(square), "--svg", str(tmp_path / "square.svg")],
    ]
    for argv in runs:
        code, out = helpers.run_cli(argv)
        error = json.loads(out)["error"]
        assert code == 2, argv
        assert error == "degenerate input: cocircular points 0, 1, 2, 3", argv
        assert "Violation(" not in error and "<ViolationKind" not in error
    dup = DegenerateInput(exactgeom.Violation(exactgeom.ViolationKind.DUPLICATE, (0, 4)))
    assert str(dup) == "degenerate input: duplicate points 0, 4"


def test_pointfile_names_the_first_line_of_a_duplicate():
    with pytest.raises(PointFileError, match="line 4: duplicate of point on line 2$"):
        parse_points("1 2\n3 4\n5 6\n3 4\n")


def test_max_n_raises_gate(tmp_path):
    f = tmp_path / "n19.txt"
    _, stdout = helpers.run_cli(["gen", "random", "19", "--seed", "1"])
    f.write_text(stdout)
    code, _ = helpers.run_cli(["check", str(f), "--checks", "toughness"])
    assert code == 3
    code, out = helpers.run_cli(["check", str(f), "--checks", "toughness", "--max-n", "19"])
    assert code == 0
    assert json.loads(out)["verdicts"]["toughness"]["ok"]


def test_check_files_match_single_runs(tmp_path):
    files = []
    for seed in (3, 4):
        f = tmp_path / f"r{seed}.txt"
        _, stdout = helpers.run_cli(["gen", "random", "7", "--seed", str(seed)])
        f.write_text(stdout)
        files.append(str(f))
    square = tmp_path / "square.txt"
    square.write_text("0 0\n1 0\n0 1\n1 1\n")  # cocircular: exits 2
    files.insert(1, str(square))
    singles = [helpers.run_cli(["check", f]) for f in files]
    assert [code for code, _ in singles] == [0, 2, 0]
    code, out = helpers.run_cli(["check", *files])
    assert code == 2
    reports = json.loads(out)["reports"]
    assert [json.dumps(r, indent=2) for r in reports] == [
        helpers.report_without_timing(single) for _, single in singles
    ]


def test_a_check_named_twice_runs_once(tmp_path, monkeypatch):
    f = tmp_path / "pts.txt"
    _, stdout = helpers.run_cli(["gen", "random", "7", "--seed", "3"])
    f.write_text(stdout)
    calls = []
    verify = cli.verify_delaunay

    def counting(tri):
        calls.append(len(tri))
        return verify(tri)

    monkeypatch.setattr(cli, "verify_delaunay", counting)
    code, out = helpers.run_cli(["check", str(f), "--checks", "delaunay,delaunay"])
    assert calls == [7]
    single = helpers.run_cli(["check", str(f), "--checks", "delaunay"])
    assert (code, helpers.report_without_timing(out)) == (
        single[0], helpers.report_without_timing(single[1])
    )
    _, out = helpers.run_cli(["check", str(f), "--checks", "matching,delaunay,matching"])
    assert list(json.loads(out)["verdicts"]) == ["matching", "delaunay"]  # first-seen order


def test_block_scans_the_union_once(tmp_path, monkeypatch):
    # one build of the union, whose local tests certify it: no
    # general-position scan on a fan in general position
    inst = helpers.fan(6)
    pts, blockers = tmp_path / "fan6.txt", tmp_path / "fan6.blockers"
    pts.write_text(format_points(inst.points))
    blockers.write_text(format_points(inst.blockers))
    scans = []
    real = exactgeom._least_violation

    def counting(points, start):
        scans.append(len(points))
        return real(points, start)

    monkeypatch.setattr(exactgeom, "_least_violation", counting)
    built = []
    build = blocking.build

    def counting_build(points):
        built.append(len(points))
        return build(points)

    monkeypatch.setattr(blocking, "build", counting_build)
    code, out = helpers.run_cli(["block", str(pts), str(blockers)])
    assert code == 0 and json.loads(out)["blocked"]
    assert built == [12] and scans == []


def test_block_answers_on_a_strict_union_outside_general_position(tmp_path):
    # four cocircular points with a fifth inside their circle: not in
    # general position, yet its Delaunay triangulation is unique and strict,
    # the star from (1, 2), so the opposite corners are blocked
    pts, blockers = tmp_path / "p.txt", tmp_path / "b.txt"
    pts.write_text("0 0\n4 4\n")
    blockers.write_text("4 0\n0 4\n1 2\n")
    union = [point(x, y) for x, y in ((0, 0), (4, 4), (4, 0), (0, 4), (1, 2))]
    assert general_position(union) == Violation(ViolationKind.COCIRCULAR, (0, 1, 2, 3))
    code, out = helpers.run_cli(["block", str(pts), str(blockers)])
    report = json.loads(out)
    assert code == 0
    assert (report["blocked"], report["p_independent"], report["tight"]) == (True, True, False)
    # P = two adjacent corners shares a hull edge
    pts.write_text("0 0\n4 0\n")
    blockers.write_text("4 4\n0 4\n1 2\n")
    code, out = helpers.run_cli(["block", str(pts), str(blockers)])
    assert code == 0 and json.loads(out)["blocked"] is False


def test_block_on_a_union_with_no_strict_triangulation_names_the_violation(tmp_path):
    # a collinear triple, and four cocircular points with nothing inside:
    # exit 2, naming the violation general_position names
    pts, blockers = tmp_path / "p.txt", tmp_path / "b.txt"
    for p_text, b_text in (("0 0\n2 2\n", "1 1\n"), ("0 0\n4 4\n", "4 0\n0 4\n")):
        pts.write_text(p_text)
        blockers.write_text(b_text)
        violation = general_position(pointfile.read_points(pts) + pointfile.read_points(blockers))
        assert violation is not None
        code, out = helpers.run_cli(["block", str(pts), str(blockers)])
        assert code == 2
        assert json.loads(out)["error"] == str(DegenerateInput(violation))


def test_gen_into_missing_directory(tmp_path):
    out = tmp_path / "missing" / "pts.txt"
    code, stdout = helpers.run_cli(["gen", "random", "5", "--out", str(out)])
    assert code == 2
    assert "error" in json.loads(stdout)


def test_render_into_missing_directory(tmp_path):
    f = tmp_path / "tri.txt"
    f.write_text("0 0\n1 0\n0 1\n")
    code, stdout = helpers.run_cli(["render", str(f), "--svg", str(tmp_path / "missing" / "t.svg")])
    assert code == 2
    assert "error" in json.loads(stdout)


def test_path_svg_into_missing_directory(tmp_path):
    f = tmp_path / "quad.txt"
    f.write_text("0 0\n4 0\n2 1\n2 -1\n")
    svg = tmp_path / "missing" / "path.svg"
    code, stdout = helpers.run_cli(["path", str(f), "2", "3", "2", "0", "1", "--svg", str(svg)])
    assert code == 2
    report = json.loads(stdout)
    assert "error" in report and report["path"] == [2, 3]


def test_random_sweep_exit_zero(tmp_path):
    # twenty seeded 12-point instances, all checks, no alarms anywhere
    for seed in range(20):
        f = tmp_path / f"sweep{seed}.txt"
        code, stdout = helpers.run_cli(["gen", "random", "12", "--seed", str(seed)])
        assert code == 0
        f.write_text(stdout)
        code, out = helpers.run_cli(["check", str(f)])
        assert code == 0, json.loads(out)


# ---------------------------------------------------------------------------
# main(argv) over drawn argument lists
# ---------------------------------------------------------------------------

_KINDS = ("random", "convex", "fan", "disjoint-arc")
_CHECK_LISTS = ("delaunay", "toughness,mis,matching", "mis,audit", "audit", "delaunay,bogus", ",")
_JUNK = (
    "--json", "--bogus", "-x", "--", "1e400", "1e999999999", "1/0", "nan", "a\x00b", "", "gen", "check",
)
# "@name" stands for the file tmp_path / name: three drawn point files,
# outputs, and a file in a directory that does not exist; "@fan.txt" and its
# ".blockers" are a drawn fan instance
_INPUTS = ("@f0.txt", "@f1.txt", "@f2.txt")
_OUTPUTS = ("@out.txt", "@out.svg", "@missing/out.svg", "@f0.txt")
_INT = st.integers(-3, 12).map(str)
_COORD = st.builds(Fraction, st.integers(-240, 240), st.integers(1, 4)).map(str)
_RATIONAL = st.one_of(_COORD, st.sampled_from(("1e2", "0.5", "1e400", "1/0", "x")))
_TOKEN = st.one_of(
    st.sampled_from(_JUNK + _KINDS + _CHECK_LISTS + _INPUTS + _OUTPUTS),
    _INT,
    _RATIONAL,
    st.text(st.characters(blacklist_categories=("Cs", "Cc")), max_size=4),
)


def _option(flag, value):
    return st.one_of(st.just([]), value.map(lambda v: [flag, v]))


# one argument list per subcommand, in the shape its parser expects
_COMMANDS = st.one_of(
    st.tuples(
        st.just(["gen"]), st.sampled_from(_KINDS).map(lambda k: [k]),
        st.integers(2, 12).map(lambda n: [str(n)]),
        _option("--seed", _INT), _option("--out", st.sampled_from(_OUTPUTS + ("-",))),
    ),
    st.tuples(
        st.just(["check"]), st.lists(st.sampled_from(_INPUTS), min_size=1, max_size=2),
        _option("--checks", st.sampled_from(_CHECK_LISTS)), _option("--max-n", _INT),
    ),
    st.tuples(
        st.just(["path"]), _option("--svg", st.sampled_from(_OUTPUTS)),
        st.sampled_from(_INPUTS).map(lambda f: ["--", f]),
        st.one_of(
            st.tuples(
                st.lists(st.integers(-1, 8).map(str), min_size=2, max_size=2),
                st.lists(_RATIONAL, min_size=3, max_size=3),
            ).map(lambda pq_disk: pq_disk[0] + pq_disk[1]),
            # "%witness k" stands for an edge of the file before it and its witness disk
            st.integers(0, 20).map(lambda k: [f"%witness {k}"]),
        ),
    ),
    st.tuples(
        st.just(["block"]),
        st.one_of(
            st.lists(st.sampled_from(_INPUTS), min_size=2, max_size=2),
            st.just(["@fan.txt", "@fan.txt.blockers"]),
        ),
    ),
    st.tuples(
        st.just(["render"]), st.sampled_from(_INPUTS).map(lambda f: [f]),
        st.sampled_from(_OUTPUTS).map(lambda f: ["--svg", f]),
        st.lists(st.sampled_from(("--mis", "--witness-disks", "--audit")), unique=True),
        _option("--blockers", st.sampled_from(_INPUTS)), _option("--max-n", _INT),
    ),
).map(lambda parts: [token for part in parts for token in part])


# at least half of the commands are left well formed
_EDIT = st.tuples(st.integers(0, 15), st.booleans(), _TOKEN)
_EDITS = st.one_of(st.just(()), st.lists(_EDIT, max_size=2))


def _edited(argv, edits):
    """argv with each (position, replace, token) of edits applied."""
    for i, replace, token in edits:
        i %= len(argv) + 1
        argv[i:i + replace] = [token]
    return argv


_POINT_FILE = st.lists(st.tuples(_COORD, _COORD), min_size=3, max_size=8, unique=True).map(
    lambda pts: "".join(f"{x} {y}\n" for x, y in pts).encode()
)
_FILE = st.one_of(_POINT_FILE, _POINT_FILE, _POINT_FILE, st.binary(max_size=32))


@functools.cache
def _fan_files(n, seed):
    inst = blocking.fan_instance(n, seed)
    return format_points(inst.points), format_points(inst.blockers)


def _witness_args(previous, k):
    """p, q and the disk of the witness disk of edge k (mod the edge count)
    of the point file previous, or of a unit disk when it does not build."""
    try:
        tri = delaunay.build(pointfile.read_points(previous))
    except cli.HANDLED:
        return ["0", "1", "0", "0", "1"]
    u, v = tri.edges[k % len(tri.edges)]
    d = delaunay.witness_disk(tri, u, v)
    return [str(u), str(v), str(d.center.x), str(d.center.y), str(d.radius_sq)]


def test_main_answers_every_argv(tmp_path, monkeypatch):
    # every run ends in a documented code and one JSON report (or, for gen
    # to stdout, a point file), never in a traceback; nothing here is
    # doctored, so no run may raise an alarm
    monkeypatch.chdir(tmp_path)  # outputs named by a drawn token land here
    answered = []  # (command, exit code, report) of every run

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        files=st.lists(_FILE, min_size=3, max_size=3),
        fan=st.tuples(st.integers(4, 7), st.integers(0, 3)),
        argv=st.builds(_edited, _COMMANDS, _EDITS),
    )
    def answers(files, fan, argv):
        for i, data in enumerate(files):
            (tmp_path / f"f{i}.txt").write_bytes(data)
        points, blockers = _fan_files(*fan)
        (tmp_path / "fan.txt").write_text(points)
        (tmp_path / "fan.txt.blockers").write_text(blockers)
        argv = [str(tmp_path / t[1:]) if t.startswith("@") else t for t in argv]
        argv = [
            word
            for i, t in enumerate(argv)
            for word in (
                _witness_args(argv[i - 1] if i else "", int(t.split()[1]))
                if t.startswith("%witness ")
                else [t]
            )
        ]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        assert code in (0, 2, 3), (argv, out.getvalue())
        assert err.getvalue() == ""
        text = out.getvalue()
        if text.startswith("{"):
            report = json.loads(text)
            assert isinstance(report, dict) and "timing_ms" in report
            assert code != 0 or "error" not in report
            answered.append((report.get("command"), code, report))
        else:
            assert code == 0 and "gen" in argv
            assert parse_points(text)

    answers()
    # the drawn witness disks and fan files reach the commands' success paths
    assert any(c == "path" and code == 0 for c, code, _ in answered)
    assert any(c == "block" and code == 0 and r["blocked"] for c, code, r in answered)
