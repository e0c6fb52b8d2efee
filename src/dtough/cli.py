"""Command line interface: generators, theorem checks, disk paths, blocking
verdicts, and SVG rendering.

Verdict reports are JSON on stdout with exact rationals serialized as
``a/b`` strings (never floats), usage errors included. Exit codes: 0 every
requested verdict affirms, 1 a verified invariant failed (a falsification
alarm), 2 bad input (unparsable, degenerate, a usage error, an unwritable
output file or a closed stdout) or a construction that gave up, 3 a size
gate refused an exhaustive search (raise it with --max-n) or a command ran
out of memory.
``_exit_code`` maps every exception to its code and ``_worst`` merges the
codes of checks, files and the path picture: an alarm outranks everything.

``check`` builds T without certifying general position (``delaunay.build``
needs only that T is strictly Delaunay), and reports the paper's hypothesis
as a check of its own, ``hypothesis``. A failed check is an alarm only
where the hypothesis holds; elsewhere it exits 2, like the failed
hypothesis itself. When a check fails and ``hypothesis`` was not asked
for, the certificate runs before the exit code is chosen, so an alarm
always comes with the hypothesis certified.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from pathlib import Path
from typing import Iterable, Optional, Sequence

from . import blocking, diskpath, generate, pointfile, render, structure
from .delaunay import (
    Triangulation,
    build,
    verify_delaunay,
    witness_disk,
)
from .errors import DToughError, InvariantBroken, NoPerfectMatching, TooLarge
from .exactgeom import Point, disk, general_position
from .structure import MIS_GATE, TOUGHNESS_GATE

EXIT_OK = 0
EXIT_ALARM = 1
EXIT_INPUT = 2
EXIT_GATE = 3

# The exceptions a command reports instead of raising; any other is a bug.
HANDLED = (DToughError, OSError, ValueError, MemoryError)


def _exit_code(exc: Exception) -> int:
    """The exit code of a handled exception."""
    if isinstance(exc, InvariantBroken):
        return EXIT_ALARM
    if isinstance(exc, (TooLarge, MemoryError)):
        return EXIT_GATE
    return EXIT_INPUT


def _worst(codes: Iterable[int]) -> int:
    """The code of several verdicts: an alarm if any, else the highest."""
    codes = list(codes)
    return EXIT_ALARM if EXIT_ALARM in codes else max(codes, default=EXIT_OK)


def _message(exc: Exception) -> str:
    return str(exc) or ("out of memory" if isinstance(exc, MemoryError) else type(exc).__name__)


def _point_json(p: Point) -> list[str]:
    return [pointfile.fraction_str(p.x), pointfile.fraction_str(p.y)]


def _instance_summary(tri: Triangulation) -> dict:
    return {"n": len(tri), "hull_size": len(tri.hull), "edge_count": len(tri.edges)}


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------
#
# Each check takes the triangulation, its size limit (None when ungated) and
# the verdicts of the checks before it, and returns its verdict. A verdict
# whose "ok" is false is a falsification alarm.


def _check_hypothesis(tri: Triangulation, limit: Optional[int], earlier: dict) -> dict:
    violation = general_position(tri.scaled)
    return {
        "general_position": violation is None,
        "violation": None
        if violation is None
        else {"kind": violation.kind.value, "indices": list(violation.indices)},
        "ok": violation is None,
    }


def _check_delaunay(tri: Triangulation, limit: Optional[int], earlier: dict) -> dict:
    # on a tiling every interior edge passes the angle test exactly when every
    # circumdisk is empty (Delaunay's lemma and its converse)
    counter = verify_delaunay(tri)
    return {
        "empty_circumdisks": counter is None,
        "interior_angle_ok": counter is None,
        "counterexample": None
        if counter is None
        else {"triangle": list(counter.triangle), "vertex": counter.vertex},
        "ok": counter is None,
    }


def _check_toughness(tri: Triangulation, limit: Optional[int], earlier: dict) -> dict:
    worst = structure.toughness_exhaustive(tri, max_n=limit)
    if worst is None:
        return {"toughness": None, "witness": None, "ok": True}
    return {
        "toughness": pointfile.fraction_str(worst.ratio),
        "witness": sorted(worst.separator),
        "components": worst.component_count,
        "ok": worst.ratio >= 1,
    }


def _check_mis(tri: Triangulation, limit: Optional[int], earlier: dict) -> dict:
    size, cert = structure.max_independent_set(tri, max_n=limit)
    bound = len(tri) // 2
    return {"size": size, "bound": bound, "certificate": sorted(cert), "ok": size <= bound}


def _check_matching(tri: Triangulation, limit: Optional[int], earlier: dict) -> dict:
    try:
        matching = structure.perfect_matching(tri)
    except NoPerfectMatching as exc:
        return {"exists": False, "error": str(exc), "ok": False}
    except InvariantBroken as exc:  # a matching was found but failed its verification
        return {"exists": True, "error": str(exc), "ok": False}
    exists = matching is not None
    return {
        "exists": exists,
        "edges": sorted(map(list, matching)) if matching else None,
        "ok": exists == (len(tri) % 2 == 0),
    }


def _check_audit(tri: Triangulation, limit: Optional[int], earlier: dict) -> dict:
    mis = earlier.get("mis", {})
    if "certificate" in mis:  # the audit certifies the set the mis check found
        cert, form = mis["certificate"], "maximum"
    elif len(tri) <= limit:
        cert, form = sorted(structure.max_independent_set(tri, max_n=limit)[1]), "maximum"
    else:  # with no set removed, the premises bound every independent set at once
        cert, form = [], "universal"
    rep = structure.angle_audit(tri, cert)
    return {"form": form, "independent_set": cert, **vars(rep), "ok": rep.ok}


# Check name -> (default size gate, or None when ungated; check function).
# Above its gate the audit removes no set, which bounds every independent
# set at once, instead of refusing the search for a maximum one.
# "hypothesis" is the paper's: the points in general position.
CHECKS = {
    "hypothesis": (None, _check_hypothesis),
    "delaunay": (None, _check_delaunay),
    "toughness": (TOUGHNESS_GATE, _check_toughness),
    "mis": (MIS_GATE, _check_mis),
    "matching": (None, _check_matching),
    "audit": (MIS_GATE, _check_audit),
}
ALL_CHECKS = tuple(CHECKS)


def _check_one(path: str, checks: Sequence[str], max_n: Optional[int]) -> tuple[int, dict]:
    report: dict = {"command": "check", "file": path}
    try:
        tri = build(pointfile.read_points(path))
    except HANDLED as exc:
        report["error"] = _message(exc)
        return _exit_code(exc), report
    report["instance"] = _instance_summary(tri)
    verdicts: dict = {}
    report["verdicts"] = verdicts
    codes = []
    for name in checks:
        gate, run = CHECKS[name]
        try:
            verdicts[name] = run(tri, None if gate is None else max(gate, max_n or 0), verdicts)
            codes.append(EXIT_OK if verdicts[name]["ok"] else EXIT_ALARM)
        except HANDLED as exc:  # the other checks still run
            code, message = _exit_code(exc), _message(exc)
            verdicts[name] = (
                {"refused": message} if code == EXIT_GATE else {"error": message, "ok": False}
            )
            codes.append(code)
    if EXIT_ALARM in codes and not _hypothesis_holds(tri, verdicts):
        # outside the paper's hypothesis a failed check refutes nothing
        codes = [EXIT_INPUT if c == EXIT_ALARM else c for c in codes]
    return _worst(codes), report


def _hypothesis_holds(tri: Triangulation, verdicts: dict) -> bool:
    """The hypothesis verdict, or the certificate when it was not asked for."""
    if "hypothesis" in verdicts:
        return verdicts["hypothesis"].get("ok") is True
    return general_position(tri.scaled) is None


def _cmd_check(args: argparse.Namespace) -> tuple[int, dict]:
    # a check named twice runs once, where it is first named
    checks = tuple(dict.fromkeys(args.checks.split(","))) if args.checks is not None else ALL_CHECKS
    for c in checks:
        if c not in CHECKS:
            return EXIT_INPUT, {"command": "check", "error": f"unknown check {c!r}"}
    results = [_check_one(f, checks, args.max_n) for f in args.files]
    if len(results) == 1:
        return results[0]
    return _worst(c for c, _ in results), {"command": "check", "reports": [r for _, r in results]}


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def _cmd_gen(args: argparse.Namespace) -> tuple[int, Optional[dict]]:
    kind, n, seed = args.kind, args.n, args.seed
    if kind == "fan" and args.out == "-":  # refused before the construction runs
        return EXIT_INPUT, {"command": "gen", "error": "fan emits two files; --out is required"}
    blockers_body = None
    if kind == "random":
        body = pointfile.format_points(generate.random_points(n, seed))
    elif kind == "convex":
        body = pointfile.format_points(generate.convex_points(n, seed))
    elif kind == "fan":
        inst = blocking.fan_instance(n, seed)
        body = pointfile.format_points(inst.points)
        blockers_body = pointfile.format_points(inst.blockers)
    else:  # disjoint-arc, the last of the parser's choices
        inst = blocking.disjoint_disk_instance(n)
        body = pointfile.format_points(inst.points)

    if args.out == "-":
        sys.stdout.write(body)
        return EXIT_OK, None
    out = Path(args.out)
    out.write_text(body, encoding="utf-8")
    files = [str(out)]
    if blockers_body is not None:
        blockers_path = Path(str(out) + ".blockers")
        blockers_path.write_text(blockers_body, encoding="utf-8")
        files.append(str(blockers_path))
    return EXIT_OK, {"command": "gen", "kind": kind, "n": n, "seed": seed, "files": files}


# ---------------------------------------------------------------------------
# path
# ---------------------------------------------------------------------------


def _cmd_path(args: argparse.Namespace) -> tuple[int, dict]:
    report: dict = {"command": "path"}
    d = disk(args.cx, args.cy, args.r2)
    # no certificate: find_path needs only the strict T that build returns
    tri = build(pointfile.read_points(args.file))
    report["instance"] = _instance_summary(tri)
    report["disk"] = {"center": _point_json(d.center), "radius_sq": pointfile.fraction_str(d.radius_sq)}
    p, q = args.p, args.q
    try:
        found = diskpath.find_path(tri, p, q, d)
    except HANDLED as exc:
        report["error"] = _message(exc)
        return _exit_code(exc), report
    oracle = diskpath.path_oracle(tri, p, q, d)
    agree = oracle is not None
    report["path"] = list(found.vertices)
    report["oracle_path"] = None if oracle is None else list(oracle.vertices)
    report["agree"] = agree
    report["ok"] = agree
    code = EXIT_OK if agree else EXIT_ALARM
    if args.svg:
        doc = render.render_svg(tri, path=found.vertices, extra_disk=d)
        try:
            Path(args.svg).write_text(doc, encoding="utf-8")
            report["svg"] = args.svg
        except OSError as exc:
            report["error"] = str(exc)
            code = _worst([code, _exit_code(exc)])
    return code, report


# ---------------------------------------------------------------------------
# block
# ---------------------------------------------------------------------------


def _cmd_block(args: argparse.Namespace) -> tuple[int, dict]:
    p = pointfile.read_points(args.points)
    b = pointfile.read_points(args.blockers)
    bound = blocking.lower_bound_report(p, b)
    report = {
        "command": "block",
        **vars(bound),
        "p_independent": bound.blocked,  # no P-P edge survives
        "tight": bound.blocked and bound.p_size == bound.b_size,
        "ok": not bound.alarm,
    }
    return (EXIT_ALARM if bound.alarm else EXIT_OK), report


# ---------------------------------------------------------------------------
# render
# ---------------------------------------------------------------------------


def _cmd_render(args: argparse.Namespace) -> tuple[int, dict]:
    report: dict = {"command": "render"}
    points = pointfile.read_points(args.file)
    blockers = pointfile.read_points(args.blockers) if args.blockers else ()
    limit = max(MIS_GATE, args.max_n or 0)
    hollow: frozenset[int] = frozenset()
    sentinel_triangle = None
    if args.audit:  # the input with its sentinels; blockers are not drawn
        base = build(points)
        _, hollow = structure.max_independent_set(base, max_n=limit)
        aug = structure.sentinel_augment(base, frozenset(range(len(base))) - hollow)
        tri, blockers = aug.tri, ()
        sentinel_triangle = (aug.anchor, len(base), len(base) + 1)
    else:
        tri = build(points + blockers)
        if args.mis:
            _, hollow = structure.max_independent_set(tri, max_n=limit)
    disks = [witness_disk(tri, u, v) for u, v in tri.edges] if args.witness_disks else []
    doc = render.render_svg(
        tri, hollow=hollow, witness_disks=disks, blockers=blockers, sentinel_triangle=sentinel_triangle
    )
    Path(args.svg).write_text(doc, encoding="utf-8")
    report["svg"] = args.svg
    report["bytes"] = len(doc.encode("utf-8"))
    report["ok"] = True
    return EXIT_OK, report


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


class UsageError(DToughError):
    """A command line argparse refused, in ``command`` (None at the top level)."""

    def __init__(self, message: str, command: Optional[str]):
        super().__init__(message)
        self.command = command


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # raise, instead of printing usage and exiting 2
        raise UsageError(message, self.prog.partition(" ")[2] or None)


@functools.cache  # one parser per process: building it costs about a millisecond
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dtough",
        description="Exact Delaunay triangulations with mechanical theorem checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a seeded point set")
    p_gen.add_argument("kind", choices=("random", "convex", "fan", "disjoint-arc"))
    p_gen.add_argument("n", type=int)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", default="-", help="output file; '-' for stdout")

    p_check = sub.add_parser("check", help="run theorem checks on point files")
    p_check.add_argument("files", nargs="+")
    p_check.add_argument(
        "--checks",
        default=None,
        help=f"comma list from {{{','.join(ALL_CHECKS)}}}; default all",
    )
    p_check.add_argument("--max-n", type=int, default=None, help="raise size gates")
    p_check.add_argument("--no-json", action="store_true", help="flat text verdict lines")

    p_path = sub.add_parser("path", help="path between two vertices inside a disk")
    p_path.add_argument("file")
    p_path.add_argument("p", type=int)
    p_path.add_argument("q", type=int)
    p_path.add_argument("cx", help="disk center x (rational)")
    p_path.add_argument("cy", help="disk center y (rational)")
    p_path.add_argument("r2", help="disk squared radius (rational)")
    p_path.add_argument("--svg", default=None)

    p_block = sub.add_parser("block", help="verify a blocking instance")
    p_block.add_argument("points")
    p_block.add_argument("blockers")

    p_render = sub.add_parser("render", help="draw a triangulation as SVG")
    p_render.add_argument("file")
    p_render.add_argument("--svg", required=True)
    p_render.add_argument("--blockers", default=None)
    p_render.add_argument("--mis", action="store_true", help="hollow a maximum independent set")
    p_render.add_argument("--witness-disks", action="store_true")
    p_render.add_argument("--audit", action="store_true", help="sentinel overlay")
    p_render.add_argument("--max-n", type=int, default=None)
    return parser


def _flat_lines(report: dict, indent: str = "") -> list[str]:
    lines = []
    for key, value in report.items():
        if isinstance(value, list) and value and all(isinstance(v, dict) for v in value):
            value = {f"[{i}]": v for i, v in enumerate(value)}
        if isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            lines.extend(_flat_lines(value, indent + "  "))
        else:  # a string as it is, any other value as JSON
            lines.append(f"{indent}{key}: {value if isinstance(value, str) else json.dumps(value)}")
    return lines


HANDLERS = {
    "gen": _cmd_gen, "check": _cmd_check, "path": _cmd_path, "block": _cmd_block, "render": _cmd_render
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    started = time.perf_counter()
    args = None
    try:
        args, extra = parser.parse_known_args(argv)
        if extra:
            raise UsageError(f"unrecognized arguments: {' '.join(extra)}", args.command)
        code, report = HANDLERS[args.command](args)
    except HANDLED as exc:
        command = exc.command if isinstance(exc, UsageError) else args.command
        code, report = _exit_code(exc), {"command": command, "error": _message(exc)}
    try:
        if report is not None:
            report["timing_ms"] = round((time.perf_counter() - started) * 1000.0, 3)
            if getattr(args, "no_json", False):
                print("\n".join(_flat_lines(report)))
            else:
                print(json.dumps(report, indent=2))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: what is left goes to devnull, so the
        # flush at shutdown stays silent, and the output was not written
        with open(os.devnull, "wb") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())
        return _worst([code, EXIT_INPUT])
    return code


if __name__ == "__main__":
    raise SystemExit(main())
