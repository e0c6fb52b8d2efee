"""Golden CLI results: exit codes and JSON reports (without ``timing_ms``) of
the commands on fixed seeded inputs, pinned in ``tests/golden/cli.json``.

A change meant to keep every report as it is must leave this test passing.
A change meant to alter a report regenerates the file and shows the diff:

    PYTHONPATH=src python tests/test_golden.py

which prints the key path of every entry it changes before it writes.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import helpers
from dtough import pointfile
from dtough.exactgeom import dist_sq, midpoint

GOLDEN = Path(__file__).parent / "golden" / "cli.json"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def golden_results(workdir: Path) -> dict:
    """Run the pinned commands inside ``workdir``; file paths in the reports
    are reduced to their basenames."""
    results: dict = {}

    def run(label: str, argv: list[str]) -> None:
        code, out = helpers.run_cli(argv)
        report = json.loads(out.replace(f"{workdir}/", ""))
        report.pop("timing_ms")
        results[label] = {"exit": code, "report": report}

    files = {}
    for kind, n in (("random", 11), ("fan", 8), ("convex", 14)):
        files[kind] = workdir / f"{kind}{n}.txt"
        run(f"gen {kind} {n}", ["gen", kind, str(n), "--seed", "1", "--out", str(files[kind])])
        results[f"gen {kind} {n}"]["sha256"] = _sha256(files[kind])
    results["gen fan 8"]["blockers_sha256"] = _sha256(Path(f"{files['fan']}.blockers"))
    arc = workdir / "disjoint-arc6.txt"
    run("gen disjoint-arc 6", ["gen", "disjoint-arc", "6", "--out", str(arc)])
    results["gen disjoint-arc 6"]["sha256"] = _sha256(arc)

    for kind, f in files.items():
        run(f"check {kind}", ["check", str(f)])

    # the diametral disk of vertices 1 and 4 of random 11 holds a five-edge path
    pts = pointfile.read_points(files["random"])
    center = midpoint(pts[1], pts[4])
    disk = [pointfile.fraction_str(v) for v in (*center, dist_sq(center, pts[1]))]
    run("path random 1 4", ["path", "--", str(files["random"]), "1", "4", *disk])

    run("block fan", ["block", str(files["fan"]), f"{files['fan']}.blockers"])
    # without its last blocker the fan is not blocked: a rim edge survives
    fewer = workdir / "fan8-fewer.blockers"
    fewer.write_text("".join(Path(f"{files['fan']}.blockers").read_text().splitlines(True)[:-1]))
    run("block fan minus one", ["block", str(files["fan"]), str(fewer)])

    # render takes no --audit option: a usage error report
    argv = ["render", str(files["random"]), "--svg", str(workdir / "audit.svg"), "--audit"]
    run("render --audit", argv)

    svg = workdir / "disks.svg"
    argv = ["render", str(files["random"]), "--svg", str(svg), "--mis", "--witness-disks"]
    run("render --mis --witness-disks", argv)
    results["render --mis --witness-disks"]["sha256"] = _sha256(svg)
    return results


def changed_paths(old, new, path: str = "") -> list[str]:
    """Key paths, joined by "/", of the entries that differ between two JSON
    documents: added, removed or changed leaves, lists being leaves."""
    if not (isinstance(old, dict) and isinstance(new, dict)):
        return [] if old == new else [path]
    return [
        p
        for key in sorted(old.keys() | new.keys())
        for p in changed_paths(old.get(key), new.get(key), f"{path}/{key}" if path else key)
    ]


def test_changed_paths():
    old = {"a": {"b": 1, "c": [1, 2]}, "d": 2}
    new = {"a": {"b": 1, "c": [2, 1]}, "e": 2}
    assert changed_paths(old, new) == ["a/c", "d", "e"]
    assert changed_paths(new, new) == []


def test_reports_match_golden(tmp_path):
    assert golden_results(tmp_path) == json.loads(GOLDEN.read_text(encoding="utf-8"))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        doc = golden_results(Path(tmp))
    if GOLDEN.exists():
        for path in changed_paths(json.loads(GOLDEN.read_text(encoding="utf-8")), doc):
            print(f"changed: {path}")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
