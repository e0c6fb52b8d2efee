"""Known answers for every command the benchmark sends.

The answers come from the theorems the commands check, never from an
earlier run:

* ``check``: exit 0 and every requested verdict ``ok``; on a fan file the
  maximum independent set has exactly floor(n/2) vertices.
* ``block`` with all of a fan's blockers: blocked and tight.
* ``block`` with one blocker dropped: not blocked, exit 0 (blocking n points
  needs at least n blockers).
* ``path``: the construction and the oracle agree, from p to q, exit 0.
* ``render``: exit 0 and the SVG is on disk with the reported size.

Any other exit code, verdict, unparsable report or exception is a failure.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

from corpus import Command


def judge(cmd: Command, code: Optional[int], stdout: str, error: Optional[str] = None) -> list[str]:
    """Problems with one command's outcome; an empty list means correct."""
    if error is not None:
        return [f"raised {error}"]
    if code != 0:
        return [f"exit code {code}, expected 0"]
    try:
        report = json.loads(stdout)
    except ValueError:
        return ["stdout is not a JSON report"]
    if not isinstance(report, dict):
        return ["report is not a JSON object"]
    return _JUDGES[cmd.kind](cmd.expect, report)


def _check(expect: dict, report: dict) -> list[str]:
    files = expect["files"]
    reports = report.get("reports") if len(files) > 1 else [report]
    if not isinstance(reports, list) or len(reports) != len(files):
        return [f"expected {len(files)} file reports"]
    problems = []
    for i, (want, rep) in enumerate(zip(files, reports)):
        verdicts = rep.get("verdicts") or {}
        if "error" in rep:
            problems.append(f"file {i}: error {rep['error']!r}")
        if rep.get("instance", {}).get("n") != want["n"]:
            problems.append(f"file {i}: n is not {want['n']}")
        for name in expect["checks"]:
            if verdicts.get(name, {}).get("ok") is not True:
                problems.append(f"file {i}: {name} verdict is not ok")
        if want["fan"] and "mis" in verdicts and verdicts["mis"].get("size") != want["n"] // 2:
            problems.append(f"file {i}: fan independent set is not n//2")
    return problems


def _block(expect: dict, report: dict) -> list[str]:
    problems = []
    if report.get("ok") is not True:
        problems.append("ok is not true")
    if report.get("blocked") is not expect["blocked"]:
        problems.append(f"blocked is not {expect['blocked']}")
    if expect["blocked"] and report.get("tight") is not True:
        problems.append("fan blockers are not tight")
    return problems


def _path(expect: dict, report: dict) -> list[str]:
    problems = []
    if report.get("agree") is not True:
        problems.append("path and oracle disagree")
    walk = report.get("path") or []
    if not walk or walk[0] != expect["p"] or walk[-1] != expect["q"]:
        problems.append("path does not run from p to q")
    return problems


def _render(expect: dict, report: dict) -> list[str]:
    svg = Path(expect["svg"])
    if report.get("ok") is not True:
        return ["ok is not true"]
    if not svg.is_file() or svg.stat().st_size != report.get("bytes"):
        return ["SVG missing or not the reported size"]
    if not svg.read_text(encoding="utf-8").rstrip().endswith("</svg>"):
        return ["SVG is truncated"]
    return []


_JUDGES = {"check": _check, "block": _block, "path": _path, "render": _render}
