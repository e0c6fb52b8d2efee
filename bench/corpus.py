"""Workload inputs: point files made through ``dtough gen``, blocker files
with one blocker dropped, and in-disk path queries.

The disk queries come from this module's own exact pencil construction,
which shares no code with ``dtough.diskpath``: a disk through vertices p and
q has its center on their perpendicular bisector, and every other point
enters or leaves the disk at one rational value of the bisector parameter.
Choosing the parameter strictly between two such values gives a disk with
exactly p and q on its boundary and a known number of points inside, which
is the precondition of the in-disk path theorem.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

CHECK_LARGE = "delaunay,mis,matching,audit"

# Each workload: the files it generates, as (kind, n, copies). Sizes are
# fixed per workload and only the coordinates depend on the seed. The cost of
# a command varies by about 15% between point sets of one size, so a round
# holds many small files rather than a few large ones: the median over more
# files moves less from seed to seed. A round takes 7 to 10 s at the seed
# commit, so a run repeats every command two to four times.
WORKLOADS: dict[str, list[tuple[str, int, int]]] = {
    "check-small": [("random", 11, 28), ("fan", 8, 1), ("convex", 14, 1)],
    "check-large": [("random", 16, 10)],
    "queries": [("random", 14, 12), ("fan", 8, 3)],
}
PATHS_PER_FILE = 2


@dataclass(frozen=True)
class Command:
    """One ``dtough`` invocation and what the theorems say it must return."""

    kind: str  # check, path, block or render
    argv: tuple[str, ...]
    expect: dict = field(default_factory=dict, compare=False)
    threads: int = 1  # threads the command computes in


@dataclass
class Corpus:
    files: dict[str, Path]  # label -> point file
    sizes: dict[str, int]
    digests: dict[str, str] = field(default_factory=dict)  # input label -> sha256
    commands: list[Command] = field(default_factory=list)

    def inputs_sha256(self) -> str:
        h = hashlib.sha256()
        for label in sorted(self.digests):
            h.update(f"{label}={self.digests[label]}\n".encode())
        return h.hexdigest()


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def generate(workload: str, seed: int, out: Path, run: Callable[[list[str]], int]) -> Corpus:
    """Write the workload's point files through ``dtough gen`` into ``out``.

    ``run`` executes one ``dtough`` argv and returns its exit code. This is
    the set-up step the benchmark times.
    """
    out.mkdir(parents=True, exist_ok=True)
    files: dict[str, Path] = {}
    sizes: dict[str, int] = {}
    specs = [(kind, n) for kind, n, copies in WORKLOADS[workload] for _ in range(copies)]
    for index, (kind, n) in enumerate(specs):
        label = f"{index}-{kind}{n}"
        path = out / f"{label}.txt"
        argv = ["gen", kind, str(n), "--seed", str(seed * 100 + index), "--out", str(path)]
        code = run(argv)
        if code != 0 or not path.is_file():
            raise RuntimeError(f"dtough {' '.join(argv)} exited {code}")
        files[label] = path
        sizes[label] = n
    corpus = Corpus(files, sizes)
    for label, path in files.items():
        corpus.digests[label] = sha256_file(path)
        blockers = Path(str(path) + ".blockers")
        if blockers.is_file():
            corpus.digests[label + ".blockers"] = sha256_file(blockers)
    return corpus


def add_commands(workload: str, seed: int, corpus: Corpus) -> None:
    """Derive the workload's command list (one round) from its corpus."""
    rng = random.Random(f"bench-{workload}-{seed}")
    labels = list(corpus.files)
    cmds: list[Command] = []
    if workload == "check-small":
        # Two files per call, so that every call goes through the check pool:
        # the random files in pairs, then the fan file with the convex one.
        # The median falls among the random pairs.
        randoms = [lb for lb in labels if "random" in lb]
        others = [lb for lb in labels if "random" not in lb]
        for pair in zip(randoms[::2], randoms[1::2]):
            cmds.append(_check(list(pair), corpus, None))
        cmds.append(_check(others, corpus, None))
    elif workload == "check-large":
        for lb in labels:
            cmds.append(_check([lb], corpus, CHECK_LARGE))
    elif workload == "queries":
        randoms = [lb for lb in labels if "random" in lb]
        for lb in labels:
            path = corpus.files[lb]
            if "fan" in lb:
                cmds.extend(_block_pair(lb, path, corpus, rng))
                continue
            points = read_points(path)
            for q in range(PATHS_PER_FILE):
                cmds.append(_path_query(f"{lb}.q{q}", path, points, corpus, rng))
        target = corpus.files[randoms[0]]
        svg = target.with_suffix(".svg")
        argv = ("render", str(target), "--svg", str(svg), "--mis", "--witness-disks")
        cmds.append(Command("render", argv, {"svg": str(svg)}))
    else:
        raise KeyError(workload)
    rng.shuffle(cmds)
    corpus.commands = cmds


def _check(labels: list[str], corpus: Corpus, checks: Optional[str]) -> Command:
    argv = ["check", *(str(corpus.files[lb]) for lb in labels)]
    if checks:
        argv += ["--checks", checks]
    expect = {
        "checks": (checks or "delaunay,toughness,mis,matching,audit").split(","),
        "files": [{"n": corpus.sizes[lb], "fan": "fan" in lb} for lb in labels],
    }
    # check runs its files in a thread pool of this size (DTOUGH_THREADS unset).
    threads = min(os.cpu_count() or 1, len(labels))
    return Command("check", tuple(argv), expect, threads)


def _block_pair(label: str, path: Path, corpus: Corpus, rng: random.Random) -> list[Command]:
    """``block`` with every blocker (blocked and tight) and with one dropped.

    Blocking P needs at least |P| points, so the fan's n blockers are tight
    and any n - 1 of them cannot block.
    """
    blockers = Path(str(path) + ".blockers")
    lines = [ln for ln in blockers.read_text(encoding="utf-8").splitlines() if ln.strip()]
    drop = rng.randrange(len(lines))
    short = path.with_name(path.stem + f".drop{drop}.blockers")
    short.write_text("".join(ln + "\n" for i, ln in enumerate(lines) if i != drop), encoding="utf-8")
    corpus.digests[f"{label}.drop{drop}.blockers"] = sha256_file(short)
    return [
        Command("block", ("block", str(path), str(blockers)), {"blocked": True}),
        Command("block", ("block", str(path), str(short)), {"blocked": False}),
    ]


# ---------------------------------------------------------------------------
# Pencil-disk path queries
# ---------------------------------------------------------------------------


def read_points(path: Path) -> list[tuple[Fraction, Fraction]]:
    """The ``x y`` lines that ``dtough gen`` writes, as exact pairs."""
    pts = []
    for line in path.read_text(encoding="utf-8").splitlines():
        fields = line.split("#", 1)[0].split()
        if fields:
            pts.append((Fraction(fields[0]), Fraction(fields[1])))
    return pts


def _frac(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _sq(x: Fraction, y: Fraction) -> Fraction:
    return x * x + y * y


def pencil_disk(points, p: int, q: int, target: int) -> tuple[tuple[Fraction, Fraction, Fraction], int]:
    """A disk with exactly points p and q on its boundary and, among the
    achievable counts, the one nearest ``target`` points strictly inside.

    Returns ((cx, cy, r2), inside).
    """
    (px, py), (qx, qy) = points[p], points[q]
    mx, my = (px + qx) / 2, (py + qy) / 2
    wx, wy = -(qy - py), qx - px  # direction of the bisector
    base = _sq(mx - px, my - py)
    # Point x is on the circle of parameter t iff t == crossing; for side > 0
    # it is inside for t above the crossing, for side < 0 below it.
    events = []
    for i, (x, y) in enumerate(points):
        if i in (p, q):
            continue
        side = wx * (x - px) + wy * (y - py)
        if side == 0:
            raise ValueError(f"points {p}, {q}, {i} are collinear")
        events.append(((_sq(mx - x, my - y) - base) / (2 * side), side > 0))
    crossings = sorted({t for t, _ in events})
    candidates = [crossings[0] - 1]
    candidates += [(a + b) / 2 for a, b in zip(crossings, crossings[1:])]
    candidates.append(crossings[-1] + 1)

    def inside(t: Fraction) -> int:
        return sum(1 for tx, up in events if (t > tx if up else t < tx))

    t = min(candidates, key=lambda c: abs(inside(c) - target))
    cx, cy = mx + t * wx, my + t * wy
    r2 = _sq(cx - px, cy - py)
    count = 0
    for i, (x, y) in enumerate(points):
        d2 = _sq(cx - x, cy - y)
        if i in (p, q):
            ok = d2 == r2
        else:
            ok = d2 != r2
            count += d2 < r2
        if not ok:
            raise RuntimeError(f"pencil disk check failed at point {i}")
    return (cx, cy, r2), count


def _path_query(label: str, path: Path, points, corpus: Corpus, rng: random.Random) -> Command:
    n = len(points)
    p, q = rng.sample(range(n), 2)
    (cx, cy, r2), inside = pencil_disk(points, p, q, rng.randint(0, n // 2))
    numbers = [_frac(cx), _frac(cy), _frac(r2)]
    corpus.digests[label] = hashlib.sha256(" ".join([str(p), str(q), *numbers]).encode()).hexdigest()
    # "--" keeps argparse from reading a negative coordinate as an option.
    argv = ("path", "--", str(path), str(p), str(q), *numbers)
    return Command("path", argv, {"p": p, "q": q, "inside": inside})
