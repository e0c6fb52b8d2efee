"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. Every tolerance is pinned here; nothing is deferred to later
calibration. Every criterion is decided exactly: the audit's angle ledger
reads exact signs, and its sentinel-census oracle proves its angle total by
an exact angle census, never by a floating-point angle sum.
"""

import json
import random
from fractions import Fraction
from functools import lru_cache

from dtough.delaunay import build, edge_angle_check, verify_delaunay
from dtough.diskpath import check_disk_path, find_path, path_oracle
from dtough.errors import DegenerateInput
from dtough.exactgeom import Point
from dtough.blocking import lower_bound_report, verify_blocking
from dtough.structure import (
    angle_audit,
    components_after_removal,
    max_independent_set,
    perfect_matching,
)

import helpers

RANDOM_INSTANCES = [(4 + i % 9, 100 + i) for i in range(50)]  # n in 4..12
FAN_RANGE = range(4, 13)  # both parities


@lru_cache(maxsize=None)
def _instance(n: int, seed: int):
    return helpers.random_tri(n, seed)


def _verdict(num: int, label: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {num} ({label}): {status}")
    assert not failures, f"criterion {num} failed on: {failures[:5]}"


def test_criterion_1_toughness_exhaustive():
    failures = []
    for n, seed in RANDOM_INSTANCES:
        _, tri = _instance(n, seed)
        adj = [0] * n
        for u, v in tri.edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        full = (1 << n) - 1
        for s_mask in range(1, full + 1):
            alive = full & ~s_mask
            if alive == 0:
                continue
            comps = 0
            left = alive
            while left:
                comp = left & -left
                while True:
                    grown = comp
                    m = comp
                    while m:
                        v = (m & -m).bit_length() - 1
                        m &= m - 1
                        grown |= adj[v] & alive
                    if grown == comp:
                        break
                    comp = grown
                comps += 1
                left &= ~comp
            if comps > s_mask.bit_count():
                failures.append((n, seed, s_mask))
        if len(components_after_removal(tri, [])) != 1:
            failures.append((n, seed, "disconnected"))
    _verdict(1, "components <= |S| for every nonempty S", failures)


def test_criterion_2_independent_set_bound_and_tightness():
    failures = []
    for n, seed in RANDOM_INSTANCES:
        _, tri = _instance(n, seed)
        size, cert = max_independent_set(tri)
        if size > n // 2:
            failures.append(("random", n, seed, size))
        if any(u in cert and v in cert for u, v in tri.edges):
            failures.append(("random-cert", n, seed))
    for n in FAN_RANGE:
        tri = helpers.fan_tri(n)
        size, _ = max_independent_set(tri)
        if size != n // 2:
            failures.append(("fan", n, size))
    _verdict(2, "independent sets at most n/2; fans reach it", failures)


def test_criterion_3_angle_audit():
    failures = []
    instances = [("random", _instance(n, seed)[1]) for n, seed in RANDOM_INSTANCES]
    instances += [("fan", helpers.fan_tri(n)) for n in FAN_RANGE]
    for kind, tri in instances:
        _, cert = max_independent_set(tri)
        ledger = angle_audit(tri, cert)
        census = helpers.sentinel_census_oracle(tri, cert)
        chain = (
            census.euler_ok
            and census.per_edge_ok
            and census.angle_total_exact < 180 * census.subgraph_edges
            and census.bad_faces == len(cert)
            and census.bad_faces <= census.subgraph_vertices - 2
            and census.angle_census_ok
        )
        if not (chain and ledger.ok and angle_audit(tri, ()).ok):
            failures.append((kind, len(tri), ledger, census))
    _verdict(3, "counting audit passes on every instance", failures)


def test_criterion_4_perfect_matchings():
    failures = []
    targets = [
        (n, seed) for n, seed in RANDOM_INSTANCES if n % 2 == 0
    ]
    for n, seed in targets:
        _, tri = _instance(n, seed)
        m = perfect_matching(tri)
        if m is None or {v for e in m for v in e} != set(range(n)):
            failures.append(("random", n, seed))
            continue
        if not all(tri.is_edge(u, v) for u, v in m):
            failures.append(("random-edges", n, seed))
        if n <= 12:
            if not helpers.has_perfect_matching_exhaustive(n, tri.edges):
                failures.append(("oracle", n, seed))
    for n in (4, 6, 8, 10):
        tri = helpers.fan_tri(n)
        m = perfect_matching(tri)
        if m is None or {v for e in m for v in e} != set(range(n)):
            failures.append(("fan", n))
        if not helpers.has_perfect_matching_exhaustive(n, tri.edges):
            failures.append(("fan-oracle", n))
    _verdict(4, "perfect matchings on every even instance", failures)


def test_criterion_5_disk_paths():
    failures = []
    triples = 0
    rng = random.Random("disk-path-acceptance")
    attempt = 0
    while triples < 100 and attempt < 1000:
        attempt += 1
        n = rng.randrange(6, 15)
        seed = 200 + rng.randrange(0, 40)
        _, tri = _instance(n, seed)
        p, q = rng.sample(range(n), 2)
        d = helpers.pencil_disk(tri, p, q, rng.randrange(0, n))
        if d is None:
            continue  # a vertex sat exactly on the candidate boundary
        triples += 1
        try:
            path = find_path(tri, p, q, d)
            check_disk_path(tri, path)
        except Exception as exc:
            failures.append((n, seed, p, q, str(exc)))
            continue
        if path.vertices[0] != p or path.vertices[-1] != q:
            failures.append((n, seed, p, q, "endpoints"))
        oracle = path_oracle(tri, p, q, d)
        if oracle is None:
            failures.append((n, seed, p, q, "oracle-disagrees"))
    if triples < 100:
        failures.append(("insufficient-triples", triples))
    _verdict(5, "constructed in-disk paths agree with the oracle", failures)


def test_criterion_6_blocking_lower_bound():
    failures = []
    # every blocked instance the suite produces satisfies the bound; fans
    # additionally achieve it with equality
    for n in range(4, 11):
        inst = helpers.fan(n)
        rep = lower_bound_report(inst.points, inst.blockers)
        independent = helpers.surviving_pp_edge_oracle(inst.points, inst.blockers) is None
        if not (rep.blocked and independent and rep.size_ok):
            failures.append(("fan", n, rep))
        if rep.b_size != rep.p_size:
            failures.append(("fan-tightness", n))
        if rep.alarm:
            failures.append(("alarm", n))
    # 10^4-seed sweep: one point never blocks two
    rng = random.Random("two-point-sweep")
    denom = 2**12
    blocked_count = 0
    for _ in range(10_000):
        a = Point(Fraction(rng.randrange(denom), denom), Fraction(rng.randrange(denom), denom))
        b = Point(Fraction(rng.randrange(denom), denom), Fraction(rng.randrange(denom), denom))
        mx, my = (a.x + b.x) / 2, (a.y + b.y) / 2
        blocker = Point(
            mx + Fraction(rng.randrange(-denom, denom), denom**2),
            my + Fraction(rng.randrange(-denom, denom), denom**2),
        )
        try:
            witness = verify_blocking((a, b), (blocker,))
        except DegenerateInput:
            continue
        if witness is None:
            blocked_count += 1
    if blocked_count:
        failures.append(("pair-sweep-blocked", blocked_count))
    _verdict(6, "blocking needs at least |P| points; fans are tight", failures)


def test_criterion_7_interior_angle_inequality_everywhere():
    failures = []
    triangulations = [_instance(n, seed)[1] for n, seed in RANDOM_INSTANCES]
    triangulations += [helpers.fan_tri(n) for n in FAN_RANGE]
    from dtough.generate import convex_points

    triangulations += [build(convex_points(n, seed)) for n, seed in ((8, 0), (12, 1))]
    for tri in triangulations:
        for u, v in tri.edges:
            if len(tri.opposite_vertices(u, v)) == 2 and not edge_angle_check(tri, u, v):
                failures.append((len(tri), (u, v)))
    _verdict(7, "opposite-angle inequality on every interior edge", failures)


def test_criterion_8_oracle_equivalences():
    failures = []
    # build against the brute-force empty-circumdisk verifier
    for n, seed in RANDOM_INSTANCES:
        _, tri = _instance(n, seed)
        if verify_delaunay(tri) is not None:
            failures.append(("delaunay", n, seed))
    # component counts against union-find
    rng = random.Random("uf-acceptance")
    for trial in range(100):
        n = rng.randrange(4, 13)
        _, tri = _instance(n, 100 + rng.randrange(0, 50))
        removed = {v for v in range(n) if rng.random() < 0.4}
        if len(components_after_removal(tri, removed)) != helpers.uf_components(
            n, tri.edges, removed
        ):
            failures.append(("components", n, trial))
    # independent-set sizes against subset enumeration, up to n = 16
    for n, seed in [(10, 300), (12, 301), (14, 302), (16, 303)]:
        pts, tri = helpers.random_tri(n, seed)
        size, _ = max_independent_set(tri)
        if size != helpers.mis_exhaustive(n, tri.edges):
            failures.append(("mis", n, seed))
    _verdict(8, "independent oracles agree exactly", failures)


def test_criterion_9_determinism(tmp_path):
    failures = []
    # point files
    _, gen1 = helpers.run_cli(["gen", "random", "10", "--seed", "9"])
    _, gen2 = helpers.run_cli(["gen", "random", "10", "--seed", "9"])
    if gen1 != gen2:
        failures.append("gen-random")
    # verdict reports, timing excluded
    f = tmp_path / "pts.txt"
    f.write_text(gen1)
    _, check1 = helpers.run_cli(["check", str(f)])
    _, check2 = helpers.run_cli(["check", str(f)])
    if helpers.report_without_timing(check1) != helpers.report_without_timing(check2):
        failures.append("check-json")
    # the timing key must be the only difference
    d1, d2 = json.loads(check1), json.loads(check2)
    d1.pop("timing_ms"), d2.pop("timing_ms")
    if d1 != d2:
        failures.append("check-structure")
    # SVG bytes
    s1, s2 = tmp_path / "one.svg", tmp_path / "two.svg"
    helpers.run_cli(["render", str(f), "--svg", str(s1), "--mis", "--witness-disks"])
    helpers.run_cli(["render", str(f), "--svg", str(s2), "--mis", "--witness-disks"])
    if s1.read_bytes() != s2.read_bytes():
        failures.append("svg")
    # fan emission (two files)
    fan1 = tmp_path / "fan__1"
    fan2 = tmp_path / "fan__2"
    helpers.run_cli(["gen", "fan", "6", "--seed", "1", "--out", str(fan1)])
    helpers.run_cli(["gen", "fan", "6", "--seed", "1", "--out", str(fan2)])
    if fan1.read_bytes() != fan2.read_bytes():
        failures.append("fan-points")
    if (tmp_path / "fan__1.blockers").read_bytes() != (tmp_path / "fan__2.blockers").read_bytes():
        failures.append("fan-blockers")
    _verdict(9, "byte-identical reports and drawings", failures)
