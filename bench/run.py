"""End-to-end benchmark of the ``dtough`` commands.

    python3 bench/run.py --workload check-large --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

One closed-loop client drives ``dtough.cli.main(argv)`` in this process: one
command in flight, and no threads of its own but the reference loop's,
which end before the next command starts. Each workload generates its inputs
from ``--seed`` through ``dtough gen`` (timed three times as set-up), then
sends its command list round after round for ``--seconds`` and checks every
verdict against the answer the theorems give (see ``verdicts.py``). The
gated timings are normalised by a reference loop timed between commands
(see ``reference.py``), and each command counts once, at the median of its
repeats.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` is a separate run
on the same inputs that alternates untraced and traced rounds and prints the
per-layer metrics (see ``tracing.py``). Either way the last line of stdout is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the metric
names and units come from ``BENCHMARK.json``. Each run also appends a record
with the environment and the sha256 of every input to
``bench/out/results/``, and flags a difference from the previous record of
the same workload and seed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path
from typing import NamedTuple, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("check-small", "check-large", "queries")

import corpus as corpus_mod  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
from verdicts import judge  # noqa: E402


def load_program():
    """Import ``dtough.cli`` from this checkout's sources."""
    if not (SRC / "dtough" / "cli.py").is_file():
        raise SystemExit(f"error: no dtough sources under {SRC}")
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    from dtough import cli

    return cli


class Client:
    """Runs ``dtough`` commands in this process, one at a time."""

    def __init__(self, cli, tracer: Optional[tracing.Tracer] = None):
        self.cli = cli
        self.tracer = tracer
        self.cmd_ids = 0
        self.cmd_kind: dict[int, str] = {}

    def execute(self, argv, kind: str) -> tuple[Optional[int], str, Optional[str], float]:
        """(exit code, stdout, exception or None, wall seconds) of one command."""
        self.cmd_ids += 1
        self.cmd_kind[self.cmd_ids] = kind
        out, err = io.StringIO(), io.StringIO()
        code: Optional[int] = None
        error = None
        span = self.tracer.command(self.cmd_ids) if self.tracer else contextlib.nullcontext()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
            try:
                code = self.cli.main(list(argv))
            except SystemExit as exc:  # argparse usage errors exit 2
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # a traceback is a failed command, not a crash
                error = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        return code, out.getvalue(), error, time.perf_counter() - start

    def gen(self, argv) -> int:
        code, _, error, _ = self.execute(argv, "gen")
        return -1 if error else code


class Sample(NamedTuple):
    index: int  # the command's position in the round
    kind: str
    seconds: float
    problems: list[str]  # empty when the verdict is correct
    ref: float = 0.0  # the reference loop's time around the command
    threads: int = 1  # threads the reference loop ran in


def run_round(client: Client, commands, samples: list[Sample]) -> None:
    """Send every command once, in order, and judge each outcome."""
    for index, cmd in enumerate(commands):
        samples.append(run_command(client, cmd, index))


def run_command(client: Client, cmd, index: int) -> Sample:
    code, stdout, error, seconds = client.execute(cmd.argv, cmd.kind)
    return Sample(index, cmd.kind, seconds, judge(cmd, code, stdout, error))


def measure(client: Client, commands, seconds: float, samples: list[Sample]) -> float:
    """Send the commands in turn, round after round, until ``seconds`` have
    passed; the first round always completes. Returns the elapsed time.

    The reference loop runs before the first command and after every
    command; a sample keeps the mean of the two runs around it. Stopping
    between commands rather than between rounds keeps a run within one
    command of ``seconds``; a command of the last, partial round has one
    repeat more than the others.
    """
    (threads,) = {cmd.threads for cmd in commands}  # one per workload
    start = time.perf_counter()
    deadline = start + seconds
    before = reference.measure(threads)
    sent = 0
    while sent < len(commands) or time.perf_counter() < deadline:
        index = sent % len(commands)
        sample = run_command(client, commands[index], index)
        after = reference.measure(threads)
        samples.append(sample._replace(ref=(before + after) / 2, threads=threads))
        before = after
        sent += 1
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def tail(values: list[float]) -> Optional[tuple[float, float, int]]:
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile, samples). None below 20 samples, where that
    percentile would sit under the median."""
    n = len(values)
    if n < 20:
        return None
    ordered = sorted(values)
    return ordered[n - 11], 100.0 * (n - 10) / n, n


class CommandTimes(NamedTuple):
    kind: str
    norm: float  # median normalised seconds over the command's repeats
    wall: float  # median wall seconds over the same repeats
    ok: bool  # every repeat gave the correct verdict


def per_command(samples: list[Sample]) -> dict[int, CommandTimes]:
    """The repeats of each command of the round, summed up."""
    groups: dict[int, list[Sample]] = {}
    for s in samples:
        groups.setdefault(s.index, []).append(s)
    return {
        index: CommandTimes(
            group[0].kind,
            statistics.median(reference.normalise(s.seconds, s.ref, s.threads) for s in group),
            statistics.median(s.seconds for s in group),
            all(not s.problems for s in group),
        )
        for index, group in sorted(groups.items())
    }


def end_to_end(samples: list[Sample], setup_walls: list[float], setup_norms: list[float]) -> dict:
    """Gated timings are normalised (see ``reference.py``): each command
    counts once, at the median of its repeats, so that a run weighs every
    input the same however many rounds fit in it."""
    cmds = per_command(samples)
    norm = [c.norm for c in cmds.values()]
    failed = sum(1 for s in samples if s.problems)
    report: dict = {
        "setup_s": statistics.median(setup_norms),
        "verdicts_per_s": sum(1 for c in cmds.values() if c.ok) / sum(norm),
        "op_p50_ms": 1000 * statistics.median(norm),
        "failed_ratio": failed / len(samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "commands": len(cmds),
        "repeats_min": min(Counter(s.index for s in samples).values()),
        "wall_setup_s": statistics.median(setup_walls),
        "wall_verdicts_per_s": (len(samples) - failed) / sum(s.seconds for s in samples),
        "wall_op_p50_ms": 1000 * statistics.median(s.seconds for s in samples),
        "reference_p50_ms": 1000 * statistics.median(s.ref / s.threads for s in samples),
        "command_ms": [round(1000 * c.norm, 3) for c in cmds.values()],
    }
    normalised = [(s.kind, reference.normalise(s.seconds, s.ref, s.threads)) for s in samples]
    t = tail([seconds for _, seconds in normalised])
    report["op_tail_ms"] = None if t is None else 1000 * t[0]
    report["op_tail_at"] = None if t is None else {"percentile": t[1], "samples": t[2]}
    t = tail([seconds for kind, seconds in normalised if kind == "check"])
    report["check_tail_ms"] = None if t is None else 1000 * t[0]
    report["check_tail_at"] = None if t is None else {"percentile": t[1], "samples": t[2]}
    for kind in ("check", "path", "block", "render"):
        kind_times = [c.norm for c in cmds.values() if c.kind == kind]
        report[f"{kind}_p50_ms"] = 1000 * statistics.median(kind_times) if kind_times else None
        report[f"{kind}_commands"] = len(kind_times)
    return report


def per_layer(tracer: tracing.Tracer, run_cmds: set[int], setup_cmds: set[int],
              rounds: int, client: Client, overhead: float) -> dict:
    """Per-layer numbers of the traced rounds, per round; ``generate``
    numbers per set-up."""
    spans = tracer.spans
    by_id = {s.id: s for s in spans}
    own = tracing.self_times(spans)

    def totals(cmds: set[int]) -> tuple[Counter, Counter]:
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for s in spans:
            if s.cmd in cmds:
                calls[s.name] += 1
                self_s[s.name] += own[s.id]
        for name, per_cmd in tracer.counts.items():
            calls[name] = sum(v for c, v in per_cmd.items() if c in cmds)
        return calls, self_s

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    run_totals = totals(run_cmds)
    setup_totals = totals(setup_cmds)
    m: dict = {}
    for module, names in tracing.SPANNED.items():
        (calls, self_s), per = (setup_totals, 1) if module == "generate" else (run_totals, rounds)
        for name in names:
            m[f"{module}.{name}.calls"] = calls[f"{module}.{name}"] / per
            m[f"{module}.{name}.self_s"] = self_s[f"{module}.{name}"] / per
        m[f"{module}.self_s"] = sum(v for k, v in self_s.items() if k.startswith(module + ".")) / per
    calls, self_s = run_totals
    for module, names in tracing.COUNTED.items():
        for name in names:
            m[f"{module}.{name}.calls"] = calls[f"{module}.{name}"] / rounds
    m["cli.self_s"] = self_s[tracing.ROOT] / rounds

    m["exactgeom.gp_scans_per_op"] = ratio(calls["exactgeom.general_position"], calls[tracing.ROOT])
    gp_names = ("exactgeom.general_position", "exactgeom.general_position_added")
    # Over the sum of self times rather than command wall time: spans of the
    # two check-pool threads overlap in wall time, and this sum counts each
    # thread's spans once. For one thread it equals the command wall time.
    gp_time = sum(s.end - s.start for s in spans if s.cmd in run_cmds and s.name in gp_names)
    span_time = sum(own[s.id] for s in spans if s.cmd in run_cmds)
    m["exactgeom.gp_share"] = ratio(gp_time, span_time)
    in_sentinel = sum(
        1 for s in spans
        if s.cmd in run_cmds and s.name in gp_names
        and tracing.has_ancestor(s, by_id, ("structure.sentinel_augment",))
    )
    m["structure.sentinel_augment.gp_checks_per_call"] = ratio(
        in_sentinel, calls["structure.sentinel_augment"])

    setup_calls = setup_totals[0]
    generators = ("generate.random_points", "generate.convex_points")
    gen_scans = sum(1 for s in spans if s.cmd in setup_cmds and s.name == "exactgeom.general_position"
                    and tracing.has_ancestor(s, by_id, generators))
    m["generate.gp_scans_per_instance"] = ratio(gen_scans, sum(setup_calls[g] for g in generators))
    fan_builds = sum(1 for s in spans if s.cmd in setup_cmds and s.name == "delaunay.build"
                     and tracing.has_ancestor(s, by_id, ("blocking.fan_instance",)))
    m["blocking.fan_instance.builds_per_call"] = ratio(fan_builds, setup_calls["blocking.fan_instance"])
    m["trace.overhead_ratio"] = overhead

    # Per command kind: calls per command, for the record.
    by_kind: dict[str, dict] = {}
    for kind in sorted({client.cmd_kind[c] for c in run_cmds}):
        ids = {c for c in run_cmds if client.cmd_kind[c] == kind}
        row: dict[str, float] = {"commands": len(ids)}
        for s in spans:
            if s.cmd in ids and s.name != tracing.ROOT:
                row[s.name] = row.get(s.name, 0) + 1
        by_kind[kind] = {k: (v if k == "commands" else v / len(ids)) for k, v in row.items()}
    m["calls_per_command_by_kind"] = by_kind
    return m


# ---------------------------------------------------------------------------
# Environment and input pinning
# ---------------------------------------------------------------------------


def git_commit() -> Optional[str]:
    """HEAD of this checkout, read from ``.git`` without leaving it."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment() -> dict:
    src = sorted((SRC / "dtough").glob("*.py"))
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_count": os.cpu_count(),
        "git_commit": git_commit(),
        "src_sha256": hashlib.sha256(b"".join(p.read_bytes() for p in src)).hexdigest(),
        "DTOUGH_THREADS": os.environ.get("DTOUGH_THREADS"),
    }


ENV_KEYS = ("python", "nproc", "cpu_count", "git_commit", "DTOUGH_THREADS")


def comparison_flags(previous: dict, record: dict) -> list[str]:
    """Why ``record`` cannot be compared with ``previous`` as equals."""
    flags = []
    if previous["inputs_sha256"] != record["inputs_sha256"]:
        changed = sorted(k for k in set(previous["inputs"]) | set(record["inputs"])
                         if previous["inputs"].get(k) != record["inputs"].get(k))
        flags.append(f"NOT COMPARABLE: input digests differ ({', '.join(changed)})")
    for key in ENV_KEYS:
        if previous["environment"].get(key) != record["environment"].get(key):
            flags.append(f"environment differs: {key} "
                         f"{previous['environment'].get(key)!r} -> {record['environment'].get(key)!r}")
    return flags


def save_record(record: dict, name: str) -> list[str]:
    """Append the record to its history and compare it with the last one."""
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    history = results / f"{name}.jsonl"
    flags: list[str] = []
    if history.is_file():
        lines = history.read_text(encoding="utf-8").splitlines()
        if lines:
            flags = comparison_flags(json.loads(lines[-1]), record)
    record["flags"] = flags
    with history.open("a", encoding="utf-8") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")
    return flags


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def set_up(client: Client, workload: str, seed: int, work: Path, repeats: int):
    """Generate the corpus ``repeats`` times; every copy must be identical.

    Returns the corpus and, per set-up, the wall and the normalised seconds
    its ``dtough gen`` commands took. The reference loop runs between them.
    """
    walls, norms = [], []
    first = None
    for r in range(repeats):
        gens: list[tuple[float, float]] = []
        before = reference.measure()

        def gen(argv) -> int:
            nonlocal before
            code, _, error, seconds = client.execute(argv, "gen")
            after = reference.measure()
            gens.append((seconds, reference.normalise(seconds, (before + after) / 2)))
            before = after
            return -1 if error else code

        copy = corpus_mod.generate(workload, seed, work / f"corpus{r}", gen)
        walls.append(sum(w for w, _ in gens))
        norms.append(sum(n for _, n in gens))
        if first is None:
            first = copy
        elif copy.digests != first.digests:
            raise RuntimeError("dtough gen wrote different files for the same seed")
    for r in range(1, repeats):
        shutil.rmtree(work / f"corpus{r}")
    corpus_mod.add_commands(workload, seed, first)
    return first, walls, norms


def run_untraced(cli, workload: str, seed: int, seconds: float, work: Path):
    client = Client(cli)
    corpus, setup_walls, setup_norms = set_up(client, workload, seed, work, SETUP_REPEATS)
    samples: list[Sample] = []
    elapsed = measure(client, corpus.commands, seconds, samples)
    metrics = end_to_end(samples, setup_walls, setup_norms)
    metrics["elapsed_s"] = elapsed
    return corpus, samples, metrics


def run_traced(cli, workload: str, seed: int, seconds: float, work: Path):
    """Alternate untraced and traced whole rounds on the same inputs."""
    tracer = tracing.Tracer()
    client = Client(cli, tracer)
    with tracer.installed():
        corpus, _, _ = set_up(client, workload, seed, work, 1)
    setup_cmds = set(client.cmd_kind)
    untraced_client = Client(cli)
    samples: list[Sample] = []
    plain_walls, traced_walls = [], []
    start = time.perf_counter()
    # Whole pairs of rounds, and only while another pair fits in the time.
    while not traced_walls or (time.perf_counter() - start) * (1 + 1 / len(traced_walls)) < seconds:
        begin = time.perf_counter()
        run_round(untraced_client, corpus.commands, samples)
        plain_walls.append(time.perf_counter() - begin)
        with tracer.installed():
            begin = time.perf_counter()
            run_round(client, corpus.commands, samples)
            traced_walls.append(time.perf_counter() - begin)
    run_cmds = set(client.cmd_kind) - setup_cmds
    overhead = statistics.median(traced_walls) / statistics.median(plain_walls)
    metrics = per_layer(tracer, run_cmds, setup_cmds, len(traced_walls), client, overhead)
    metrics["missing_functions"] = sorted(set(tracer.missing))
    spans_file = OUT / "results" / f"{workload}-seed{seed}-spans.jsonl"
    spans_file.parent.mkdir(parents=True, exist_ok=True)
    with spans_file.open("w", encoding="utf-8") as f:
        for s in tracer.spans:
            f.write(json.dumps(s._asdict()) + "\n")
    return corpus, samples, metrics


def selected_metrics(metrics: dict, trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    out = {}
    for entry in spec["per_layer" if trace else "end_to_end"]:
        value = metrics.get(entry["name"])
        if value is None:
            raise SystemExit(f"error: metric {entry['name']} was not measured")
        out[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return out


def print_table(workload: str, seed: int, metrics: dict, samples: list[Sample], trace: int) -> None:
    failed = sum(1 for s in samples if s.problems)
    print(f"{workload} seed {seed}: {len(samples)} commands, {failed} failed")
    if trace:
        for kind, row in metrics["calls_per_command_by_kind"].items():
            gp = row.get("exactgeom.general_position", 0)
            print(f"  {kind}: {row['commands']} commands, {gp:g} general_position calls per command")
        for name, value in metrics.items():
            if isinstance(value, (int, float)):
                print(f"  {name:<48} {value:.6g}")
        return
    rows = [
        ("setup_s", "s", f"median of {SETUP_REPEATS} set-ups, normalised"),
        ("verdicts_per_s", "1/s", f"{metrics['commands']} commands, normalised"),
        ("op_p50_ms", "ms", f"each command at the median of its {metrics['repeats_min']}+ repeats, normalised"),
        ("wall_setup_s", "s", "wall time"),
        ("wall_verdicts_per_s", "1/s", f"all {len(samples)} samples, wall time"),
        ("wall_op_p50_ms", "ms", "all samples, wall time"),
        ("reference_p50_ms", "ms", f"reference loop, {1000 * reference.NOMINAL_S:g} ms nominal"),
        ("op_tail_ms", "ms", _tail_note(metrics["op_tail_at"])),
        ("check_p50_ms", "ms", f"{metrics['check_commands']} commands"),
        ("check_tail_ms", "ms", _tail_note(metrics["check_tail_at"])),
        ("path_p50_ms", "ms", f"{metrics['path_commands']} commands"),
        ("block_p50_ms", "ms", f"{metrics['block_commands']} commands"),
        ("render_p50_ms", "ms", f"{metrics['render_commands']} commands"),
        ("failed_ratio", "1", f"{failed}/{len(samples)}"),
        ("peak_rss_mb", "MB", "ru_maxrss"),
    ]
    for name, unit, note in rows:
        value = metrics[name]
        shown = "n/a" if value is None else f"{value:.4f} {unit}"
        print(f"  {name:<19} {shown:>18}  ({note})")


def _tail_note(at: Optional[dict]) -> str:
    if at is None:
        return "fewer than 20 samples"
    return f"p{at['percentile']:.1f} of {at['samples']} samples"


def run_one(args) -> int:
    cli = load_program()
    work = OUT / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    runner = run_traced if args.trace else run_untraced
    try:
        corpus, samples, metrics = runner(cli, args.workload, args.seed, args.seconds, work)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for s in samples:
        if s.problems:
            print(f"FAILED {s.kind}: {'; '.join(s.problems)}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(), "inputs": corpus.digests,
        "inputs_sha256": corpus.inputs_sha256(), "metrics": metrics,
    }
    print_table(args.workload, args.seed, metrics, samples, args.trace)
    print(f"  inputs sha256 {record['inputs_sha256']}")
    for flag in save_record(record, f"{args.workload}-seed{args.seed}-trace{args.trace}"):
        print(f"  {flag}")
    failed = sum(1 for s in samples if s.problems)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": selected_metrics(metrics, args.trace),
    }))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own process so that peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
