"""Benchmark of overmass: seeded workloads, checked outputs, per-layer traces.

Run from the root of a checkout:

    python3 bench/run.py --workload paper-small --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --self-test

The library is imported from ``src/`` of the checkout. With ``--trace 0``
the last line of stdout is a JSON object carrying the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics instead. The line before
it records the machine, the sample counts and the tail percentile used.
The exit code is 0 only when every output passed its checks. See README.md
beside this file for what each metric means.
"""

from __future__ import annotations

import argparse
import array
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from math import ceil
from time import perf_counter_ns

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

if not os.path.isfile(os.path.join(SRC, "overmass", "__init__.py")):
    print("bench: no src/overmass beside bench/; run from the root of an overmass checkout", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, SRC)

import overmass  # noqa: E402

if not os.path.abspath(overmass.__file__).startswith(SRC + os.sep):
    print("bench: imported overmass from %s, not from %s" % (overmass.__file__, SRC), file=sys.stderr)
    sys.exit(2)

import checks  # noqa: E402
import runner  # noqa: E402
import selftest  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

#: Candidate tail percentiles; the highest with ten samples beyond it is reported.
#: p75 holds from 40 to 999 samples and p99 from 1000, so each workload's
#: sample count sits well inside one rung's range instead of flipping between
#: neighbours: dense-fold takes about 100 samples a run, where a p90 rung would
#: begin. There is no p99.9: on paper-small it caught garbage-collection pauses
#: and host hiccups and moved 26% between runs, against 11% for p99.
TAIL_LADDER = (50.0, 75.0, 99.0)
#: Fewest timed documents per run: enough for a rung above the median.
MIN_SAMPLES = 40
#: Child processes per run for setup_s: a median of nine spread up to 0.28
#: over ten seeds, above the 0.25 bound.
SETUP_SPAWNS = 21
#: Child processes per kind for the import probes of the traced run.
IMPORT_SPAWNS = 9
#: Passes over the cli-cold documents (see ``workloads.cli_cold``) for cli.main.ms.
CLI_MAIN_PASSES = 3

NS = 1e9


class Tally:
    """Documents attempted and failed, with the first few problems kept for the log."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def judge(self, what: str, issues: list[str]) -> bool:
        self.attempted += 1
        if issues:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append("%s: %s" % (what, "; ".join(issues)))
        return not issues


def tail(samples) -> tuple[float, int, int]:
    """(percentile, value, samples beyond it): the highest ladder rung with ten beyond."""
    ordered = sorted(samples)
    n = len(ordered)
    chosen = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= 10:
            chosen = p
    rank = max(1, ceil(chosen / 100.0 * n))
    return chosen, ordered[rank - 1], n - rank


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
    }


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=SRC, PYTHONIOENCODING="utf-8")


def spawn(args: list[str], stdin: str = "") -> tuple[int, int, str]:
    """Run one child to completion: (wall ns, exit code, stdout+stderr)."""
    start = perf_counter_ns()
    proc = subprocess.run(args, input=stdin.encode(), stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT)
    return perf_counter_ns() - start, proc.returncode, proc.stdout.decode()


class SetupProbe:
    """setup_s: child processes timing import overmass plus the warm-up calls.

    The host's speed drifts over tens of seconds, so the children are spread
    evenly over the timed run (see ``due``) rather than started in one burst.
    """

    def __init__(self, seed: int, tally: Tally, budget_ns: float) -> None:
        cases = workloads.warmup(seed)
        tables = []
        for case in cases:
            out = runner.run_document(case)
            tally.judge("warm-up %d" % case.doc_id, checks.check(case, out))
            tables.append(out.table or "")
        self.want = hashlib.blake2b("\n\n".join(tables).encode()).hexdigest()
        self.stdin = "\n".join(c.text for c in cases)
        self.tally = tally
        self.step = budget_ns / SETUP_SPAWNS
        self.samples: list[float] = []
        self.started = 0

    def due(self, spent: float) -> None:
        """Start the children whose share of the timed budget has been reached."""
        while self.started < SETUP_SPAWNS and spent >= self.started * self.step:
            self.sample()

    def sample(self) -> None:
        self.started += 1
        _, code, output = spawn([sys.executable, os.path.join(HERE, "setup_child.py")], self.stdin)
        lines = output.split()
        ok = code == 0 and len(lines) == 2 and lines[1] == self.want
        self.tally.judge("setup child %d" % self.started, [] if ok else ["setup child failed: %s" % output[-300:]])
        if ok:
            self.samples.append(float(lines[0]))

    def median(self) -> float:
        self.due(float("inf"))
        return statistics.median(self.samples) if self.samples else float("nan")


def import_probe() -> tuple[float, float]:
    """Bare interpreter start, and import overmass on top of it, in ms (medians)."""
    bare, full = [], []
    for _ in range(IMPORT_SPAWNS):
        bare.append(spawn([sys.executable, "-c", "pass"])[0])
        took, code, output = spawn([sys.executable, "-c", "import overmass"])
        if code != 0:
            raise RuntimeError("import overmass failed in a child: %s" % output[-300:])
        full.append(took)
    floor = statistics.median(bare) / 1e6
    return floor, statistics.median(full) / 1e6 - floor


def write_documents(cases, work: str) -> list[str]:
    paths = []
    for case in cases:
        path = os.path.join(work, "doc-%d.json" % case.doc_id)
        with open(path, "w", encoding="utf-8") as f:
            f.write(case.text)
        paths.append(path)
    return paths


def first_pass(cases, tally: Tally) -> tuple[list[bytes], list[bool]]:
    """Run and check every document once; later passes must repeat these bytes."""
    digests, good = [], []
    for case in cases:
        out = runner.run_document(case)
        good.append(tally.judge("doc %d" % case.doc_id, checks.check(case, out)))
        digests.append(out.digest())
    return digests, good


def measure_untraced(cases, budget_ns: float, digests, good, tally: Tally, probe=None, min_samples=MIN_SAMPLES):
    """Whole passes over the documents until the timed work reaches the budget.

    Latencies go in a flat array, so the count a run reaches does not move
    the process's peak memory.
    """
    latencies, correct, spent, passes = array.array("q"), 0, 0, 0
    while len(latencies) < min_samples or spent < budget_ns:
        for i, case in enumerate(cases):
            if probe:
                probe.due(spent)
            out, took = runner.timed_document(case)
            latencies.append(took)
            spent += took
            same = good[i] and out.digest() == digests[i]
            correct += tally.judge("doc %d repeat" % case.doc_id, [] if same else ["output differs from the first pass"])
        passes += 1
    return latencies, correct, spent, passes


def cli_main_times(cases, paths, tally: Tally):
    """main() in-process per document, checked; the time of each call."""
    times = []
    for case, path in zip(cases, paths):
        code, output, took = runner.cli_in_process(path)
        tally.judge("main %d" % case.doc_id, checks.check_cli(case, code, output))
        times.append(took)
    return times


def end_to_end(workload, seconds: float, seed: int, tally: Tally):
    cases = workload.cases
    probe = SetupProbe(seed, tally, seconds * NS)
    digests, good = first_pass(cases, tally)
    latencies, correct, spent, passes = measure_untraced(cases, seconds * NS, digests, good, tally, probe)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup = probe.median()
    pct, tail_ns, beyond = tail(latencies)
    metrics = {
        "docs_per_s": (correct / (spent / NS), "1/s"),
        "doc_p50_ms": (statistics.median(latencies) / 1e6, "ms"),
        "doc_tail_ms": (tail_ns / 1e6, "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
        "setup_s": (setup, "s"),
    }
    info = {
        "documents": len(cases),
        "passes": passes,
        "samples": len(latencies),
        "tail_percentile": pct,
        "tail_samples_beyond": beyond,
        "setup_samples": probe.samples,
    }
    return metrics, info


def per_layer(workload, seconds: float, seed: int, tally: Tally):
    cases = workload.cases
    digests, good = first_pass(cases, tally)
    # One untraced pass, then one traced pass over the same documents, until
    # each side has spent half the run: both rates come from the same stretch
    # of the host's speed. Counts are taken on the first traced pass only.
    tr = Tracer()
    counts: Counter = Counter()
    half = seconds / 2 * NS
    untraced_correct, untraced_ns, traced_correct, traced_ns, passes = 0, 0, 0, 0, 0
    while passes == 0 or untraced_ns < half or traced_ns < half:
        _, correct, spent, _ = measure_untraced(cases, 0, digests, good, tally, min_samples=1)
        untraced_correct += correct
        untraced_ns += spent
        pass_counts = counts if passes == 0 else Counter()
        with runner.tracing(tr, pass_counts):
            for i, case in enumerate(cases):
                out, took = runner.traced_document(tr, case, pass_counts)
                traced_ns += took
                same = good[i] and out.digest() == digests[i]
                traced_correct += tally.judge(
                    "traced doc %d" % case.doc_id, [] if same else ["traced run renders differently from the untraced one"]
                )
        passes += 1
    untraced = untraced_correct / (untraced_ns / NS)
    traced = traced_correct / (traced_ns / NS)
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, "spans-%s-seed%d.jsonl" % (workload.name, seed))
    tr.write(spans_path)

    cli_cases = workloads.cli_cold(seed)
    main_ns = []
    with tempfile.TemporaryDirectory(prefix="work-", dir=OUT) as work:
        paths = write_documents(cli_cases, work)
        for _ in range(CLI_MAIN_PASSES):
            main_ns += cli_main_times(cli_cases, paths, tally)
    startup_ms, import_ms = import_probe()

    def busy(name: str) -> float:
        return tr.busy_ns.get(name, 0) / passes / NS

    def calls(name: str) -> int:
        return tr.calls.get(name, 0) // passes

    def layer_self(prefix: str) -> float:
        return sum(v for k, v in tr.self_ns.items() if k.split(".")[0] == prefix) / passes / NS

    # Dempster's rule combines through conjunctive, whose span it contains.
    combine_s = busy("rules.conjunctive") + busy("rules.pcr5")
    metrics = {
        "cli.load_document.calls": (calls("cli.load_document"), "count"),
        "cli.load_document.busy_s": (busy("cli.load_document"), "s"),
        "cli.load_document.bytes": (counts["cli.load_document.bytes"], "bytes"),
        "cli.render_table.busy_s": (busy("cli.render_table"), "s"),
        "cli.render_table.bytes": (counts["cli.render_table.bytes"], "bytes"),
        "cli.main.ms": (statistics.median(main_ns) / 1e6, "ms"),
        "mass.make_mass.calls": (calls("mass.make_mass"), "count"),
        "mass.make_mass.focal_sets": (counts["mass.make_mass.focal_sets"], "count"),
        "mass.make_mass.busy_s": (busy("mass.make_mass"), "s"),
        "mass.belief_interval.calls": (calls("mass.belief_interval"), "count"),
        "mass.belief_interval.busy_s": (busy("mass.belief_interval"), "s"),
    }
    for rule in ("conjunctive", "pcr5", "total_proportional", "over_normalize", "dempster", "average"):
        metrics["rules.%s.busy_s" % rule] = (busy("rules." + rule), "s")
    metrics.update(
        {
            "rules.products": (counts["rules.products"], "count"),
            "rules.products_per_s": (counts["rules.products"] / combine_s if combine_s else 0.0, "1/s"),
            "rules.trace_records": (counts["rules.trace_records"], "count"),
            "rules.result_focal_sets": (counts["rules.result_focal_sets"], "count"),
            "rules.fold_steps": (counts["rules.fold_steps"], "count"),
            "rules.skipped_fractions": (counts["rules.skipped_fractions"], "count"),
            "rules.guard_rejections": (counts["rules.guard_rejections"], "count"),
            "regime.assess.busy_s": (busy("regime.assess"), "s"),
            "regime.assess_fusion.calls": (calls("regime.assess_fusion"), "count"),
            "regime.assess_fusion.busy_s": (busy("regime.assess_fusion"), "s"),
            "python.startup_ms": (startup_ms, "ms"),
            "overmass.import_ms": (import_ms, "ms"),
            "trace.overhead_ratio": (traced / untraced, "ratio"),
            "trace.docs_per_s_traced": (traced, "1/s"),
            "trace.docs_per_s_untraced": (untraced, "1/s"),
        }
    )
    for layer in ("cli", "mass", "rules", "regime", "frame", "bench", "doc"):
        metrics["%s.self_s" % layer] = (layer_self(layer), "s")
    info = {
        "documents": len(cases),
        "passes_each": passes,
        "per_layer_basis": "one pass over the documents",
        "spans_kept": len(tr.spans),
        "spans_file": os.path.relpath(spans_path, ROOT),
    }
    return metrics, info


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="check the generators and the checks, then exit")
    args = parser.parse_args(argv)
    if args.workload is None and not args.self_test:
        parser.error("--workload is required unless --self-test is given")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _timeout(signum, frame):
    raise TimeoutError("benchmark run exceeded its time limit")


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(int(max(175, 3 * args.seconds + 60)))

    problems = selftest.run(args.seed)
    if problems:
        print("bench: self-test failed:\n  " + "\n  ".join(problems), file=sys.stderr)
        return 1
    if args.self_test:
        print("self-test ok")
        return 0

    workload = workloads.build(args.workload, args.seed)
    tally = Tally()
    measure = per_layer if args.trace else end_to_end
    metrics, info = measure(workload, args.seconds, args.seed, tally)
    signal.alarm(0)

    info.update(machine())
    info.update(
        {
            "workload": workload.name,
            "why": workload.why,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "failed_ratio": tally.failed / tally.attempted,
            "problems": tally.problems,
        }
    )
    for problem in tally.problems:
        print("bench: %s" % problem, file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
