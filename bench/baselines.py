"""Re-measure the one-off baselines listed under ROADMAP item 1.

Best of 5 on each, the same statistic the original figures used, so the two
can be compared directly. Run from the root of a checkout:

    python3 bench/baselines.py

Prints one line per figure. Informational only: the benchmark proper is
run.py, whose medians and bounds are what later changes are judged by.
"""

from __future__ import annotations

import os
import random
import sys
import tempfile
from time import perf_counter_ns

import run  # puts src/ on the path; its spawn points children there too
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))

TWO_LABEL = (
    '{"frame":["A","B"],"sources":['
    '{"name":"m1","range":[0,1.1],"masses":{"A":0.7,"B":0.3,"A|B":0.1}},'
    '{"name":"m2","range":[0,1.2],"masses":{"A":0.4,"B":0.6,"A|B":0.2}}],'
    '"pipeline":{"rule":"pcr5"}}'
)


def best(fn, repeat: int = 5) -> float:
    """Fastest of ``repeat`` calls, in ms."""
    times = []
    for _ in range(repeat):
        start = perf_counter_ns()
        fn()
        times.append(perf_counter_ns() - start)
    return min(times) / 1e6


def sources(frame, n: int, focal: int, count: int, rng: random.Random):
    from overmass.mass import MassRange, make_mass

    full = (1 << n) - 1
    out = []
    for _ in range(count):
        masks = rng.sample(range(1, full), focal - 1) + [full]
        weights = {workloads.expr(m, list(frame.labels)): rng.uniform(0.05, 1.0) / focal for m in masks}
        out.append(make_mass(frame, weights, MassRange(0.0, 1.2)))
    return out


def main() -> int:
    from overmass.cli import ScenarioDocument, Source, run_pipeline
    from overmass.frame import make_frame
    from overmass import rules
    from overmass.rules import RuleId, fuse, pcr5

    products = getattr(rules, "_products", lambda m1, m2: None)  # private; may go away

    exe = sys.executable
    print("interpreter start        %8.1f ms" % (min(run.spawn([exe, "-c", "pass"])[0] for _ in range(5)) / 1e6))
    print("python -c import overmass %7.1f ms" % (min(run.spawn([exe, "-c", "import overmass"])[0] for _ in range(5)) / 1e6))
    with tempfile.TemporaryDirectory(dir=HERE) as work:
        path = os.path.join(work, "two-label.json")
        with open(path, "w", encoding="utf-8") as f:
            f.write(TWO_LABEL)
        fuse_ms = min(run.spawn([exe, "-m", "overmass", "fuse", "--input", path])[0] for _ in range(5)) / 1e6
    print("overmass fuse process     %7.1f ms (2-label document)" % fuse_ms)

    rng = random.Random(2604)
    for n, focal in ((2, 3), (8, 32), (12, 128), (16, 256)):
        frame = make_frame(list(workloads.LETTERS[:n]))
        m1, m2 = sources(frame, n, focal, 2, rng)
        print(
            "(%2d labels, %3d focal)  fuse(PCR5) %9.3f ms  _products %9.3f ms  pcr5 %9.3f ms"
            % (
                n,
                focal,
                best(lambda: fuse(m1, m2, RuleId.PCR5)),
                best(lambda: products(m1, m2)),
                best(lambda: pcr5(m1, m2)),
            )
        )

    frame = make_frame(list(workloads.LETTERS[:12]))
    pool = sources(frame, 12, 32, 6, rng)
    for count in (2, 3, 6):
        doc = ScenarioDocument(frame, tuple(Source("s%d" % i, m) for i, m in enumerate(pool[:count])))
        print("run_pipeline(PCR5), %d sources at (12 labels, 32 focal) %9.2f ms" % (count, best(lambda: run_pipeline(doc))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
