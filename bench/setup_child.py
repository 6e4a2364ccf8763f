"""Child process that times ``import overmass`` plus the warm-up calls.

Reads one JSON document per line on stdin before the clock starts, so that
nothing the library imports (json included) is loaded early. Prints the
elapsed seconds, then a digest of the rendered warm-up tables for the parent
to compare with its own in-process rendering.
"""

import sys
import time

texts = sys.stdin.read().splitlines()
start = time.perf_counter()

from overmass.cli import load_document, render_table, run_pipeline  # noqa: E402
from overmass.frame import parse_focal  # noqa: E402
from overmass.mass import belief_interval  # noqa: E402
from overmass.regime import assess, assess_fusion  # noqa: E402

tables = []
for text in texts:
    doc = load_document(text)
    for source in doc.sources:
        assess(source.mass)
    report = run_pipeline(doc)
    tables.append(render_table(report, 15))
    assess_fusion(report)
    belief_interval(report.result, parse_focal(doc.frame.labels[0], doc.frame))

elapsed = time.perf_counter() - start

import hashlib  # noqa: E402

print(repr(elapsed))
print(hashlib.blake2b("\n\n".join(tables).encode()).hexdigest())
