"""Traced stand-in for `python -m relqopt ARGS` in the traced cli_mix run.

It imports relqopt.cli inside a `cli` span, installs the span wrappers of
tracing.py, runs `relqopt.cli.main(ARGS)` and exits with its code, just as
`python -m relqopt` does.  Layer self times, span counts and the raw spans
go to the JSON file named by PERFBENCH_SPANS.
"""

import json
import os
import sys
import time

from tracing import Tracer, patched


def main():
    t0 = time.perf_counter()
    tracer = Tracer()
    tracer.active = True
    with tracer.span("cli", "cli.import"):
        import relqopt.cli
    with patched(tracer, include_cli=True):
        code = relqopt.cli.main(sys.argv[1:])
    sys.stdout.flush()
    spans = [[s[0], s[1], s[3], s[4], s[5] - t0, s[6] - t0] for s in tracer.spans]
    with open(os.environ["PERFBENCH_SPANS"], "w", encoding="utf-8") as fh:
        json.dump({"self": tracer.self_s, "counts": tracer.counts, "spans": spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
