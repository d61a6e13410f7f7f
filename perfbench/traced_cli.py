"""Run the discrarr command line with the tracer installed.

Usage: python3 perfbench/traced_cli.py <discrarr arguments>

Behaves like ``python -m discrarr.cli`` and adds one ``TRACE {json}`` line
on stderr with the tracer's snapshot, including ``cli.main_s``, the wall
time of ``discrarr.cli.main``.
"""

import json
import sys
from time import perf_counter

import discrarr.cli
from tracer import Tracer


def main() -> int:
    tracer = Tracer()
    tracer.install()
    tracer.enabled = True
    start = perf_counter()
    code = discrarr.cli.main(sys.argv[1:])
    tracer.times["cli.main_s"] = perf_counter() - start
    tracer.enabled = False
    sys.stdout.flush()
    print("TRACE " + json.dumps(tracer.snapshot()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
