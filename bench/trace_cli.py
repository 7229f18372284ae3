"""Run the shapewilf command line under the tracer, then save the tracer's totals.

    python3 bench/trace_cli.py TOTALS.json [shapewilf arguments...]

behaves like ``python -m shapewilf [arguments...]`` (same output, same exit
status) and writes the span and counter totals to TOTALS.json.
"""

import json
import sys

from tracing import Tracer, install

if __name__ == "__main__":
    tracer = install(Tracer())
    from shapewilf import cli

    try:
        status = cli.main(sys.argv[2:])
    finally:
        with open(sys.argv[1], "w", encoding="utf-8") as handle:
            json.dump(tracer.dump(), handle)
    sys.exit(status)
