"""Launch ``repro.service.serve`` with the benchmark's span wrappers installed.

Usage::

    python3 perfbench/serve_traced.py --store DIR --trace-out FILE \
        --span-file FILE --run-id ID [--workers 2]

Serves on an ephemeral port (the program prints the URL) until SIGTERM,
then writes the per-span aggregates and counters as JSON to
``--trace-out`` and every span to ``--span-file``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import tracing


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", required=True)
    parser.add_argument("--trace-out", required=True)
    parser.add_argument("--span-file", required=True)
    parser.add_argument("--run-id", required=True)
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args()

    from repro.service import ServiceSettings, serve

    log = tracing.SpanLog(args.run_id)
    tracing.install_wrappers(log)
    code = serve(ServiceSettings(port=0, store_path=args.store, workers=args.workers))
    log.uninstall()
    out = {"trace": log.aggregate(), "counts": dict(log.counts), "missing": log.missing}
    tmp = f"{args.trace_out}.tmp"
    with open(tmp, "w") as fh:
        json.dump(out, fh)
    os.replace(tmp, args.trace_out)
    log.dump(args.span_file)
    return code


if __name__ == "__main__":
    sys.exit(main())
