"""Run one ``scorerisk`` command with the layer tracer installed.

Usage: ``python3 bench/cli_traced.py <trace.json> <memory 0|1> <scorerisk arguments...>``

The command's stdout and exit code are those of ``scorerisk``; the layer
summary and the spans go to ``<trace.json>``. With memory 1, tracemalloc
runs too and the summary holds per-call peaks.
"""

import json
import sys

import tracing


def main() -> int:
    out_path, memory, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    from scorerisk import cli

    tracer = tracing.Tracer(track_memory=memory)
    tracer.install()
    tracer.op = 0
    tracer.active = True
    try:
        code = cli.run(argv)
    finally:
        tracer.active = False
        tracer.uninstall()
        spans = {k: (v.tolist() if hasattr(v, "tolist") else v)
                 for k, v in tracer.spans().items()}
        with open(out_path, "w") as handle:
            json.dump({"summary": tracer.summary(), "spans": spans}, handle)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
