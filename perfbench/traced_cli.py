"""Run one oamring CLI command with the layer hooks installed.

    python perfbench/traced_cli.py SPANS_JSON [oamring arguments ...]

Behaves like ``python -m oamring`` (same output, same exit code) and writes
the spans of the run to SPANS_JSON, for the traced pass of the cold-process
workload.
"""

import sys

from tracer import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer.span("cli.import"):
        import oamring.cli
    tracer.install()
    try:
        return oamring.cli.main(argv)
    finally:
        tracer.restore()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
