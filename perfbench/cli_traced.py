"""Run one ``repro`` CLI command with the layer tracer installed.

Usage: ``python perfbench/cli_traced.py SPANS.json REPRO-ARGS...``

Behaves like ``python -m repro REPRO-ARGS...`` (same exit code and
output) and writes the tracer's spans, totals and counts to SPANS.json.
The import of ``repro.cli`` is the ``import`` span. Installing the
tracer afterwards is the ``trace.install`` span: it patches the modules
``repro.cli`` has loaded and hooks the others, which the CLI imports
lazily inside the spans of its calls. The CLI's workspace load and save
are wrapped where ``repro.cli`` looks them up.
"""

import json
import sys
from pathlib import Path


def main() -> int:
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    from perfbench.tracer import Tracer

    tracer = Tracer()
    with tracer.span("import"):
        import repro.cli
    with tracer.span("trace.install"):
        from perfbench import layers

        layers.install(tracer, cli=True)
    try:
        return repro.cli.main(argv)
    finally:
        out.write_text(json.dumps(tracer.snapshot()))


if __name__ == "__main__":
    sys.exit(main())
