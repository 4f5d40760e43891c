"""Run the twogen CLI from the source tree, as the `twogen` console script would.

usage: launch.py [--trace SPANS_JSON ITEM] -- TWOGEN_ARGS...

With --trace, the layer wrappers are installed before `twogen.cli.main`
runs, and the spans are written to SPANS_JSON when it returns.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))


def main(argv: list[str]) -> int:
    split = argv.index("--")
    options, args = argv[:split], argv[split + 1 :]
    import twogen.cli

    if not options:
        return twogen.cli.main(args)
    if len(options) != 3 or options[0] != "--trace":
        raise SystemExit("usage: launch.py [--trace SPANS_JSON ITEM] -- TWOGEN_ARGS...")
    import tracing

    tracer = tracing.Tracer()
    tracer.item = options[2]
    tracing.install(tracer)
    try:
        return twogen.cli.main(args)
    finally:
        tracing.write(options[1], tracer.spans, tracer.counters)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
