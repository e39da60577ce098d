"""Run one polymod CLI invocation under the benchmark's tracer.

Usage: python cli_child.py <spans|count> <polymod CLI arguments...>

The CLI's own output goes to stdout unchanged; the tracer's export is
written as the last line of stderr for the parent to merge.
"""

import json
import sys

import tracing


def main() -> int:
    mode, argv = sys.argv[1], sys.argv[2:]
    import polymod.cli

    tracer = tracing.Tracer(counting=(mode == "count"))
    tracer.install()
    try:
        code = polymod.cli.run(argv)
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    sys.stderr.write(json.dumps(tracer.export()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
