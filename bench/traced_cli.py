"""Run the lmglab CLI with every layer boundary traced.

Usage: python3 bench/traced_cli.py TRACE_DIR CLI_ARG...

The spans go to TRACE_DIR/spans-<pid>.jsonl; the exit code is the CLI's.
"""

import sys

from tracing import Tracer, install


def main() -> int:
    tracer = Tracer(sys.argv[1])
    import lmglab.cli

    install(tracer)
    try:
        return lmglab.cli.main(sys.argv[2:])
    finally:
        tracer.flush()


if __name__ == "__main__":
    sys.exit(main())
