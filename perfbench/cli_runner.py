"""Child process for a traced CLI op.

    python3 perfbench/cli_runner.py SPANS_JSON <nfbist arguments...>

Times `import nfbist.cli`, installs the benchmark's span wrappers, calls
nfbist.cli.main with the remaining arguments, writes the spans to
SPANS_JSON and exits with main's exit code. PYTHONPATH must name ./src.
"""

import importlib
import json
import sys

from tracing import IMPORT_SPAN, Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    try:
        cli = tracer.call(IMPORT_SPAN, importlib.import_module, "nfbist.cli")
        tracer.install()
        return tracer.call("cli.main", cli.main, argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.records(), fh)


if __name__ == "__main__":
    sys.exit(main())
