"""Run ``repro serve`` with the layer timers installed in the server process.

Usage: python perfbench/serve_shim.py LAYERS_OUT serve [serve flags...]

The server runs exactly as ``python -m repro.cli serve ...`` would; when it
has drained and returned, the layer snapshot is written to LAYERS_OUT as
JSON for the benchmark process to fold into its per-layer report.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from layers import Layers  # noqa: E402


def main() -> int:
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    layers = Layers()
    layers.install()
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        out.write_text(json.dumps(layers.snapshot()))


if __name__ == "__main__":
    sys.exit(main())
