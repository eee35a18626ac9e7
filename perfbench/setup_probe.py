"""One fresh-process set-up: the workload's imports plus the warm-up compile.

Usage: python perfbench/setup_probe.py WORKLOAD

Prints ``ready`` once set up; the benchmark times spawn-to-ready.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import warmup_compile  # noqa: E402


def main() -> int:
    if sys.argv[1] == "reproduce-bench":
        import repro.experiments  # noqa: F401
    warmup_compile()
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
