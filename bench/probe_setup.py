"""Time one cold set-up of a workload in this fresh interpreter.

    python3 bench/probe_setup.py <workload> <seed>

Prints the seconds from before `import araid` until the workload's inputs
(model, beliefs, uncertainty, op seeds) are loaded. The benchmark runs
this several times per run and reports the median as `setup_s`.
"""
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    started = time.perf_counter()
    import araid.cli  # noqa: F401  (every CLI op pays for this import)
    import workloads
    workloads.WORKLOADS[name](seed)
    print(repr(time.perf_counter() - started))


if __name__ == "__main__":
    main()
