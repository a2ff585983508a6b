"""Fresh-interpreter probes, run as child processes by run.py.

    probe.py setup <workload> <seed> <workdir>   run the workload's set-up,
                                                  then print "ready"
    probe.py import [<module> ... --] <module> ...
                                                  import the modules before
                                                  "--" untimed, then print the
                                                  seconds the others took

The parent runs it with PYTHONPATH pointing at the checkout's src/.
"""

import sys
import time


def main(argv):
    if argv[0] == "setup":
        import random

        from setups import SETUPS

        workload, seed, workdir = argv[1], int(argv[2]), argv[3]
        SETUPS[workload](workdir, random.Random(f"perfbench:{workload}:{seed}:setup"))
        print("ready", flush=True)
        return 0
    if argv[0] == "import":
        import importlib

        names = argv[1:]
        cut = names.index("--") + 1 if "--" in names else 0
        for name in names[: max(cut - 1, 0)]:
            importlib.import_module(name)
        started = time.perf_counter()
        for name in names[cut:]:
            importlib.import_module(name)
        print(repr(time.perf_counter() - started), flush=True)
        return 0
    print(f"unknown probe {argv[0]!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
