"""Make one workload's inputs from its seed, in a process of its own.

    python3 bench/prepare.py <workload> <seed> <out file> [--smoke]

run.py starts this before it times the set-up.  Making some inputs calls
the program: the wide programs are validated with its suite builder.
Doing that in
run.py's process would run the set-up's own code on the same inputs
before the timed, cold set-up.  The inputs are pickled to <out file>.
"""

import pickle
import sys
from pathlib import Path

import run  # pins thread pools and puts the checkout's src/ on sys.path


def main(argv) -> int:
    name, seed, out = argv[:3]
    inputs = run.WORKLOADS[name].prepare(int(seed), "--smoke" in argv[3:])
    Path(out).write_bytes(pickle.dumps(inputs))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
