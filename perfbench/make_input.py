"""Set-up for one benchmark run: import growthfit, generate a workload's input and write it.

    python3 perfbench/make_input.py --workload fit-grid --seed 1 --scale 1.0 --out input.tsv

``run.py`` times this script as a whole, in a fresh process per repeat, so
``setup_s`` includes the package import.
"""

from __future__ import annotations

import argparse
import sys

import env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    env.pin_threads()
    env.import_growthfit()
    import workloads

    workloads.WORKLOADS[args.workload].make_input(args.seed, args.scale, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
