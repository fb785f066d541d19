"""Benchmark entry point: one run of one workload.

    python3 bench/run.py --workload qa-scan --seed 1 --seconds 20 --trace 0

Generates the workload's inputs from the seed, then starts measure.py in a
fresh interpreter on the package under ./src, so that neither the generator
nor the benchmark's checks count in the program's peak memory. Prints
what measure.py prints; its last line is the result as one JSON object.
Exits 2 without a result when ./src/derivqa is missing.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None):
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "derivqa" / "__init__.py").is_file():
        print(f"no derivqa package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workdir = HERE / "work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    try:
        gen.generate(args.workload, args.seed, workdir)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
        command = [sys.executable, str(HERE / "measure.py"), "--workdir", str(workdir),
                   "--workload", args.workload, "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        # Its own process group, so that a timeout also stops the CLI call
        # it may be waiting for.
        proc = subprocess.Popen(command, env=env, stdout=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=170)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            print("measure.py ran out of time", file=sys.stderr)
            return 3
        sys.stdout.write(out)
        return proc.returncode
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
