"""What a cold `adamsops` command spends on start-up, import and work.

Spawns fresh interpreters one at a time and prints the median over
`SPAWNS` (30) spawns of:

* `python -c pass`, the interpreter start that no change here can move;
* `import adamsops.cli`, timed inside the child with `time.perf_counter`;
* the wall time of one command of each kind that perfbench's cli-cold
  workload runs (`compute`, `eigen`, `mu --check`, `verify`).

Each figure is taken twice, interleaved: without bytecode
(`PYTHONDONTWRITEBYTECODE=1`, the library compiled from source on every
spawn, as in perfbench's children) and with bytecode (a private
`PYTHONPYCACHEPREFIX` in a temporary directory, warmed by one untimed spawn
of each command).  No child writes under the source tree: the run refuses
to start if a `__pycache__` is already there, since the figures without
bytecode would then read it, and checks that none is there at the end.

Given `--src` more than once, the trees are measured interleaved, spawn
by spawn, so that a change in the machine's load between them does not
show as a difference.

Development only, standard library only.  Run from anywhere:

    python tools/import_cost.py                              # this checkout's src/
    python tools/import_cost.py --src /old/src --src src     # two trees, interleaved
"""

from __future__ import annotations

import argparse
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

SPAWNS = 30

IMPORT = "import time; t = time.perf_counter(); import adamsops.cli; print(time.perf_counter() - t)"

COMMANDS = {
    "compute": ["compute", "--group", "Sp", "--rank", "8", "--l", "5", "--format", "json"],
    "eigen": ["eigen", "--rank", "8", "--l", "3", "--format", "csv"],
    "mu --check": ["mu", "8", "12", "3", "4", "--check"],
    "verify": ["verify", "--suite", "matrices", "--max-rank", "3", "--max-l", "3"],
}


def caches_under(src: Path) -> list[Path]:
    return sorted(src.rglob("__pycache__"))


def environment(src: Path, prefix: str | None) -> dict[str, str]:
    """The child environment: the library from `src`, and bytecode either
    off or kept under `prefix` only."""
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONPYCACHEPREFIX", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    if prefix is None:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    else:
        env["PYTHONPYCACHEPREFIX"] = prefix
    return env


def spawn(args: list[str], env: dict[str, str], cwd: str) -> tuple[float, str]:
    """Wall time in seconds of one child, and its stdout; a failing child
    stops the run."""
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, cwd=cwd, timeout=120
    )
    wall = perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(args)} exited {proc.returncode}: {proc.stderr.strip()[:300]}")
    return wall, proc.stdout


def measure(srcs: list[Path]) -> dict[Path, dict[str, dict[str, list[float]]]]:
    """Times in ms per tree, row and mode, the trees and modes interleaved
    spawn by spawn."""
    rows = ["python -c pass", "import adamsops.cli (in child)", *COMMANDS]
    times = {src: {row: {} for row in rows} for src in srcs}
    with tempfile.TemporaryDirectory() as scratch:
        envs = {}
        for i, src in enumerate(srcs):
            prefix = os.path.join(scratch, f"pycache{i}")
            envs[src] = {"without .pyc": environment(src, None), "with .pyc": environment(src, prefix)}
            for argv in COMMANDS.values():  # fill the private bytecode cache
                spawn(["-m", "adamsops", *argv], envs[src]["with .pyc"], scratch)
        for _ in range(SPAWNS):
            for src, modes in envs.items():
                for mode, env in modes.items():
                    table = times[src]
                    table["python -c pass"].setdefault(mode, []).append(
                        1e3 * spawn(["-c", "pass"], env, scratch)[0]
                    )
                    _, out = spawn(["-c", IMPORT], env, scratch)
                    table["import adamsops.cli (in child)"].setdefault(mode, []).append(1e3 * float(out))
                    for kind, argv in COMMANDS.items():
                        wall, _ = spawn(["-m", "adamsops", *argv], env, scratch)
                        table[kind].setdefault(mode, []).append(1e3 * wall)
    return times


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--src", type=Path, action="append",
        help="a directory that holds the adamsops package; repeat it to compare trees "
        "(default: this checkout's src/)",
    )
    args = parser.parse_args()
    srcs = [src.resolve() for src in args.src or [Path(__file__).resolve().parents[1] / "src"]]
    for src in srcs:
        if not (src / "adamsops" / "__init__.py").is_file():
            parser.error(f"no adamsops package under {src}")
        if caches_under(src):
            parser.error(f"remove the bytecode caches first: {', '.join(map(str, caches_under(src)))}")
    try:
        times = measure(srcs)
    finally:
        left = [cache for src in srcs for cache in caches_under(src)]
        if left:
            print(f"error: bytecode caches left: {', '.join(map(str, left))}", file=sys.stderr)
    if left:
        return 1
    print(
        f"median of {SPAWNS} sequential spawns, ms; "
        f"Python {platform.python_version()} on {platform.machine()}, {os.cpu_count()} CPUs"
    )
    for src, table in times.items():
        print(f"\n{src}")
        modes = list(next(iter(table.values())))
        width = max(map(len, table))
        print(" " * width + "".join(f"{mode:>15}" for mode in modes))
        for row, by_mode in table.items():
            cells = "".join(f"{statistics.median(by_mode[mode]):15.1f}" for mode in modes)
            print(f"{row:<{width}}{cells}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
