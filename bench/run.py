"""The benchmark's one command.

    python3 bench/run.py --seed 0                         # every workload, end to end
    python3 bench/run.py --seed 0 --trace 1               # every workload, per layer
    python3 bench/run.py --workload airfoil_small --seed 3 --seconds 20 --trace 0

Each workload runs in a fresh subprocess (``worker.py``) with
``PYTHONHASHSEED`` pinned to the seed and a hard timeout; afterwards the
driver checks that no shared-memory segment and no child process survived.  A
timeout, a crash or a leak fails every operation of that workload.  Metrics
print as ``workload metric value unit n``; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit status is non-zero when any check failed.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

sys.path.insert(0, str(BENCH_DIR))
from common import (  # noqa: E402
    E2E_NAMES, NOMINAL_SECONDS, PER_LAYER_NAMES, SCALES, WORKLOAD_NAMES,
    shm_segments, workload_config,
)

#: hard limit of one workload's subprocess, seconds (a run must end within 180)
TIMEOUT_S = 160.0
#: how long the worker's helper processes get to exit after it, seconds
EXIT_GRACE_S = 5.0
SCHEMA = 1


# ---------------------------------------------------------------------------
# Leak checks
# ---------------------------------------------------------------------------
def group_members(pgid: int) -> list[int]:
    """Live processes of process group ``pgid`` (zombies excluded)."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue
        # pid (comm) state ppid pgrp ...; comm may contain spaces
        fields = stat.rsplit(")", 1)[1].split()
        if fields[0] != "Z" and int(fields[2]) == pgid:
            members.append(int(entry))
    return members


def kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    deadline = time.monotonic() + 10.0
    while group_members(pgid) and time.monotonic() < deadline:
        time.sleep(0.05)


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------
def run_workload(
    name: str, *, seed: int, seconds: float, trace: bool, scale: str, out_dir: Path,
) -> dict:
    """Run ``name`` in a subprocess; returns its record (always with
    ``correct``/``ops_attempted``/``ops_failed``)."""
    conf = workload_config(name, scale, seconds)
    out_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{name}-{'trace' if trace else 'e2e'}-{os.getpid()}"
    record_path = out_dir / f"record-{tag}.json"
    job = {
        "config": conf, "seed": seed, "trace": trace,
        "record_path": str(record_path),
        "trace_path": str(out_dir / f"trace-{name}.json"),
    }
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(BENCH_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    shm_before = set(shm_segments())
    problems: list[str] = []
    started = time.monotonic()
    child = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(job)],
        env=env, cwd=str(ROOT), start_new_session=True, stdout=sys.stderr,
    )
    try:
        status = child.wait(timeout=TIMEOUT_S)
        if status != 0:
            problems.append(f"worker exited with status {status}")
    except subprocess.TimeoutExpired:
        problems.append(f"timed out after {TIMEOUT_S:.0f}s")
    survivors = group_members(child.pid)
    if child.poll() is not None:
        # multiprocessing's resource tracker exits on its own just after the
        # worker does; anything still alive after the grace period is a leak
        grace = time.monotonic() + EXIT_GRACE_S
        while survivors and time.monotonic() < grace:
            time.sleep(0.05)
            survivors = group_members(child.pid)
    if survivors:
        if child.poll() is not None:
            problems.append(f"{len(survivors)} child process(es) survived: {survivors}")
        kill_group(child.pid)
    child.wait()
    leaked = set(shm_segments()) - shm_before
    if leaked:
        problems.append(f"{len(leaked)} shared-memory segment(s) leaked")
        for entry in leaked:
            try:
                os.unlink(os.path.join("/dev/shm", entry))
            except OSError:
                pass

    record: dict[str, Any] = {"config": conf, "metrics": {}, "notes": []}
    if record_path.exists():
        try:
            record = json.loads(record_path.read_text())
        except ValueError:
            problems.append("worker record is not valid JSON")
        record_path.unlink()
    elif not problems:
        problems.append("worker wrote no record")
    record["driver_wall_s"] = time.monotonic() - started
    record["notes"] = list(record.get("notes", [])) + problems
    attempted = max(1, int(record.get("ops_attempted", 0)))
    failed = int(record.get("ops_failed", 0))
    if problems:  # a timeout, crash or leak fails every operation
        failed = attempted
    record["ops_attempted"], record["ops_failed"] = attempted, failed
    expected = PER_LAYER_NAMES if trace else E2E_NAMES
    complete = all(n in record["metrics"] for n in expected)
    record["correct"] = not problems and failed == 0 and complete
    return record


# ---------------------------------------------------------------------------
# Metadata
# ---------------------------------------------------------------------------
def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def src_line_count() -> int:
    total = 0
    for path in SRC.rglob("*.py"):
        with open(path, "rb") as handle:
            total += sum(1 for _ in handle)
    return total


def metadata(records: dict[str, dict]) -> dict:
    first = next(iter(records.values()), {})
    numba = importlib.util.find_spec("numba") is not None
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "workers": {name: rec["config"]["workers"] for name, rec in records.items()},
        "python": platform.python_version(),
        "numba": numba,
        # an emitted slab module jits with numba when it imports, else runs as NumPy
        "slab_backend": "numba" if numba else "numpy",
        "start_method": first.get("start_method", "unknown"),
        "src_lines": src_line_count(),
    }


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------
def parse_args(argv: Optional[list[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, help="run one workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(NOMINAL_SECONDS),
                        help="seconds of steady measurement the counts are sized for")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: the traced pass, printing the per-layer metrics")
    parser.add_argument("--scale", choices=SCALES, default="full")
    parser.add_argument("--repeat", type=int, default=1, help="run the whole set N times")
    parser.add_argument("--out", type=Path, help="write the JSON record here")
    parser.add_argument("--out-dir", type=Path, default=BENCH_DIR / "out",
                        help="where trace files go")
    return parser.parse_args(argv)


def main(argv: Optional[list[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"bench: the program under test is missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    runs = []
    for _ in range(max(1, args.repeat)):
        records = {
            name: run_workload(
                name, seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
                scale=args.scale, out_dir=args.out_dir,
            )
            for name in names
        }
        runs.append(records)
        for name, record in records.items():
            for metric, entry in record["metrics"].items():
                print(f"{name} {metric} {entry['value']:.6g} {entry['unit']} {entry['n']}")
            print(f"{name} ops_attempted {record['ops_attempted']} count 1")
            print(f"{name} ops_failed {record['ops_failed']} count 1")
            for note in record["notes"]:
                print(f"{name} note: {note}", file=sys.stderr)

    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({
            "schema": SCHEMA, "seed": args.seed, "seconds": args.seconds,
            "trace": bool(args.trace), "scale": args.scale,
            "meta": metadata(runs[-1]),
            "runs": [{"workloads": records} for records in runs],
        }, indent=1))

    last = runs[-1]
    prefix = len(names) > 1
    summary = {
        "correct": all(r["correct"] for records in runs for r in records.values()),
        "attempted": sum(r["ops_attempted"] for r in last.values()),
        "failed": sum(r["ops_failed"] for r in last.values()),
        "metrics": {
            (f"{name}:{metric}" if prefix else metric): {
                "value": entry["value"], "unit": entry["unit"],
            }
            for name, record in last.items()
            for metric, entry in record["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
