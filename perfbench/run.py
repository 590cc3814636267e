#!/usr/bin/env python3
"""The repository benchmark: one command, two workloads.

    python3 perfbench/run.py --workload openloop|explore \\
        [--seed N] [--seconds S] [--trace 0|1]

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the same call with span wrappers installed and reports
the per-layer metrics.  Either way every correctness check runs outside
the timed region; the command prints every metric by name with its unit,
then one JSON object as its last line, and exits nonzero if a check
failed.  See ``perfbench/README.md`` for the workloads and metrics.

Each measurement runs in a fresh interpreter (``perfbench/worker.py``)
with inherited ``REPRO_*`` settings removed, importing ``repro`` from
this checkout's ``src``.  Scratch files live under ``.perfbench_tmp/``
in the checkout and are removed before exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.metrics import END_TO_END, PER_LAYER  # noqa: E402

WORKLOADS = ("openloop", "explore")
#: Fresh interpreters timed for ``setup_s`` before the measurement and
#: again after it, following one untimed warm-up (which also compiles the
#: bytecode a user compiles once).  The measurement adds its own probes
#: between cold calls.
SETUP_PROBES = (3, 3)
#: Every run ends well within three minutes.
DEADLINE_S = 170.0
SCRATCH = ".perfbench_tmp"


class ChildFailed(RuntimeError):
    """A measurement process exited nonzero or ran out of time."""


def child_env() -> dict:
    """The environment without inherited ``REPRO_*`` knobs, importing
    ``repro`` from this checkout only."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(args: list, env: dict, timeout: float) -> dict:
    """Run ``perfbench.worker`` in its own process group; return the JSON
    object on its last output line.  On timeout the whole group is
    killed."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "perfbench.worker", *args], cwd=ROOT,
        env=env, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"worker {args[0]} timed out") from None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)    # stray grandchildren
        except ProcessLookupError:
            pass
        proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"worker {args[0]} exited {proc.returncode}")
    return json.loads(lines[-1])


def git_provenance() -> dict:
    """Commit and dirty flag when the checkout is a git work tree."""
    if not (ROOT / ".git").exists():
        return {"git_sha": "unknown", "git_dirty": None}
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*cmd: str) -> str:
        return subprocess.run(["git", "-C", str(ROOT), *cmd], env=env,
                              capture_output=True, text=True,
                              timeout=30).stdout.strip()
    try:
        return {"git_sha": git("rev-parse", "HEAD") or "unknown",
                "git_dirty": bool(git("status", "--porcelain"))}
    except (OSError, subprocess.TimeoutExpired):
        return {"git_sha": "unknown", "git_dirty": None}


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Repository benchmark (see perfbench/README.md).")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: 7 openloop, "
                             "11 explore)")
    parser.add_argument("--seconds", type=float, default=55.0,
                        help="time budget of the measured calls")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    # A terminated run still stops its worker (``run_child``'s cleanup).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    env = child_env()
    started = time.monotonic()
    scratch = ROOT / SCRATCH
    workdir = scratch / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    def remaining() -> float:
        return DEADLINE_S - (time.monotonic() - started)

    common = ["--workload", args.workload, "--workdir", str(workdir)]
    if args.seed is not None:
        common += ["--seed", str(args.seed)]
    def probes(count: int) -> list:
        return [run_child(["setup", *common], env, remaining())["setup_s"]
                for _ in range(count)]

    try:
        setup_samples = []
        if args.trace == 0:
            before, after = SETUP_PROBES
            setup_samples = probes(1 + before)[1:]
            mode = "measure"
        else:
            mode = "trace"
        result = run_child([mode, *common, "--seconds", str(args.seconds)],
                           env, remaining())
        if args.trace == 0:
            setup_samples += result.pop("setup_samples") + probes(after)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass                # another run still uses it

    values = result["metrics"]
    if args.trace == 0:
        values["setup_s"] = statistics.median(setup_samples)
        specs = [(name, unit) for name, unit, _ in END_TO_END]
    else:
        specs = [(name, unit) for name, unit, _ in PER_LAYER]
    checks = result["checks"]
    failed = [(name, why) for name, why in checks if why is not None]
    attempted = result["tasks"] + len(checks)
    provenance = {
        "workload": args.workload, "seed": result["seed"],
        "trace": args.trace, "stepper_backend": result["backend"],
        **git_provenance(), "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "samples": result["samples"], "setup_probes": len(setup_samples),
    }

    print(f"perfbench {json.dumps(provenance, sort_keys=True)}")
    for name, unit in specs:
        print(f"  {name:34s} {_fmt(values[name]):>16s} {unit}")
    print(f"  {'error_rate':34s} {_fmt(len(failed) / attempted):>16s} "
          f"fraction ({len(failed)} of {attempted} operations failed)")
    print(f"  sim.digest sha256 {result['digest']}  "
          f"(IPC figures unvalidated: no measured reference)")
    print("  sim " + json.dumps(result["sim"], sort_keys=True))
    for name, why in failed:
        print(f"  FAILED {name}: {why}")
    print(json.dumps({
        "correct": not failed, "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in specs},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
