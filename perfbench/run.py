"""crosspeaks benchmark: one workload per invocation.

    python3 perfbench/run.py --workload {construct,game,probe,cli} \
        --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; the package is taken
from its src/ directory.  Every worker is a fresh interpreter with BLAS and
OpenMP pinned to one thread.  With --trace 0 the end-to-end metrics listed
in BENCHMARK.json are measured, in host-normalised seconds (see worker.py);
setup_s is the median over several fresh set-ups.  With --trace 1 a
separate traced run gives the per-layer metrics.
The last stdout line is the JSON result; the line before it is a report with
the workload's own figures and the environment.  Outputs that are not
correct are counted in "failed"; the exit code is 0 once a result printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("construct", "game", "probe", "cli")
SETUP_SAMPLES = 3          # fresh set-ups per run, besides the measuring worker
WORKER_TIMEOUT_S = 160


class BenchError(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def run_worker(args, mode: str, out_dir: Path, env: dict) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--mode", mode, "--out", str(out_dir), "--t0"]
    t0 = time.monotonic()
    proc = subprocess.Popen([*cmd, repr(t0)], cwd=ROOT, env=env, text=True,
                            stdout=subprocess.PIPE, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{mode} worker ran over {WORKER_TIMEOUT_S} s")
    finally:
        # the cli worker's own children share its process group
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except OSError:
            pass
    if proc.returncode != 0 or not stdout.strip():
        raise BenchError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def environment(seed: int) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "git_commit": commit, "source_sha256": digest.hexdigest(), "seed": seed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "crosspeaks" / "__init__.py").is_file():
        print(f"perfbench: no crosspeaks package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out_dir = (ROOT / ".perfbench_out"
               / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    out_dir.mkdir(parents=True, exist_ok=True)
    env = worker_env()
    try:
        # byte-compile first, so no set-up sample pays for it
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                       cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL,
                       timeout=WORKER_TIMEOUT_S)
        setups = [] if args.trace else [run_worker(args, "setup", out_dir, env)
                                        for _ in range(SETUP_SAMPLES)]
        result = run_worker(args, "run", out_dir, env)
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    values = result["metrics"]
    if not args.trace:
        setups.append(result)
        values["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    listed = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        print(f"perfbench: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    report = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "fail_frac": result["failed"] / result["attempted"],
              "setup_samples_s": [s["setup_s"] for s in setups],
              "raw_setup_samples_s": [s["raw_setup_s"] for s in setups],
              **result["report"],
              "environment": environment(args.seed)}
    final = {"correct": result["failed"] == 0, "attempted": result["attempted"],
             "failed": result["failed"], "metrics": metrics}
    (out_dir / "result.json").write_text(json.dumps({"report": report, **final}, indent=1))
    print("report " + json.dumps(report))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
