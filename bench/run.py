"""Benchmark of infoflow: one workload, one timed run, outputs checked.

Run from the root of a checkout (no install or build step; the program is
imported from ``src/``):

    python3 bench/run.py --workload dw_filter --seed 0 --seconds 35 --trace 0

Workloads are defined in ``bench/workloads.py``.  Load is a closed loop:
one process runs one operation at a time.  Each process is fresh and
single-threaded (OPENBLAS/OMP/MKL_NUM_THREADS=1); INFOFLOW_WORKERS is passed
through untouched and recorded.

``--trace 0`` measures, with medians over the run and sample counts:

* ``setup_s`` -- process start until set-up returned (import, plus
  ``load_scenario`` and ``steady_state_grid`` for an ensemble workload),
  over several fresh processes;
* ``run_s`` -- wall time of one operation: for an ensemble workload the
  calls `infoflow run` makes after set-up, for ``checks_exact_grid`` the
  gaussian and grid check suites;
* ``peak_rss_mb`` -- peak resident set of the measuring process.

It also prints ``traj_steps_per_s`` (N*K / run_s) and ``failed_frac``
(failed / attempted operations), which the last line carries as
``failed`` and ``attempted``.  ``--trace 1`` runs traced and untraced
operations alternately and reports the per-layer metrics of
``bench/spans.py``; end-to-end figures come only from ``--trace 0``.

An operation fails when it raises, a ledger column is non-finite, the
invariant report does not pass, a check criterion fails, the work done
(N, K, samples, cells) differs from the workload, a ledger at the default
seed differs from ``bench/reference/`` by more than 1e-9 of the column's
largest value, or a repeat of one seed writes different ``ledger.csv``
bytes (or different criterion results).

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  Machine, versions and every
operation are printed above it and kept in ``.bench_out/<workload>/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import per_layer_specs
from workloads import CHECK_IDS, DEFAULT_SEED, WORKLOADS, ChecksWorkload

BENCH = Path(__file__).resolve().parent
SETUP_PROBES = 2            # extra set-up-only processes per untraced run
DEADLINE_S = 170.0          # the whole run ends well within 180 s
THREAD_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def _read(path: Path):
    try:
        return path.read_text().strip()
    except OSError:
        return None


def machine(root: Path) -> dict:
    """Cores, CPU model, cache sizes and the program's revision."""
    model = None
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level and kind:
            suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
            caches[f"L{level}{suffix}"] = _read(index / "size")
    sha = None
    if (root / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                 capture_output=True, text=True, timeout=10,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "caches": caches, "git_sha": sha,
            "src_sha256": digest.hexdigest()[:16]}


def child(args: list, env: dict, deadline: float) -> tuple:
    """Run bench/worker.py; returns (monotonic start, its JSON line)."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a process")
    start = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py")] + args,
                              env=env, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker timed out after {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return start, json.loads(lines[-1])


def quartiles(values: list) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, q1 {q1:.4g}, q3 {q3:.4g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    root = Path.cwd()
    if not (root / "src" / "infoflow" / "__init__.py").is_file():
        print(f"error: no src/infoflow under {root}; run from the root of an "
              f"infoflow checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    out = root / ".bench_out" / workload.name
    out.mkdir(parents=True, exist_ok=True)
    if not isinstance(workload, ChecksWorkload):
        for seed in {args.seed, DEFAULT_SEED}:
            workload.write_scenario(root, out, seed)

    env = dict(os.environ, PYTHONPATH=str(root / "src"), **THREAD_PIN)
    worker_args = ["--workload", workload.name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--out", str(out)]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                start, probe = child(worker_args + ["--probe"], env, deadline)
                setups.append(probe["setup_done"] - start)
        start, result = child(worker_args, env, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(result["setup_done"] - start)

    info = {"workload": workload.name, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "machine": machine(root), "versions": result["versions"],
            "thread_pin": THREAD_PIN,
            "INFOFLOW_WORKERS": os.environ.get("INFOFLOW_WORKERS")}
    ops = result["ops"]
    attempted, failed = result["attempted"], result["failed"]
    print("env " + json.dumps(info, sort_keys=True))
    for i, op in enumerate(ops):
        print(f"op {i}: seed {op['seed']} traced {int(op['traced'])} "
              f"{op['s']:.4f} s" + "".join(f"\n  FAILED: {why}"
                                           for why in op["failures"]))

    if args.trace:
        layers = result["layers"]
        print("self time by span, median over traced operations:")
        for name, own in sorted(result["self_s"].items(), key=lambda kv: -kv[1]):
            print(f"  {name:36s} {own:10.4f} s")
        for name in result["unmeasured"]:
            print(f"unmeasured: {name} (its hook target is missing)")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit, _ in per_layer_specs(CHECK_IDS)}
    else:
        run_times = [op["s"] for op in ops]
        run_s = statistics.median(run_times)
        setup_s = statistics.median(setups)
        print(f"setup_s {setup_s:.4f} s ({quartiles(setups)})")
        print(f"run_s {run_s:.4f} s ({quartiles(run_times)})")
        if not isinstance(workload, ChecksWorkload):
            rate = workload.n_trajectories * workload.n_steps / run_s
            print(f"traj_steps_per_s {rate:.1f} 1/s "
                  f"(N={workload.n_trajectories}, K={workload.n_steps})")
        print(f"peak_rss_mb {result['peak_rss_mb']:.1f} MB")
        print(f"failed_frac {failed / attempted:.4g} ({failed}/{attempted})")
        metrics = {"setup_s": {"value": setup_s, "unit": "s"},
                   "run_s": {"value": run_s, "unit": "s"},
                   "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"}}

    summary = {"correct": failed == 0, "attempted": attempted,
               "failed": failed, "metrics": metrics}
    (out / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(info, setup_samples=setups, ops=ops, summary=summary),
                   indent=1, sort_keys=True))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
