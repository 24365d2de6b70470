"""One benchmark process: set up a workload, repeat its operation until the
time is spent, check every output, and print one JSON line.

    python3 bench/worker.py --workload W --seed S --seconds T --trace 0|1 \
        --out DIR [--probe]

``bench/run.py`` starts this in a fresh single-threaded process; with
``--probe`` it only sets up and reports when set-up returned.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

from spans import (Patches, SpanRecorder, library_hooks, op_layer_values,
                   per_layer_specs, totals)
from workloads import (CHECK_IDS, DEFAULT_SEED, WORKLOADS, ChecksWorkload,
                       scenario_file)

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_RTOL = 1e-9        # of each column's max |value|
MIN_OPS = {0: 3, 1: 4}       # see operation_plan


@dataclass
class Op:
    seed: int
    traced: bool
    s: float = 0.0
    failures: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# Set-up and the operation, as `infoflow run` and `infoflow check` do them
# ---------------------------------------------------------------------------

def setup(workload, out: Path, seed: int):
    """Import the program; for an ensemble workload also load the scenario
    and compute its steady state.  Returns (scenario, rho_ss) or None."""
    import infoflow.cli  # noqa: F401  (what the `infoflow` command imports)
    if isinstance(workload, ChecksWorkload):
        return None
    from infoflow import config, grid
    scenario = config.load_scenario(scenario_file(out, seed))
    return scenario, grid.steady_state_grid(scenario.model, scenario.grid)


def ensemble_op(scenario, rho_ss):
    """The calls `infoflow run` makes after set-up, in the same order."""
    from infoflow import __version__, control, report
    start = time.time()
    controlled, run = control.run_controlled_experiment(
        scenario.model, scenario.grid, scenario.ens, scenario.policy,
        rho_ss=rho_ss, prior=scenario.prior_mode, d_form=scenario.d_form)
    ledger = controlled.ledger
    outdir = Path(scenario.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    ledger.to_csv(outdir / "ledger.csv")
    report.write_run_report(outdir / "report.json", __version__, scenario.name,
                            scenario.raw_text, ledger, time.time() - start)
    return controlled, run


def checks_op(workload):
    from infoflow import checks
    return [res for suite in workload.suites
            for res in checks.run_suite(suite, seed=checks.DEFAULT_SEED)]


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def load_reference(name: str):
    path = REFERENCE_DIR / f"{name}.json"
    return json.loads(path.read_text())["columns"]


def ensemble_failures(workload, controlled, run, csv_bytes, reference,
                      first_bytes) -> list:
    """Why one ensemble operation failed; empty when it did not."""
    import numpy as np
    ledger = controlled.ledger
    out = []
    if not ledger.all_finite():
        out.append("a ledger column is non-finite")
    invariants = ledger.invariant_report()
    if not invariants["all_pass"]:
        out.append("invariants violated: " + ", ".join(
            k for k, ok in invariants.items() if not ok and k != "all_pass"))
    got = {"N": run.states.shape[1], "S": run.states.shape[0],
           "K": int(round(float(run.times[-1]) / run.config.dt)),
           "M": run.prior_fp.shape[1], "ledger_rows": len(ledger.times)}
    want = {"N": workload.n_trajectories, "S": workload.n_samples,
            "K": workload.n_steps, "M": workload.n_cells,
            "ledger_rows": workload.n_samples}
    if got != want:
        out.append(f"work done {got} differs from the workload {want}")
    if reference is not None:
        for name, ref in reference.items():
            ref = np.asarray(ref, dtype=float)
            col = np.asarray(ledger.column(name), dtype=float)
            tol = REFERENCE_RTOL * float(np.max(np.abs(ref)))
            if col.shape != ref.shape or not np.all(np.abs(col - ref) <= tol):
                out.append(f"ledger column {name} differs from the reference")
    if first_bytes is not None and csv_bytes != first_bytes:
        out.append("ledger.csv bytes differ from an earlier run of this seed")
    return out


def check_signature(results) -> list:
    return [(r.name, r.passed, repr(r.measured), r.detail) for r in results]


def checks_failures(results, first_signature) -> list:
    out = []
    ids = tuple(r.name.replace(" ", "_") for r in results)
    if ids != CHECK_IDS:
        out.append(f"criteria {ids} differ from the workload {CHECK_IDS}")
    failed = [r.name for r in results if not r.passed]
    if failed:
        out.append("criteria failed: " + ", ".join(failed))
    if first_signature is not None and check_signature(results) != first_signature:
        out.append("criterion results differ from an earlier run")
    return out


# ---------------------------------------------------------------------------
# The timed loop
# ---------------------------------------------------------------------------

def operation_plan(workload, seed: int, trace: int):
    """(seed, traced) of each operation, without end.

    An ensemble run starts with one untraced operation at the default seed,
    whose ledger is compared with the recorded reference; the rest use the
    run's seed so that repeats can be compared byte for byte.  A traced run
    alternates traced and untraced operations to measure the overhead.
    The check suites always run at the program's default seed.
    """
    if not isinstance(workload, ChecksWorkload):
        yield DEFAULT_SEED, False
    traced = bool(trace)
    while True:
        yield seed, traced
        if trace:
            traced = not traced


def measure(run_op, plan, seconds: float, min_ops: int,
            clock=time.perf_counter) -> list:
    """Run operations from ``plan`` while the next one is expected to end
    within ``seconds``, and at least ``min_ops`` of them."""
    start = clock()
    ops = []
    for seed, traced in plan:
        if len(ops) >= min_ops:
            alike = [op.s for op in ops if op.traced == traced] or [ops[-1].s]
            if clock() - start + alike[-1] > seconds:
                break
        ops.append(run_op(seed, traced))
    return ops


def tally(ops) -> tuple:
    """(attempted, failed) operations."""
    return len(ops), sum(1 for op in ops if op.failures)


def aggregate_layers(per_op: list, ops: list, unmeasured: set) -> dict:
    """Median over traced operations of each per-layer metric; counts must
    repeat exactly.  Metrics of an unmeasured layer are None."""
    traced = [op for op in ops if op.traced]
    plain = [op.s for op in ops if not op.traced]
    out = {}
    for name, unit, layer in per_layer_specs(CHECK_IDS):
        if layer in unmeasured or not per_op:
            out[name] = None
        elif name == "trace.overhead_frac":
            out[name] = (statistics.median(op.s for op in traced)
                         / statistics.median(plain) - 1.0)
        else:
            values = [row[name] for row in per_op]
            if unit not in ("count", "bytes"):
                out[name] = statistics.median(values)
                continue
            if len(set(values)) > 1:
                for op in traced[1:]:
                    op.failures.append(f"{name} does not repeat: {values}")
            out[name] = values[0]
    return out


def versions() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    ensemble = not isinstance(workload, ChecksWorkload)

    recorder = SpanRecorder()
    hooks = library_hooks(getattr(workload, "checks", ()))
    setup_patches = None
    if args.trace:
        import infoflow.cli  # noqa: F401  (the hooks need the modules loaded)
        recorder.op = -1
        setup_patches = Patches(recorder)
        setup_patches.install(hooks)
    state = setup(workload, args.out, args.seed)
    setup_done = time.monotonic()
    if setup_patches is not None:
        setup_patches.restore()
    if args.probe:
        print(json.dumps({"setup_done": setup_done}))
        return 0

    scenarios, rho_ss, reference = {}, None, None
    if ensemble:
        from infoflow import config
        (scenarios[args.seed], rho_ss) = state
        scenarios.setdefault(DEFAULT_SEED, config.load_scenario(
            scenario_file(args.out, DEFAULT_SEED)))
        reference = load_reference(workload.name)
    first: dict = {}          # seed -> ledger bytes or criterion signature
    traced_rows: list = []    # (per-layer values, self time by span name)
    unmeasured: set = set()
    setup_spans = list(recorder.spans)

    def run_op(seed: int, traced: bool) -> Op:
        op = Op(seed, traced)
        patches = None
        if traced:
            recorder.op += 1
            patches = Patches(recorder)
            patches.install(hooks)
            if ensemble:
                scenario = scenarios[seed]
                patches.wrap_attr("models.drift", scenario.model, "drift")
                if scenario.policy is not None:
                    patches.wrap_attr("control.policy", scenario.policy, "fn")
            unmeasured.update(patches.unmeasured)
        start = time.perf_counter()
        try:
            result = (ensemble_op(scenarios[seed], rho_ss) if ensemble
                      else checks_op(workload))
        except Exception as exc:  # a failed operation is counted, not fatal
            traceback.print_exc()
            op.failures.append(f"raised {type(exc).__name__}: {exc}")
            return op
        finally:
            op.s = time.perf_counter() - start
            if patches is not None:
                patches.restore()
        if ensemble:
            controlled, run = result
            csv_bytes = (Path(scenarios[seed].outdir) / "ledger.csv").read_bytes()
            op.failures += ensemble_failures(
                workload, controlled, run, csv_bytes,
                reference if seed == DEFAULT_SEED else None, first.get(seed))
            first.setdefault(seed, csv_bytes)
            n_samples, n_traj = run.states.shape
            outputs = {"traj_steps": n_traj * workload.n_steps,
                       "sample_trajs": n_traj * n_samples,
                       "clamp_count": controlled.clamp_count,
                       "ledger_bytes": len(csv_bytes)}
        else:
            op.failures += checks_failures(result, first.get(seed))
            first.setdefault(seed, check_signature(result))
            outputs = {"traj_steps": 0, "sample_trajs": 0, "clamp_count": 0,
                       "ledger_bytes": 0}
        if traced:
            # `infoflow run` pays set-up once per operation: count it in each.
            spans = setup_spans + [s for s in recorder.spans if s.op == recorder.op]
            traced_rows.append((op_layer_values(spans, outputs, CHECK_IDS),
                                {name: row["self_s"]
                                 for name, row in totals(spans).items()}))
        return op

    ops = measure(run_op, operation_plan(workload, args.seed, args.trace),
                  args.seconds, MIN_OPS[args.trace])
    result = {
        "setup_done": setup_done,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        * 1024 / 1e6,
        "versions": versions(),
    }
    if args.trace:
        result["layers"] = aggregate_layers([v for v, _ in traced_rows], ops,
                                            unmeasured)
        result["unmeasured"] = sorted(unmeasured)
        names = {name for _, own in traced_rows for name in own}
        result["self_s"] = {name: statistics.median(own.get(name, 0.0)
                                                    for _, own in traced_rows)
                            for name in sorted(names)}
        (args.out / "spans.json").write_text(json.dumps(
            [asdict(s) for s in recorder.spans]))
    result["attempted"], result["failed"] = tally(ops)
    result["ops"] = [asdict(op) for op in ops]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
