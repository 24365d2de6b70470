"""Record the reference ledgers the benchmark compares against.

Run from the root of a checkout, only when a change to the program is meant
to move the numbers:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 bench/record_reference.py

Writes ``bench/reference/<workload>.json`` with every ledger column of each
ensemble workload at the default benchmark seed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from worker import REFERENCE_DIR, ensemble_op, setup
from workloads import DEFAULT_SEED, PROGRAM_SEED_BASE, WORKLOADS, ChecksWorkload


def main() -> int:
    from infoflow.metrics import LEDGER_COLUMNS
    root = Path.cwd()
    for workload in WORKLOADS.values():
        if isinstance(workload, ChecksWorkload):
            continue
        out = root / ".bench_out" / workload.name
        out.mkdir(parents=True, exist_ok=True)
        workload.write_scenario(root, out, DEFAULT_SEED)
        scenario, rho_ss = setup(workload, out, DEFAULT_SEED)
        controlled, _ = ensemble_op(scenario, rho_ss)
        columns = {name: controlled.ledger.column(name).tolist()
                   for name in LEDGER_COLUMNS}
        path = REFERENCE_DIR / f"{workload.name}.json"
        path.write_text(json.dumps(
            {"workload": workload.name,
             "program_seed": PROGRAM_SEED_BASE + DEFAULT_SEED,
             "columns": columns}, indent=1) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
