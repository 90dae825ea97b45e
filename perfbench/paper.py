"""``paper``: the 13 Table 1 rows, cold, end to end.

One operation is one row: ``run_benchmark(spec)`` with its defaults,
which parses, builds the ICFG at the row's clone level (validating the
program on the way), runs the ICFG-arm activity, matches and adds the
COMM edges, and runs the MPI-ICFG-arm activity -- the row ``repro
table1 --no-cache`` computes.  ``render_table1`` renders each whole
pass.
"""

from __future__ import annotations

import checks
from common import Workload

import repro.experiments.table1 as table1
from repro.programs.registry import BENCHMARKS


class Paper(Workload):
    def setup(self) -> dict:
        self.published = checks.load_published()
        self.specs = list(BENCHMARKS.values())
        return {}

    def round(self) -> None:
        led = self.ledger
        rows = [led.timed(table1.run_benchmark, spec) for spec in self.specs]
        text = led.busy(table1.render_table1, rows)
        measured = {
            row.name: {
                "icfg_active_bytes": row.icfg.active_bytes,
                "mpi_active_bytes": row.mpi.active_bytes,
                "icfg_deriv_bytes": row.icfg.deriv_bytes,
                "mpi_deriv_bytes": row.mpi.deriv_bytes,
            }
            for row in rows
        }
        errors = []
        for name, got in measured.items():
            if not self.published[name]["noted"]:
                errors += checks.table1_exact(name, got, self.published[name])
        noted = [n for n, p in self.published.items() if p["noted"]]
        errors += checks.table1_shape(measured, noted)
        errors += [] if all(row.name in text for row in rows) else ["render_table1 lost a row"]
        for error in errors:
            led.check(False, error)
