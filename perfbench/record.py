"""Write expected.json: the gated verdicts of every certify and hjb input.

    python3 perfbench/record.py

For each size and each instance, pool variant (and, for certify, zeta kind),
solves once and stores the verdict tuple of each check: for certify one per
check in CERTIFY_CHECKS order, for hjb the one of check_hamiltonian_monge.
The hjb instance excused in SIZES is left out: it raises today.  The gates
compare every output against this record, so re-record only when a change is
meant to alter a verdict, and say so where the change is logged.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import eikograph as ek  # noqa: E402
from workloads import (  # noqa: E402
    CERTIFY_CHECKS,
    CERTIFY_POOL,
    EXPECTED,
    HJB_POOL,
    SIZES,
    certify_inputs,
    certify_key,
    hamiltonian,
    hjb_key,
    hjb_zeta,
    instance_label,
    verdict,
)


def record_certify(size: str) -> dict:
    out = {}
    for j, (name, params) in enumerate(SIZES[size]["certify"]):
        g = ek.fixture(name, **params).graph
        for k in range(CERTIFY_POOL):
            for compatible in (True, False):
                f_vals, zeta_vals = certify_inputs(j, g, k, compatible)
                problem = ek.DirichletProblem(
                    g, ek.field_on(g, f_vals, "rhs_f"), ek.field_on(g, zeta_vals, "boundary_zeta"))
                vf = ek.solve_dirichlet(problem)
                key = certify_key(instance_label(name, params), k, compatible)
                out[key] = [verdict(run(g, problem, vf)) for _, run in CERTIFY_CHECKS]
    return out


def record_hjb(size: str) -> dict:
    out = {}
    for j, (h_name, name, params, excused) in enumerate(SIZES[size]["hjb"]):
        if excused is not None:
            continue
        g = ek.fixture(name, **params).graph
        H = hamiltonian(h_name)
        for k in range(HJB_POOL):
            zeta = ek.field_on(g, hjb_zeta(j, g, k), "boundary_zeta")
            vf, _, _ = ek.solve_general(g, H, zeta)
            out[hjb_key(instance_label(name, params), h_name, k)] = verdict(
                ek.check_hamiltonian_monge(g, vf.u, H))
    return out


def dumps(record: dict) -> str:
    """JSON with one instance variant per line."""
    blocks = []
    for workload, sizes in record.items():
        inner = []
        for size, entries in sizes.items():
            rows = ",\n".join(f"   {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(entries.items()))
            inner.append(f"  {json.dumps(size)}: {{\n{rows}\n  }}")
        blocks.append(f" {json.dumps(workload)}: {{\n" + ",\n".join(inner) + "\n }")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main() -> int:
    record = {"certify": {size: record_certify(size) for size in SIZES},
              "hjb": {size: record_hjb(size) for size in SIZES}}
    EXPECTED.write_text(dumps(record))
    entries = sum(len(v) for sizes in record.values() for v in sizes.values())
    print(f"wrote {entries} entries to {EXPECTED}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
