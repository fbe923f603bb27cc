"""Write reference.json from one seed-0 pass of every workload.

    python3 perfbench/make_reference.py

Run it from the root of a djcm checkout whose outputs are known to be
right (the acceptance suite passes). A change that alters emitted values
on purpose regenerates the file and says why.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run


def main() -> int:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    ref = {"presets": {}, "outputs": {}, "first_revival": None}
    for workload in run.WORKLOADS:
        work = os.path.join(os.getcwd(), ".perfbench", f"reference-{workload}")
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        plan = run.build_plan(workload, 0, work)
        plan["record"] = True
        run._write_json(os.path.join(work, "plan.json"), plan)
        result = run.spawn(work, False, True)[2]
        shutil.rmtree(work)
        for op, outcome in zip(plan["ops"], result["ops"]):
            if outcome["error"]:
                raise SystemExit(f"{op['id']}: {outcome['error']}")
            facts = outcome["facts"]
            if "sha256" in facts:
                ref["outputs"][op["id"]] = facts["sha256"]
            if op["kind"] == "sweep":
                ref["presets"][op["preset"]] = {
                    key: facts[key] for key in ("n_cut", "active", "samples")
                }
            elif op["kind"] == "suite":
                ref["presets"][op["preset"]]["window"] = op["window"]
            elif op["check"] == "revivals":
                ref["first_revival"] = facts["first_revival"]
    run._write_json(run.REFERENCE, ref)
    return 0


if __name__ == "__main__":
    sys.exit(main())
