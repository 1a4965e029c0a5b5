"""Capture reference.json: one summary per task of every workload.

    python3 perfbench/capture_reference.py

Run it on a commit whose outputs are trusted; the benchmark then requires
every later run to reproduce these summaries (discrete values exactly,
floats to workloads.REL_TOL).  Each task runs twice here, and a task whose
two summaries differ stops the capture.  Takes about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import benchenv  # pins the BLAS thread count; must precede numpy
import run
import workloads
from spans import Recorder, instrument


def main() -> int:
    try:
        pb = run.import_prbench()
    except run.BenchmarkError as exc:
        print(f"capture_reference: {exc}", file=sys.stderr)
        return 2
    recorder = Recorder()
    instrument(recorder)
    captured = {}
    os.makedirs(run.WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="capture-", dir=run.WORK_ROOT)
    try:
        for workload in workloads.WORKLOADS:
            inputs = workloads.build_inputs(workload, workdir)
            captured[workload] = {}
            for task in inputs.tasks:
                first, second = (
                    workloads.run_task(task, recorder, pb.cli.main, pb.cdp.fft_call_count)
                    for _ in range(2))
                if workloads.mismatches(first.summary, second.summary):
                    print(f"capture_reference: {workload} task {task.id} is not "
                          f"deterministic: {first.summary} vs {second.summary}",
                          file=sys.stderr)
                    return 1
                captured[workload][task.id] = first.summary
                print(f"{workload} {task.id}: {first.summary}")
    finally:
        recorder.restore()
        shutil.rmtree(workdir, ignore_errors=True)
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"env": benchenv.describe(), "workloads": captured}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
