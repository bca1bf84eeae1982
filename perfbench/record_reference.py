"""Record the reference-seed outputs that the benchmark's checks compare to.

Run from the repository root, on a commit whose outputs are trusted::

    python3 perfbench/record_reference.py [workload ...]

It runs each named workload (default: all) once at
``workloads.REFERENCE_SEED`` and rewrites those entries of
``perfbench/reference.json``.  A change that alters a recorded output on
purpose re-records it and says so.
"""

from __future__ import annotations

import json
import pathlib
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main(names) -> None:
    path = workloads.REFERENCE_FILE
    recorded = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    workloads.import_library()
    for name in names or sorted(workloads.RUN):
        inputs = workloads.generate(name, workloads.REFERENCE_SEED)
        with tempfile.TemporaryDirectory() as out:
            outputs = workloads.run(name, inputs, pathlib.Path(out))
        recorded[name] = workloads.canonical(workloads.reference_outputs(name, outputs))
        print(f"recorded {name}", file=sys.stderr)
    path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
