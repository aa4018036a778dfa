"""Record ``reference.json``, the outputs the benchmark's checks compare to.

Run it on the commit whose outputs are the reference, for all workloads or
the ones named:

    python3 perfbench/record_reference.py [outage-desk avg-full ...]
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
import workloads  # noqa: E402


def main():
    names = sys.argv[1:] or list(workloads.WORKLOADS)
    path = workloads.REFERENCE_PATH
    ref = json.loads(path.read_text()) if path.exists() else {}
    for name in names:
        workload = workloads.WORKLOADS[name]
        workload.setup()
        ref[name] = workload.record()
        print(f"recorded {name}", flush=True)
    path.write_text(json.dumps(ref, indent=1) + "\n")


if __name__ == "__main__":
    main()
