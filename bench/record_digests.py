"""Write digests.json: SHA-256 of every reference-seed export stream, both sizes.

Run only when output bytes change on purpose; the benchmark fails every run
whose reference streams differ from the recorded ones.

    python3 bench/record_digests.py
"""

import json
import os

from harness import BENCH, REFERENCE_SEED, ROOT
from checks import sha256
from workloads import WORKLOADS


def main() -> None:
    scratch = os.path.join(ROOT, ".bench_out")
    os.makedirs(scratch, exist_ok=True)
    digests = {}
    for size in ("full", "smoke"):
        digests[size] = {}
        for name, workload in WORKLOADS.items():
            wl = workload(smoke=size == "smoke")
            wl.setup(REFERENCE_SEED, scratch)
            try:
                digests[size][name] = [sha256(data) for data in wl.reference_streams()]
            finally:
                wl.close()
    with open(os.path.join(BENCH, "digests.json"), "w", encoding="utf-8") as handle:
        json.dump({"reference_seed": REFERENCE_SEED, **digests}, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
