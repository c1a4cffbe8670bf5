"""Record the golden digests of every pool item into ``golden.json``.

    python3 bench/record_golden.py

Run this only at a commit whose reports are known to be right: the
benchmark counts every later output that differs from these digests as a
failed operation.  Each entry is ``[input digest, output digests...]``.
"""

import json
import sys

import gen
import harness


def main() -> int:
    mods = harness.load_fibresum()
    golden: dict[str, dict[str, list[str]]] = {}
    for workload in gen.STRATA:
        golden[workload] = {
            key: [harness.doc_digest(doc)]
            + [harness.digest(text) for text in harness.operation(mods, workload, doc)]
            for key, doc in gen.pool(workload)
        }
        print(f"{workload}: {len(golden[workload])} items", file=sys.stderr)
    golden["warmup"] = {
        "warmup": [harness.doc_digest(gen.WARMUP)]
        + [harness.digest(text) for text in harness.operation(mods, "scope_mix", gen.WARMUP)]
    }
    with harness.GOLDEN_PATH.open("w", encoding="utf-8") as handle:
        json.dump({"workloads": golden}, handle, indent=0, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
