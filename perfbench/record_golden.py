"""Record the golden CLI outputs of the named fixtures.

Run from the repository root:  python3 perfbench/record_golden.py

For every fixture the script first runs ``quadrics verify`` (grid, sampling
and monodromy oracles) on its zero-cone problem and keeps the fixture's
outputs only when verify agrees; a disagreement is reported and the script
exits 1 without writing.  Outputs for the other cones rest on that same
verified profile: verify itself rejects every cone but the zero cone, because
its grid oracle compares the cone-restricted profile with the whole circle.
The verify calls on fixtures with n <= 3 take seconds each.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402


def main() -> int:
    Q = wl.load_library(os.path.dirname(HERE))
    outputs: dict[str, dict] = {}
    bad = []
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for fixture, p in wl.fixture_pencils(Q).items():
            for kind in wl.CONES:
                data = p.to_json()
                data["cone"] = wl.cone_json(Q, kind)
                path = os.path.join(tmp, f"{fixture}__{kind}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(data, fh)
                if kind == "zero":
                    code, _, _ = wl.cli_call(Q, ["verify", "--input", path])
                    if code != 0:
                        bad.append(f"{fixture}/zero: verify exit {code}")
        for pid, argv in wl.golden_ops(Q):
            path = os.path.join(tmp, pid.replace("/", "__") + ".json")
            extra = ["--csv", os.path.join(tmp, "profile.csv")] if argv[0] == "profile" else []
            code, text, _ = wl.cli_call(Q, [*argv, *extra, "--input", path])
            if code != 0:
                bad.append(f"{pid} {' '.join(argv)}: exit {code}")
                continue
            data = json.loads(text)
            data.pop("csv", None)
            outputs.setdefault(pid, {})[" ".join(argv)] = data
    if bad:
        print("\n".join(bad), file=sys.stderr)
        return 1
    with open(wl.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump({"recorded_with": "verify agreed on each fixture's zero-cone problem",
                   "outputs": outputs}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {sum(len(v) for v in outputs.values())} outputs to {wl.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
