#!/usr/bin/env python3
"""Print the index profile, table and Betti numbers of the extremal family.

Example:
    python scripts/extremal_gallery.py --n-max 8
    python scripts/extremal_gallery.py --n-max 4 --csv-dir /tmp/profiles
"""

import argparse
import os

from quadrics.applications import extremal_family
from quadrics.betti import analyze
from quadrics.circle import PlanarCone
from quadrics.cli import emit_profile_csv


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-min", type=int, default=2)
    ap.add_argument("--n-max", type=int, default=8)
    ap.add_argument("--csv-dir", help="also write one profile CSV per n")
    args = ap.parse_args()

    cone = PlanarCone.zero()
    for n in range(args.n_min, args.n_max + 1):
        pencil = extremal_family(n)
        res = analyze(pencil, cone)
        prof = res.filtration.profile
        arcs = [v.i_plus for v in prof.after]
        print(f"n={n}: mu={res.table.mu} nu={res.table.nu} "
              f"arcs={len(arcs)} values={sorted(set(arcs))} "
              f"b={list(res.report.b)} total={res.report.total} "
              f"chi={res.chi}")
        if args.csv_dir:
            os.makedirs(args.csv_dir, exist_ok=True)
            emit_profile_csv(prof, os.path.join(args.csv_dir, f"extremal_{n}.csv"))


if __name__ == "__main__":
    main()
