#!/usr/bin/env python3
"""Characterization campaign: the paper's §5 study on any catalog module.

Runs Algorithm 1 across the tested latencies (and optionally repeated
partial restorations and temperatures), then prints the figures' data:
normalized N_RH box statistics (Fig. 6), lowest N_RH per latency (Fig. 7 /
Table 3), and normalized BER (Fig. 9).

Usage:
    python examples/characterize_module.py [MODULE_ID] [--rows N]
    python examples/characterize_module.py S6 --rows 24
    python examples/characterize_module.py H5 --rows 16 --npr 1,8
"""

import argparse

from repro import characterize_module, module_spec
from repro.analysis.boxstats import BoxStats
from repro.dram.timing import TESTED_TRAS_FACTORS


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("module", nargs="?", default="S6",
                        help="catalog module id (H0-H8, M0-M6, S0-S13)")
    parser.add_argument("--rows", type=int, default=16,
                        help="rows per bank region (paper uses 1024)")
    parser.add_argument("--npr", default="1",
                        help="comma-separated consecutive-restoration counts")
    parser.add_argument("--temps", default="80",
                        help="comma-separated temperatures in Celsius")
    parser.add_argument("--save", metavar="PATH",
                        help="write the raw measurements to a JSON file")
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    spec = module_spec(args.module)
    n_prs = tuple(int(x) for x in args.npr.split(","))
    temps = tuple(float(x) for x in args.temps.split(","))
    print(f"Module {spec.module_id}: {spec.part_number} "
          f"({spec.form_factor}, {spec.die_density_gbit} Gb, "
          f"die rev. {spec.die_revision}, x{spec.device_width})")
    print(f"Testing 3 x {args.rows} rows, N_PR={n_prs}, T={temps} C\n")

    result = characterize_module(
        spec.module_id, tras_factors=TESTED_TRAS_FACTORS,
        n_prs=n_prs, temperatures_c=temps, per_region=args.rows)

    print(f"{'tRAS':>6} {'lowest N_RH':>12} {'published':>10} "
          f"{'normalized N_RH (box)':>50}")
    for factor in TESTED_TRAS_FACTORS:
        lowest = result.lowest_nrh(factor)
        published = spec.lowest_nrh[factor]
        values = [ratio for _, ratio in result.normalized("nrh", factor)]
        box = BoxStats.from_values(values).row() if values else "-"
        print(f"{factor:>6.2f} {str(lowest):>12} {str(published):>10} "
              f"{box:>50}")

    print("\nNormalized BER:")
    for factor in TESTED_TRAS_FACTORS:
        values = [ratio for _, ratio in result.normalized("ber", factor)]
        if values:
            print(f"  {factor:.2f}: {BoxStats.from_values(values).row()}")

    if args.save:
        result.save(args.save)
        print(f"\nRaw measurements written to {args.save}")


if __name__ == "__main__":
    main()
