#!/usr/bin/env python3
"""Print parameter and FLOP budgets for all 24 pipeline combinations.

Usage:
    python3 scripts/describe_all.py [--scale 1.0]
"""

import argparse

from strforge.pipeline import all_combinations, assemble


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scale", type=float, default=1.0, help="channel scale")
    args = ap.parse_args()

    print(f"{'#':>2}  {'combination':<26} {'params':>12} {'feat FLOPs':>14}")
    for i, cfg in enumerate(all_combinations(scale=args.scale), start=1):
        model = assemble(cfg, initialize=False)
        print(f"{i:>2}  {cfg.name:<26} {model.param_element_count():>12,} "
              f"{model.feat_graph.flop_count():>14,}")


if __name__ == "__main__":
    main()
