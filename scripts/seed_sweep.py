#!/usr/bin/env python3
"""Run the documented 10-seed protocol: mdp vs all-cloud at 10k tasks per seed."""

import argparse

from devmux.cli import _non_negative_int
from devmux.configfile import load_config
from devmux.simulate import PolicyKind, compare_policies


def _positive_int(text: str) -> int:
    value = _non_negative_int(text)
    if value == 0:
        raise argparse.ArgumentTypeError("must be >= 1, got 0")
    return value


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default=None)
    ap.add_argument("--first-seed", type=_non_negative_int, default=42)
    ap.add_argument("--seeds", type=_positive_int, default=10)
    ap.add_argument("--n-tasks", type=_non_negative_int, default=10_000)
    args = ap.parse_args()

    config = load_config(args.config)
    print("seed    mdp_cloud  allcloud   ratio    sub_second")
    reduction_hits = 0
    sub_second_hits = 0
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        sim = config.sim_config(seed=seed, n_tasks=args.n_tasks)
        mdp_report, cloud_report = compare_policies(sim, [PolicyKind.MDP, PolicyKind.ALL_CLOUD]).reports.values()
        ratio = mdp_report.cloud_call_fraction / max(cloud_report.cloud_call_fraction, 1e-12)
        reduction_hits += ratio <= 0.5
        sub_second_hits += mdp_report.sub_second_fraction >= 0.85
        print(
            f"{seed:<7d} {mdp_report.cloud_call_fraction:<10.4f} "
            f"{cloud_report.cloud_call_fraction:<10.4f} {ratio:<8.4f} "
            f"{mdp_report.sub_second_fraction:.4f}"
        )
    print(
        f"\n{reduction_hits}/{args.seeds} seeds at <=50% of all-cloud calls, "
        f"{sub_second_hits}/{args.seeds} seeds at >=85% sub-second"
    )


if __name__ == "__main__":
    main()
