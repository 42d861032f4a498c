#!/usr/bin/env python3
"""Compare the configured routing policies (`compare.policies`) on one paired
workload and print a table."""

import argparse
import json
from pathlib import Path

from devmux.cli import _non_negative_int
from devmux.configfile import load_config
from devmux.simulate import compare_policies


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default=None, help="central config file")
    ap.add_argument("--seed", type=_non_negative_int, default=42)
    ap.add_argument("--n-tasks", type=_non_negative_int, default=10_000)
    ap.add_argument("--out", default=None, help="also write the full report as JSON")
    args = ap.parse_args()

    config = load_config(args.config)
    report = compare_policies(config.sim_config(seed=args.seed, n_tasks=args.n_tasks), config.compare_policy_names)

    columns = [
        ("policy", 10),
        ("median_ms", 10),
        ("p95_ms", 10),
        ("sub_second", 11),
        ("cloud_frac", 11),
        ("energy", 12),
        ("acc_loss", 9),
        ("failed", 7),
    ]
    print("".join(name.ljust(width) for name, width in columns))
    for name, metrics in report.reports.items():
        row = [
            name.ljust(10),
            f"{metrics.median_latency_ms:.0f}".ljust(10),
            f"{metrics.p95_latency_ms:.0f}".ljust(10),
            f"{metrics.sub_second_fraction:.3f}".ljust(11),
            f"{metrics.cloud_call_fraction:.3f}".ljust(11),
            f"{metrics.total_energy_units:.0f}".ljust(12),
            f"{metrics.mean_accuracy_loss:.4f}".ljust(9),
            str(metrics.failed_count).ljust(7),
        ]
        print("".join(row))

    if args.out:
        Path(args.out).write_text(json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n")
        print(f"\nreport written to {args.out}")


if __name__ == "__main__":
    main()
