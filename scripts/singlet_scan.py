#!/usr/bin/env python3
"""Correlation curves of the two singlet models against -cos(angle).

Writes one CSV per model (angle, estimate, expected, stderr) and prints a
compact table.
"""

import argparse
import csv
import math
from pathlib import Path

from mdhv.models import create_model, run_experiment, singlet_context, singlet_correlation
from mdhv.quantum import BlochVector


def scan(model_name: str, angles, shots: int, seed: int):
    model = create_model(model_name)
    a = BlochVector(0.0, 0.0, 1.0)
    rows = []
    for k, deg in enumerate(angles):
        b = BlochVector.from_polar(math.radians(deg), 0.0)
        rep = run_experiment(model, singlet_context(a, b), shots, seed + k)
        est = singlet_correlation(rep.estimates)
        expected = -math.cos(math.radians(deg))
        stderr = math.sqrt(max(0.0, 1.0 - expected**2) / shots)
        rows.append((deg, est, expected, stderr))
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--shots", type=int, default=1_000_000)
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--step", type=int, default=15)
    ap.add_argument("--outdir", type=Path, default=Path("."))
    args = ap.parse_args()

    angles = list(range(0, 181, args.step))
    for name in ("brans", "hall"):
        rows = scan(name, angles, args.shots, args.seed)
        out = args.outdir / f"singlet_scan_{name}.csv"
        with out.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["angle_deg", "estimate", "expected_minus_cos", "stderr"])
            writer.writerows(rows)
        print(f"# {name} (shots={args.shots}, seed={args.seed}) -> {out}")
        print(f"{'angle':>6} {'estimate':>12} {'-cos':>12} {'pull':>8}")
        for deg, est, expected, stderr in rows:
            pull = abs(est - expected) / stderr if stderr > 0 else 0.0
            print(f"{deg:6d} {est:12.6f} {expected:12.6f} {pull:8.2f}")


if __name__ == "__main__":
    main()
