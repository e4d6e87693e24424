#!/usr/bin/env python3
"""Gate a fresh bench --json document against a committed baseline.

Two metric families are gated; everything else (absolute ns/us, which
depend on the recording host's clock) is informational only.

*speedup* metrics — within-run ratios of the scalar reference to the
batched kernel, stable across machines:
  - baseline speedup >= NOISE_FLOOR (1.5x): the current value must be
    >= baseline * (1 - TOLERANCE). A drop past 15% of a real speedup is
    a code regression, not timer noise.
  - baseline speedup < NOISE_FLOOR: the band widens to LOOSE_TOLERANCE
    (30%). Near-1x ratios wobble +/-17% between healthy runs on a busy
    core, so a tight gate there would only produce flakes.
  - tier-suffixed rows (kernel_*_avx2 / kernel_*_avx512, recorded by the
    runtime-dispatch tier sweep) are gated only when the current run's
    config.kernel_tiers says the measuring host actually ran that tier;
    otherwise they are skipped loudly. The unsuffixed rows (the generic
    tier) gate everywhere.

fitted_exponent metrics (bench_complexity) — log-log slope of runtime vs
n per algorithm. Gated upper-side only: a LOWER exponent is cache
effects or measurement luck, never a regression, but a higher one means
an algorithm's scaling degraded. The allowed band is the baseline's
recorded fitted_exponent_band (2x the observed repeat spread, floored at
0.35 — see scripts/record_bench.py), defaulting to DEFAULT_EXPONENT_BAND
for baselines recorded without repeats.

Exit status 0 = all gated metrics within tolerance; 1 = regression.

Usage:
  scripts/check_bench_regression.py --baseline BENCH_kernels.json \
                                    --current /tmp/bench_index_micro.json
"""

import argparse
import json
import pathlib
import sys

TOLERANCE = 0.15
LOOSE_TOLERANCE = 0.30
NOISE_FLOOR = 1.5
DEFAULT_EXPONENT_BAND = 0.5
TIER_SUFFIXES = ("_avx2", "_avx512")


def load(path):
    doc = json.loads(pathlib.Path(path).read_text())
    if doc.get("schema") != 1:
        sys.exit(f"error: {path}: unexpected schema {doc.get('schema')!r}")
    return doc


def speedups(doc):
    out = {}
    for result in doc.get("results", []):
        for metric, value in result.get("metrics", {}).items():
            if "speedup" in metric and isinstance(value, (int, float)):
                out[(result["name"], metric)] = float(value)
    return out


def exponents(doc):
    """(name -> (fitted_exponent, band or None)) for complexity docs."""
    out = {}
    for result in doc.get("results", []):
        metrics = result.get("metrics", {})
        value = metrics.get("fitted_exponent")
        if isinstance(value, (int, float)):
            band = metrics.get("fitted_exponent_band")
            band = float(band) if isinstance(band, (int, float)) else None
            out[result["name"]] = (float(value), band)
    return out


def row_tier(name):
    """The dispatch tier a result row was measured on, by naming
    convention: kernel_*_avx2 / kernel_*_avx512 come from the tier
    sweep, everything else from the generic tier."""
    for suffix in TIER_SUFFIXES:
        if name.endswith(suffix):
            return suffix[1:]
    return None


def current_tiers(doc):
    """Tiers the current run measured (config.kernel_tiers, written by
    bench_index_micro's tier sweep). Empty for documents without one."""
    raw = doc.get("config", {}).get("kernel_tiers", "")
    return {t for t in str(raw).split(",") if t}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True,
                        help="committed BENCH_*.json to gate against")
    parser.add_argument("--current", required=True,
                        help="freshly emitted bench --json document")
    args = parser.parse_args()

    base_doc = load(args.baseline)
    cur_doc = load(args.current)
    base = speedups(base_doc)
    cur = speedups(cur_doc)
    base_exp = exponents(base_doc)
    cur_exp = exponents(cur_doc)
    if not base and not base_exp:
        sys.exit(f"error: {args.baseline} has no speedup or fitted_exponent "
                 f"metrics to gate on")

    tiers = current_tiers(cur_doc)
    gated = 0
    failures = []
    for (name, metric), base_value in sorted(base.items()):
        tier = row_tier(name)
        if tier is not None and tier not in tiers:
            print(f"  {name}.{metric}: SKIPPED — current run did not measure "
                  f"the {tier} tier (config.kernel_tiers = "
                  f"{sorted(tiers) if tiers else 'none'})")
            continue
        gated += 1
        cur_value = cur.get((name, metric))
        if cur_value is None:
            failures.append(f"{name}.{metric}: missing from current run")
            continue
        tolerance = TOLERANCE if base_value >= NOISE_FLOOR else LOOSE_TOLERANCE
        bound = base_value * (1.0 - tolerance)
        ok = cur_value >= bound
        print(f"  {name}.{metric}: baseline {base_value:.2f}x, "
              f"current {cur_value:.2f}x, bound {bound:.2f}x "
              f"({'ok' if ok else 'REGRESSION'})")
        if not ok:
            failures.append(
                f"{name}.{metric}: {cur_value:.2f}x < {bound:.2f}x "
                f"(baseline {base_value:.2f}x - {tolerance:.0%})")

    for name, (base_value, band) in sorted(base_exp.items()):
        gated += 1
        if name not in cur_exp:
            failures.append(f"{name}.fitted_exponent: missing from current run")
            continue
        cur_value = cur_exp[name][0]
        if band is None:
            band = DEFAULT_EXPONENT_BAND
        bound = base_value + band
        ok = cur_value <= bound
        print(f"  {name}.fitted_exponent: baseline {base_value:.2f}, "
              f"current {cur_value:.2f}, upper bound {bound:.2f} "
              f"({'ok' if ok else 'REGRESSION'})")
        if not ok:
            failures.append(
                f"{name}.fitted_exponent: {cur_value:.2f} > {bound:.2f} "
                f"(baseline {base_value:.2f} + band {band:.2f})")

    if failures:
        print("\nbench regression gate FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        sys.exit(1)
    if gated == 0:
        sys.exit("error: every baseline metric was skipped — nothing gated "
                 "(wrong --current document?)")
    print(f"\nbench regression gate passed ({gated} metrics within tolerance)")


if __name__ == "__main__":
    main()
