"""Command-line entry points.

    splitfwi gen-data    --seed 7 --n 32 --family layered --out data/
    splitfwi gen-weights --devices 5 --seed 1 --out weights.bin
    splitfwi run         --config run.json --mode epic [--drop 1]
    splitfwi bench       --config bench.json --out out/
    splitfwi report      --inputs run1.json run2.json --out summary.csv

Every subcommand exits nonzero on error; config problems print the JSON
pointer of the offending field.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import ConfigError, SplitFwiError
from .model import ModelConfig, init_weights, load_weights, save_weights
from .physics import default_geometry, generate_dataset, load_dataset, save_dataset
from .reporting import (
    read_report_json,
    run_benchmark,
    write_per_sample_csv,
    write_report_json,
    write_summary_csv,
)
from .runconfig import load_bench_spec, load_run_config
from .runtime import PipelineMode, random_drop_sets, run_baseline


def _cmd_gen_data(args) -> int:
    geometry = default_geometry(n_t=args.n_t)
    samples = generate_dataset(args.seed, args.n, args.family, geometry=geometry)
    manifest = save_dataset(samples, args.out, seed=args.seed, family=args.family,
                            geometry=geometry)
    print(f"wrote {args.n} {args.family} samples to {manifest.parent}")
    return 0


def _cmd_gen_weights(args) -> int:
    config = ModelConfig(n_devices=args.devices, n_heads=args.heads)
    weights = init_weights(config, args.seed)
    save_weights(weights, args.out)
    n_params = sum(arr.size for _, arr in weights.named_tensors())
    print(f"wrote {n_params} parameters for {args.devices} devices to {args.out}")
    return 0


def _cmd_run(args) -> int:
    if args.samples is not None and args.samples < 1:
        raise ConfigError(f"--samples must be >= 1, got {args.samples}")
    cfg = load_run_config(args.config)
    weights = load_weights(cfg.paths["weights"])
    samples, _ = load_dataset(cfg.paths["data"])
    waves = [rec for _, rec in samples]
    truths = [vm for vm, _ in samples]
    if args.samples is not None:
        waves, truths = waves[: args.samples], truths[: args.samples]
    cfg.check_receivers(waves)
    mode = PipelineMode(args.mode)
    drop_sets = None
    if args.drop:
        if not 0 < args.drop <= cfg.infra.n_devices:
            raise ConfigError(f"--drop must be in [1, {cfg.infra.n_devices}], got {args.drop}")
        drop_sets = random_drop_sets(cfg.infra.seed, cfg.infra.n_devices, args.drop, len(waves))
    _, report = run_baseline(mode, waves, weights, cfg.infra,
                             drop_devices=drop_sets, ground_truth=truths)
    out = Path(args.out or cfg.paths["out"])
    out.mkdir(parents=True, exist_ok=True)
    write_per_sample_csv([report], out / "run_samples.csv")
    write_summary_csv([report], out / "run_summary.csv")
    write_report_json([report], out / "run_report.json")
    print(
        f"{mode.value}: {len(report.ok_rows)}/{len(report.rows)} samples ok, "
        f"mean L_total {report.mean('l_total_s') * 1e3:.2f} ms, "
        f"energy {report.total_energy_j:.4f} J -> {out}"
    )
    return 0


def _cmd_bench(args) -> int:
    spec = load_bench_spec(args.config)
    reports = run_benchmark(spec, args.out)
    print(f"benchmark: {len(reports)} runs -> {args.out}")
    return 0


def _cmd_report(args) -> int:
    reports = [report for path in args.inputs for report in read_report_json(path)]
    write_summary_csv(reports, args.out)
    print(f"summary for {len(reports)} runs -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="splitfwi", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--family", choices=["layered", "faulted"], default="layered")
    p.add_argument("--n-t", type=int, default=1000)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("gen-weights", help="sample seeded model weights")
    p.add_argument("--devices", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--heads", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_weights)

    p = sub.add_parser("run", help="run one pipeline over a dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--mode", choices=[m.value for m in PipelineMode], default="epic")
    p.add_argument("--drop", type=int, default=0, help="drop this many devices per sample")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("bench", help="sweep modes x devices x profiles")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("report", help="merge stored run JSONs into a summary CSV")
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SplitFwiError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
