"""Command-line front end: generate pairs, register files, sweep, plot.

Exit codes: 0 success, 1 invalid config, 2 IO failure, 3 degenerate
geometry. Errors are printed to stderr as a one-line JSON object with an
"error" kind so callers can dispatch without scraping messages. OGMM_SEED,
when set, overrides the configured base seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import bench as bench_mod
from .bench import BenchConfig, BenchConfigError, BenchDataError, config_from_dict
from .geometry import DegenerateGeometryError
from .io import CloudParseError, read_cloud
from .registration import register

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_DEGENERATE = 3

_PROFILES = {"paper": BenchConfig, "desk": BenchConfig.desk}


def _fail(kind: str, message: str, code: int) -> int:
    payload = {"error": {"kind": kind, "message": message}}
    print(json.dumps(payload), file=sys.stderr)
    return code


def _load_config(args) -> BenchConfig:
    config = _PROFILES[args.profile]()
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except OSError as exc:
            raise CloudParseError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise BenchConfigError(f"config is not valid JSON: {exc}") from exc
        config = config_from_dict(data, base=config)
    raw_seed = os.environ.get("OGMM_SEED")
    if raw_seed is not None:
        try:
            seed = int(raw_seed)
        except ValueError as exc:
            raise BenchConfigError(f"OGMM_SEED must be an integer, got {raw_seed!r}") from exc
        config = config_from_dict({"base_seed": seed}, base=config)
    return config


def _cmd_genpairs(args) -> int:
    config = _load_config(args)
    manifest = bench_mod.genpairs(config, args.out)
    print(f"wrote {manifest['pair_count']} pairs to {args.out}")
    return EXIT_OK


def _cmd_register(args) -> int:
    config = _load_config(args)
    source = read_cloud(args.source)
    target = read_cloud(args.target)
    result = register(source, target, config.register)
    payload = json.dumps(result.to_json_dict(), indent=2, sort_keys=True) + "\n"
    if args.out is not None:
        with open(args.out, "w", encoding="ascii") as handle:
            handle.write(payload)
    else:
        sys.stdout.write(payload)
    return EXIT_OK


def _cmd_bench(args) -> int:
    config = _load_config(args)
    rows, summary = bench_mod.run_bench(config, workers=args.workers)
    bench_mod.write_bench_csv(args.out, rows)
    summary_path = str(args.out) + ".summary.json"
    bench_mod.write_summary(summary_path, summary)
    print(f"wrote {len(rows)} rows to {args.out} ({summary['errors']} errors)")
    print(f"wrote summary to {summary_path}")
    return EXIT_OK


def _cmd_report(args) -> int:
    written = bench_mod.report(args.csv, args.out)
    for path in written["aggregates"] + written["charts"]:
        print(f"wrote {path}")
    return EXIT_OK


def _add_common(parser) -> None:
    parser.add_argument("--config", help="JSON config overriding the profile defaults")
    parser.add_argument(
        "--profile", choices=sorted(_PROFILES), default="paper",
        help="base parameter profile (default: paper)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ogmm",
        description="Overlap-guided mixture registration benchmark tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    genpairs = sub.add_parser("genpairs", help="write synthetic pairs to a directory")
    _add_common(genpairs)
    genpairs.add_argument("--out", required=True, help="output directory")
    genpairs.set_defaults(fn=_cmd_genpairs)

    reg = sub.add_parser("register", help="register two point cloud files")
    reg.add_argument("source", help="source cloud (.xyz or .ply)")
    reg.add_argument("target", help="target cloud (.xyz or .ply)")
    _add_common(reg)
    reg.add_argument("--out", help="result JSON path (default: stdout)")
    reg.set_defaults(fn=_cmd_register)

    bench = sub.add_parser("bench", help="run the benchmark sweep")
    _add_common(bench)
    bench.add_argument("--out", required=True, help="output CSV path")
    bench.add_argument("--workers", type=int, default=1, help="concurrent sweep cells")
    bench.set_defaults(fn=_cmd_bench)

    rep = sub.add_parser("report", help="aggregate a bench CSV and draw charts")
    rep.add_argument("csv", help="bench CSV path")
    rep.add_argument("--out", required=True, help="output directory")
    rep.set_defaults(fn=_cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BenchConfigError as exc:
        return _fail("config", str(exc), EXIT_CONFIG)
    except (CloudParseError, BenchDataError) as exc:
        return _fail("io", str(exc), EXIT_IO)
    except DegenerateGeometryError as exc:
        return _fail("degenerate", str(exc), EXIT_DEGENERATE)
    except ValueError as exc:
        # e.g. a config demanding more clusters than the clouds have points
        return _fail("config", str(exc), EXIT_CONFIG)
    except OSError as exc:
        return _fail("io", str(exc), EXIT_IO)


if __name__ == "__main__":
    sys.exit(main())
