"""Command-line interface for the attention-aware allocation toolkit.

Subcommands: generate, sparsify, fit, eval, allocate, experiment, sweep,
calibrate.
Exit codes: 0 success, 1 usage error, 2 data or infeasibility error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from . import allocate as alloc_mod
from . import config as config_mod
from . import experiment as exp_mod
from . import mf as mf_mod
from . import records as rec_mod
from . import schema
from . import world as world_mod

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    out = _Parser(add_help=False)
    out.add_argument("--out", default=None, help="output path")
    config_out = _Parser(add_help=False, parents=[out])
    config_out.add_argument("--config", default=None, help="experiment config file")
    common = _Parser(add_help=False, parents=[config_out])
    common.add_argument("--seed", type=int, default=None,
                        help="override the master seed from the config (on fit: the fit seed)")

    parser = _Parser(prog="attnalloc", description=__doc__)
    parser.add_argument("--print-config", action="store_true",
                        help="print the default configuration and exit")
    sub = parser.add_subparsers(dest="command")

    sub.add_parser("generate", parents=[common], help="write a world JSON file")

    p = sub.add_parser("sparsify", parents=[common], help="write sparse records CSV")
    p.add_argument("--world", default=None, help="world JSON (generated if omitted)")
    p.add_argument("--user", type=int, default=None, help="single user (default: all)")

    p = sub.add_parser("fit", parents=[common], help="fit a factor model")
    p.add_argument("--records", required=True, help="records CSV")
    p.add_argument("--world", required=True, help="world JSON that sets the model's dimensions")

    p = sub.add_parser("eval", parents=[out], help="holdout metrics for a model")
    p.add_argument("--model", required=True, help="model JSON")
    p.add_argument("--world", required=True, help="world JSON that gives the ground truth")
    p.add_argument("--records", default=None,
                   help="records CSV whose pairs are excluded from the holdout")

    p = sub.add_parser("allocate", parents=[out], help="solve one allocation")
    p.add_argument("--weights", required=True, help="comma-separated weights")
    p.add_argument("--budget", type=float, required=True, help="total capacity, K")
    p.add_argument("--floor", type=float, default=15.0, help="per-object floor, K")

    sub.add_parser("experiment", parents=[common], help="run the 30-user comparison")

    p = sub.add_parser("sweep", parents=[common], help="budget-factor sweep for one user")
    p.add_argument("--user", type=int, default=None)

    sub.add_parser("calibrate", parents=[config_out],
                   help="write the improvement envelope over master seeds 0-9")

    return parser


def _load_experiment_config(args) -> exp_mod.ExperimentConfig:
    if args.config:
        cfg = config_mod.load_config(args.config)
    else:
        cfg = exp_mod.ExperimentConfig()
    if getattr(args, "seed", None) is not None:
        cfg = dataclasses.replace(cfg, master_seed=args.seed)
    return cfg


def _strip_suffix(path, *suffixes):
    for suffix in suffixes:
        if path.endswith(suffix):
            return path[: -len(suffix)]
    return path


def _cmd_generate(args):
    cfg = _load_experiment_config(args)
    world = world_mod.generate_world(cfg.world, cfg.master_seed)
    out = args.out or "world.json"
    world_mod.save_world(world, out)
    print(f"wrote {out}")
    return EXIT_OK


def _cmd_sparsify(args):
    cfg = _load_experiment_config(args)
    if args.world:
        world = world_mod.load_world(args.world)
    else:
        world = world_mod.generate_world(cfg.world, cfg.master_seed)
    users = args.user if args.user is not None else range(world.num_users)
    records = world_mod.sparsify(world, users, cfg.master_seed)
    out = args.out or "records.csv"
    rec_mod.save_records(records, out)
    print(f"wrote {out} ({len(records)} records)")
    return EXIT_OK


def _cmd_fit(args):
    cfg = _load_experiment_config(args)
    fit_cfg = cfg.fit
    if args.seed is not None:
        fit_cfg = dataclasses.replace(fit_cfg, seed=args.seed)
    records = rec_mod.load_records(args.records)
    world = world_mod.load_world(args.world)
    _observed(args.records, records, world, fit=True)
    model = mf_mod.fit_mf(records, fit_cfg, world.num_users, world.num_objects)
    out = args.out or "model.json"
    mf_mod.save_model(model, out)
    print(f"wrote {out}")
    return EXIT_OK


def _cmd_eval(args):
    model = mf_mod.load_model(args.model)
    world = world_mod.load_world(args.world)
    shape = (world.num_users, world.num_objects)
    if shape != (model.num_users, model.num_objects):
        raise ValueError(
            f"the world has {shape[0]} users x {shape[1]} objects, but the model has "
            f"{model.num_users} users x {model.num_objects} objects"
        )
    truth = world_mod.ground_truth_levels(world)
    records = (rec_mod.load_records(args.records) if args.records
               else rec_mod.SparseAttentionRecords())
    observed = _observed(args.records, records, world)
    metrics = mf_mod.evaluate(model.predictor(), truth, np.nonzero(~observed))
    doc = {"rmse": metrics.rmse, "mae": metrics.mae, "count": metrics.count}
    if args.out:
        schema.write_json(doc, args.out)
        print(f"wrote {args.out}")
    else:
        print(schema.json_text(doc), end="")
    return EXIT_OK


def _observed(path, records, world, fit: bool = False) -> np.ndarray:
    """``mf.observed_mask`` of the records read from ``path`` in the world's
    dimensions; with ``fit``, empty records fail too, as ``fit_mf`` fails
    them. These are faults of the file that loading it cannot see, so
    ``schema.naming`` names the file."""
    with schema.naming(path):
        if fit and not len(records):
            raise mf_mod.FitError("cannot fit on empty records")
        return mf_mod.observed_mask(records, world.num_users, world.num_objects)


def _cmd_allocate(args):
    try:
        weights = np.array([float(tok) for tok in args.weights.split(",") if tok.strip()])
    except ValueError:
        raise _UsageError(f"cannot parse --weights {args.weights!r}") from None
    if weights.size == 0:
        raise _UsageError("--weights must list at least one weight")
    problem = alloc_mod.AllocationProblem(weights, args.budget, args.floor)
    result = alloc_mod.allocate_weighted(problem)
    summary = alloc_mod.allocation_summary(problem, result)  # before any file is written
    out = args.out or "allocation.csv"
    alloc_mod.save_allocation(weights, result, out)
    print(schema.json_text(summary), end="")
    print(f"wrote {out}")
    return EXIT_OK


def _cmd_experiment(args):
    cfg = _load_experiment_config(args)
    reports, agg = exp_mod.run_all(cfg)
    prefix = _strip_suffix(args.out or "experiment", ".csv", ".json")
    exp_mod.reports_to_csv(reports, prefix + ".csv")
    exp_mod.report_summary_json(cfg, reports, agg, prefix + ".json")
    print(f"wrote {prefix}.csv and {prefix}.json "
          f"(mean improvement {agg.mean_improvement_pct:.2f}%)")
    return EXIT_OK


def _cmd_sweep(args):
    cfg = _load_experiment_config(args)
    report = exp_mod.ExperimentRunner(cfg).sweep(args.user)
    out = args.out or "sweep.csv"
    exp_mod.sweep_to_csv(report, out)
    print(f"wrote {out}")
    return EXIT_OK


def _cmd_calibrate(args):
    cfg = _load_experiment_config(args)
    means = {}
    # the master seeds whose mean the end-to-end acceptance test reads
    for seed in range(10):
        _, agg = exp_mod.run_all(dataclasses.replace(cfg, master_seed=seed))
        means[seed] = agg.mean_improvement_pct
        print(f"seed {seed}: mean improvement {agg.mean_improvement_pct:.3f}%")
    lo, hi = min(means.values()), max(means.values())
    # generous margin so the envelope is a stable acceptance bound rather
    # than a restatement of this particular run
    envelope = [round(lo - 1.5, 1), round(hi + 2.5, 1)]
    print(f"observed range [{lo:.3f}, {hi:.3f}] -> envelope {envelope}")
    doc = {
        "seeds": list(means),
        "mean_improvement_pct": {str(k): v for k, v in means.items()},
        "observed_range": [lo, hi],
        "envelope": envelope,
    }
    out = args.out or "envelope.json"
    schema.write_json(doc, out)
    print(f"wrote {out}")
    return EXIT_OK


_COMMANDS = {
    "generate": _cmd_generate,
    "sparsify": _cmd_sparsify,
    "fit": _cmd_fit,
    "eval": _cmd_eval,
    "allocate": _cmd_allocate,
    "experiment": _cmd_experiment,
    "sweep": _cmd_sweep,
    "calibrate": _cmd_calibrate,
}


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE

    if args.print_config:
        print(config_mod.dump_config(exp_mod.ExperimentConfig()), end="")
        return EXIT_OK
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE

    try:
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:  # e.g. a config whose arrays cannot be allocated
        detail = f": {exc}" if str(exc) else ""
        print(f"error: {args.command} ran out of memory{detail}", file=sys.stderr)
        return EXIT_DATA
    except ArithmeticError as exc:  # e.g. a [channel] link whose SINR overflows
        print(f"error: {args.command} failed on arithmetic: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_DATA


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
