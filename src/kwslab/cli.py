"""Command-line driver: synth, train, evaluate, the three sweeps,
operating-point translation, and report rendering.

Exit codes: 0 success, 1 invalid input (an ``InvalidInputError`` or a missing
file), 2 runtime failures.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import metrics as mx
from .config import load_run_config
from .corpus import (MANIFEST, KeywordTaskSpec, build_task_spec, compute_d_max, load_corpus,
                     load_events, save_corpus, select_splits)
from .errors import CheckpointError, ConfigError, InvalidInputError, KwslabError, ValidationError
from .fileio import write_json
from .fixtures import load_reference_tables, reference_operating_curves
from .operate import (
    empirical_fp_per_hour,
    recall_vs_fa_curve,
    select_threshold_max_recall,
    select_threshold_min_fa,
)
from .reports import (
    file_name,
    provenance_block,
    read_json_report,
    render_metrics_table,
    render_operating_points,
    render_sweep_summary,
    write_rows_csv,
)
from .sweeps import (
    checkpoint_path,
    csv_rows,
    run_keywords_sweep,
    run_offsets_sweep,
    run_scaling_sweep,
    seed_mean_se,
    train_seeds,
)
from .synthgen import default_split as synth_default_split
from .synthgen import generate_corpus
from .training import (
    evaluate,
    prepare_task,
    read_scores_csv,
    scored_set_from_rows,
    write_scores_csv,
)

CHECKPOINT_TAG = "checkpoint"  # `train` and `evaluate` use checkpoint_seed{seed}.ckpt


def _load_task(config):
    root = config.resolved_root()
    sessions, default = load_corpus(root)
    spec = build_task_spec(
        sessions, config.task.keywords, config.task.beta_neg_s, config.task.beta_pos_s
    )
    split = select_splits(sessions, spec, default)
    return root, spec, split, prepare_task(sessions, split, spec)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    config = load_run_config(args.config, args.set)
    if config.corpus.synth is None:
        raise ConfigError("synth command needs a corpus.synth section")
    root = args.out or config.resolved_root()
    if root is None:
        raise ConfigError("synth command needs corpus.root or --out")
    sessions, _ = generate_corpus(config.corpus.synth)
    split = synth_default_split(sessions)
    save_corpus(sessions, root, split)
    n_tokens = sum(len(s.word_events()) for s in sessions)
    hours = sum(s.duration_s for s in sessions) / 3600.0
    print(f"corpus written to {root}")
    print(f"sessions: {len(sessions)}  tokens: {n_tokens}  hours: {hours:.2f}")
    print(f"default split: validation={split.validation} test={split.test}")
    return 0


def cmd_train(args) -> int:
    config = load_run_config(args.config, args.set, require_corpus=True)
    root, spec, split, task = _load_task(config)  # `train` makes the workdir
    seeds_payload = {}
    wall = {}
    for seed, report in train_seeds(config, task, args.workdir, CHECKPOINT_TAG):
        view = report.deterministic_view()
        view["checkpoint_path"] = file_name(view["checkpoint_path"])
        seeds_payload[str(seed)] = view
        wall[str(seed)] = report.wall_clock_s
        print(
            f"seed {seed}: best val AUPRC {report.best_val_auprc:.4f} "
            f"at epoch {report.best_epoch:g} ({report.wall_clock_s:.1f}s)"
        )
    payload = {
        "provenance": provenance_block(config, root),
        "task": {"keywords": sorted(spec.keywords), "window_s": spec.window_s,
                 "validation": split.validation, "test": split.test},
        "seeds": seeds_payload,
        "wall_clock_s": wall,
    }
    write_json(os.path.join(args.workdir, "train_report.json"), payload)
    return 0


def cmd_evaluate(args) -> int:
    config = load_run_config(args.config, args.set, require_corpus=True)
    root, _, _, task = _load_task(config)
    ev = config.evaluation
    scoreds = []
    for seed in config.seeds:
        ckpt = checkpoint_path(args.workdir, CHECKPOINT_TAG, seed)
        if not os.path.exists(ckpt):
            raise CheckpointError(f"missing checkpoint {ckpt}; run `train` first")
        rows = evaluate(ckpt, task, args.partition)
        write_scores_csv(rows, os.path.join(args.workdir, f"scores_seed{seed}.csv"))
        scoreds.append(scored_set_from_rows(rows))
    reports, perms = mx.build_metrics_reports(
        scoreds, tau=ev.tau, n_resamples=ev.bootstrap_resamples,
        n_draws=ev.permutation_draws, seed=ev.stat_seed,
    )
    per_seed = {str(seed): report.to_dict() for seed, report in zip(config.seeds, reports)}
    seed_mean = {}
    for name, perm in perms.items():
        mean, se = seed_mean_se([report.entries[name].value for report in reports])
        seed_mean[name] = {
            "value": mean,
            "se": se,
            "p_value": perm.p_value,
            "baseline": perm.null_mean,
            "null_median": perm.null_median,
            "pct_improvement": mx.pct_over_baseline(mean, perm.null_mean),
        }
    payload = {
        "provenance": provenance_block(config, root),
        "partition": args.partition,
        "threshold": ev.tau,
        "per_seed": per_seed,
        "seed_mean": {"metrics": seed_mean},
    }
    write_json(os.path.join(args.workdir, "evaluation_report.json"), payload)
    print(render_metrics_table(payload["seed_mean"]))
    return 0


def _parse_float_list(text: str, flag: str) -> list[float]:
    values = []
    for token in (v.strip() for v in text.split(",")):
        if token:
            try:
                values.append(float(token))
            except ValueError:
                raise ValidationError(f"{flag}: {token!r} is not a number") from None
    return values


def _parse_keywords(text: str) -> list[str] | None:
    return None if text == "auto" else [k.strip() for k in text.split(",") if k.strip()]


def cmd_sweep(args) -> int:
    """Run the sweep its subcommand bound as ``args.sweep``, then write
    ``sweep_report.json`` and ``sweep.csv``."""
    config = load_run_config(args.config, args.set, require_corpus=True)
    root = config.resolved_root()
    sessions, default = load_corpus(root)
    payload = args.sweep(args, config, sessions, default)
    payload["provenance"] = provenance_block(config, root)
    fields = payload.pop("csv_fields")
    os.makedirs(args.workdir, exist_ok=True)  # made already unless no cell trained
    write_rows_csv(os.path.join(args.workdir, "sweep.csv"), fields,
                   csv_rows(payload["cells"], fields))
    write_json(os.path.join(args.workdir, "sweep_report.json"), payload)
    print(render_sweep_summary(payload))
    return 0


def _seed_summary(values, per_seed: list) -> dict:
    mean, se = seed_mean_se(values)
    return {"mean": mean, "se": se, "per_seed": per_seed}


def _operating_rows_for_scenario(scenario, curves, fa_points, fp_rates, budgets):
    rows = {
        "fa_at_target_recall": _seed_summary([p.fa_per_hour for p in fa_points],
                                             [p.to_dict() for p in fa_points]),
        "recall_at_budgets": [],
    }
    for budget in budgets:
        points = [select_threshold_max_recall(curve, scenario, budget) for curve in curves]
        rows["recall_at_budgets"].append(
            {
                "budget": budget,
                "feasible": all(p.feasible for p in points),
                **_seed_summary([p.recall for p in points], [p.to_dict() for p in points]),
            }
        )
    rows["fp_per_hour"] = _seed_summary(fp_rates, list(fp_rates))
    return rows


def cmd_operating_points(args) -> int:
    config = load_run_config(args.config, args.set)
    ev = config.evaluation

    if args.fixture:
        flag = "--scores" if args.scores else "--window-s" if args.window_s is not None else None
        if flag:
            raise ConfigError(f"operating-points: --fixture brings its own curves and window, "
                              f"so {flag} cannot be given with it")
        tables = load_reference_tables()["operating_points"]
        curves = reference_operating_curves()
        window_s = tables["window_s"]
        n_windows = tables["n_windows"]
        fp_rates = [
            count * 3600.0 / (n_windows * window_s)
            for count in tables["per_seed_fp_counts"]
        ]
        source = "bundled reference fixture"
        scored_sets = None
    else:
        if not args.scores:
            raise ConfigError("operating-points needs --scores files or --fixture")
        root = config.resolved_root()
        if root and os.path.exists(os.path.join(root, MANIFEST)):
            task = config.task
            keywords = frozenset(task.keywords)
            d_max = compute_d_max(load_events(root), keywords)
            window_s = KeywordTaskSpec(keywords, task.beta_neg_s, task.beta_pos_s, d_max).window_s
            if args.window_s is not None:
                raise ConfigError(f"operating-points: the corpus at {root} fixes the window at "
                                  f"{window_s:g} s, so --window-s cannot be given with it")
        else:
            window_s = args.window_s
        if window_s is None:
            raise ConfigError("need a corpus or --window-s to compute FP/h coverage")
        scored_sets = []
        for path in args.scores:
            rows = read_scores_csv(path)
            if not rows:
                raise ValidationError(f"{path}: scores file contains no rows")
            scored_sets.append(scored_set_from_rows(rows))
        curves = [mx.pr_curve(s) for s in scored_sets]
        source = ",".join(file_name(path) for path in args.scores)

    scenario_payloads = []
    fa_csv_rows = []
    for scenario in ev.scenarios:
        fa_points = [select_threshold_min_fa(curve, scenario, ev.target_recall)
                     for curve in curves]
        if scored_sets is not None:
            fp_rates = [
                empirical_fp_per_hour(s.scores, s.labels, p.threshold, window_s)
                for s, p in zip(scored_sets, fa_points)
            ]
        rows = _operating_rows_for_scenario(scenario, curves, fa_points, fp_rates, ev.fa_budgets)
        scenario_payloads.append(
            {
                "scenario": {"name": scenario.name, "lambda_per_hour": scenario.lambda_per_hour},
                "target_recall": ev.target_recall,
                "rows": rows,
            }
        )
        for seed_idx, curve in enumerate(curves):
            for fa, recall in recall_vs_fa_curve(curve, scenario):
                fa_csv_rows.append(
                    {"scenario": scenario.name, "seed_index": seed_idx,
                     "fa_per_hour": fa, "recall": recall}
                )
    payload = {
        "provenance": provenance_block(config),
        "source": source,
        "window_s": window_s,
        "scenarios": scenario_payloads,
    }
    os.makedirs(args.workdir, exist_ok=True)
    write_json(os.path.join(args.workdir, "operating_points.json"), payload)
    write_rows_csv(
        os.path.join(args.workdir, "recall_vs_fa.csv"),
        ["scenario", "seed_index", "fa_per_hour", "recall"],
        fa_csv_rows,
    )
    print(render_operating_points(payload))
    return 0


def cmd_report(args) -> int:
    payload = read_json_report(args.input)
    try:  # each renderer indexes the payload as the key that picked it promises
        if "scenarios" in payload:
            text = render_operating_points(payload)
        elif "cells" in payload:
            text = render_sweep_summary(payload)
        elif "seed_mean" in payload or "metrics" in payload:
            text = render_metrics_table(payload.get("seed_mean", payload))
        else:
            raise ValidationError(f"{args.input}: unrecognized report payload; report renders "
                                  "evaluation, operating-points and sweep reports")
    except (KeyError, TypeError, AttributeError, IndexError) as exc:
        raise ValidationError(f"{args.input}: not a report of the shape its keys name "
                              f"({type(exc).__name__}: {exc})") from None
    print(text)
    return 0


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kwslab",
        description="Keyword-spotting workbench: synthetic corpora, detector "
        "training, and imbalance-aware evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, workdir=True):
        p.add_argument("--config", required=True, help="run-config JSON path")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="dotted-path config override (repeatable)")
        if workdir:
            p.add_argument("--workdir", required=True, help="output directory")

    p = sub.add_parser("synth", help="generate the synthetic corpus")
    common(p, workdir=False)
    p.add_argument("--out", help="corpus directory (defaults to corpus.root)")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("train", help="train one detector per seed")
    common(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("evaluate", help="score checkpoints and build metric reports")
    common(p)
    p.add_argument("--partition", default="test", choices=["train", "validation", "test"])
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("sweep-scaling", help="training-fraction sweep")
    common(p)
    p.add_argument("--fractions", default="0.1,0.25,0.5,1.0")
    p.set_defaults(fn=cmd_sweep, sweep=lambda args, *run: run_scaling_sweep(
        *run, _parse_float_list(args.fractions, "--fractions"), args.workdir))

    p = sub.add_parser("sweep-offsets", help="pre/post-onset buffer sweep")
    common(p)
    p.add_argument("--neg-grid", default="0,0.05,0.1,0.15,0.2", dest="neg_grid")
    p.add_argument("--pos-grid", default="0,0.05,0.1,0.15,0.2,0.25,0.3", dest="pos_grid")
    p.set_defaults(fn=cmd_sweep, sweep=lambda args, *run: run_offsets_sweep(
        *run, _parse_float_list(args.neg_grid, "--neg-grid"),
        _parse_float_list(args.pos_grid, "--pos-grid"), args.workdir))

    p = sub.add_parser("sweep-keywords", help="per-keyword detectability sweep")
    common(p)
    p.add_argument("--keywords", default="auto",
                   help="comma-separated keywords, or 'auto' for the most "
                   "frequent word per length bucket")
    p.set_defaults(fn=cmd_sweep, sweep=lambda args, *run: run_keywords_sweep(
        *run, _parse_keywords(args.keywords), args.workdir))

    p = sub.add_parser("operating-points", help="threshold selection and hourly rates")
    common(p)
    p.add_argument("--scores", action="append", default=[],
                   help="scores CSV (repeat for per-seed files)")
    p.add_argument("--fixture", action="store_true",
                   help="use the bundled reference curves instead of scores files")
    p.add_argument("--window-s", type=float, default=None, dest="window_s",
                   help="window seconds for FP/h coverage without a corpus or --fixture")
    p.set_defaults(fn=cmd_operating_points)

    p = sub.add_parser("report", help="render a saved evaluation, operating-points "
                       "or sweep report as text")
    p.add_argument("--input", required=True)
    p.set_defaults(fn=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (InvalidInputError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KwslabError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
