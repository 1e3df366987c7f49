"""Report provenance blocks, how a report names a file, the report reader,
the CSV row writer, and the plain-text renderers behind the `report` subcommand."""

from __future__ import annotations

import csv
import json
import os

from .corpus import read_manifest
from .errors import ValidationError
from .fileio import atomic_open
from .model import config_hash


def provenance_block(config, corpus_root: str | None = None) -> dict:
    block = {"config_hash": config_hash(config)}
    if corpus_root:
        block["corpus_checksums"] = read_manifest(corpus_root)[0]
    return block


def file_name(path: str) -> str:
    """A file as a report names it: its basename, the same for any workdir or cwd."""
    return os.path.basename(path)


def read_json_report(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError:  # not JSON, or not UTF-8
            raise ValidationError(f"{path} is not a UTF-8 JSON file") from None


def _fmt(value, digits=4):
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.{digits}g}" if abs(value) < 1e4 else f"{value:.3e}"
    return str(value)


def write_rows_csv(path: str, fieldnames, rows):
    """CSV with full-precision floats (repr) so aggregates re-derive exactly."""
    with atomic_open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow(
                [repr(row[k]) if isinstance(row.get(k), float) else row.get(k, "") for k in fieldnames]
            )


def render_metrics_table(report: dict) -> str:
    """Metric | Baseline | Value (+- SE) | %Delta | p-value rows."""
    lines = []
    header = f"{'Metric':<10} {'Baseline':>9} {'Value':>9} {'SE':>9} {'%Delta':>9} {'p-value':>10}"
    lines.append(header)
    lines.append("-" * len(header))
    for name, entry in report["metrics"].items():
        lines.append(
            f"{name:<10} {_fmt(entry.get('baseline')):>9} {_fmt(entry.get('value')):>9} "
            f"{_fmt(entry.get('se')):>9} {_fmt(entry.get('pct_improvement'), 3):>9} "
            f"{_fmt(entry.get('p_value'), 3):>10}"
        )
    return "\n".join(lines)


def render_operating_points(report: dict) -> str:
    lines = []
    for scenario in report["scenarios"]:
        name = scenario["scenario"]["name"]
        lam = scenario["scenario"]["lambda_per_hour"]
        lines.append(f"scenario {name} (lambda={lam}/h)")
        rows = scenario["rows"]
        lines.append(
            f"  FA/h at target recall {scenario['target_recall']}: "
            f"{_fmt(rows['fa_at_target_recall']['mean'])} "
            f"(SE {_fmt(rows['fa_at_target_recall']['se'])})"
        )
        for budget_row in rows["recall_at_budgets"]:
            lines.append(
                f"  recall at FA/h budget {budget_row['budget']}: "
                f"{_fmt(budget_row['mean'])} (SE {_fmt(budget_row['se'])})"
            )
        fp = rows.get("fp_per_hour")
        if fp is not None:
            lines.append(f"  empirical FP/h: {_fmt(fp['mean'])} (SE {_fmt(fp['se'])})")
    return "\n".join(lines)


def render_sweep_summary(report: dict) -> str:
    lines = [f"sweep axis: {report['axis']}"]
    for cell in report["cells"]:
        tag = ", ".join(f"{k}={_fmt(v)}" for k, v in cell["axis"].items())
        if cell.get("infeasible"):
            lines.append(f"  [{tag}] infeasible: {cell.get('note', '')}")
            continue
        agg = cell["aggregate"]
        lines.append(
            f"  [{tag}] auprc {_fmt(agg['auprc_mean'])} +- {_fmt(agg['auprc_se'])}  "
            f"auroc {_fmt(agg['auroc_mean'])} +- {_fmt(agg['auroc_se'])}"
            + (f"  p {_fmt(agg.get('p_value'), 3)}" if agg.get("p_value") is not None else "")
        )
    for key in ("slope_auprc_vs_log_fraction", "argmax_cell", "paired_improvement",
                "length_log_frequency_spearman"):
        if key in report and report[key] is not None:
            lines.append(f"{key}: {_fmt_obj(report[key])}")
    return "\n".join(lines)


def _fmt_obj(obj):
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{k}: {_fmt_obj(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_fmt_obj(v) for v in obj) + "]"
    return _fmt(obj)
