"""Output checks of every workload.

Each check compares a kwslab output with a value computed in `oracles`, or
with a property the method must have; none compares with a stored copy of
an earlier output. A check appends what went wrong to `Checks.failures`, so
a run reports every failed check, not only the first.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from . import oracles

NULL_Z = 5.0  # a null mean may sit this many Monte Carlo SEs from its expectation
TRAIN_AUPRC_OVER_BASE = 10.0
REPORT_METRICS = ("f1", "f1_macro", "accuracy", "mcc", "auroc", "auprc")


class Checks:
    """Collects the checks that failed in one run."""

    def __init__(self):
        self.failures: list[str] = []

    @property
    def ok(self) -> bool:
        return not self.failures

    def expect(self, ok, what: str):
        if not ok:
            self.failures.append(what)

    def close(self, got, want, what: str, rel: float = 1e-12, abs_tol: float = 1e-15):
        self.expect(
            math.isclose(got, want, rel_tol=rel, abs_tol=abs_tol),
            f"{what}: got {got!r}, want {want!r}",
        )


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def check_corpus_roundtrip(chk: Checks, generated, loaded):
    """The corpus read back from disk equals the generated one bit for bit."""
    by_id = {s.session_id: s for s in loaded}
    chk.expect(sorted(by_id) == sorted(s.session_id for s in generated),
               "loaded corpus has other sessions than the generated one")
    for g in generated:
        s = by_id.get(g.session_id)
        if s is None:
            continue
        chk.expect(
            s.signal.dtype == g.signal.dtype
            and s.signal.shape == g.signal.shape
            and np.array_equal(s.signal.reshape(-1).view(np.uint8),
                               g.signal.reshape(-1).view(np.uint8)),
            f"session {g.session_id}: loaded signal differs from the generated one",
        )
        chk.expect(s.events == g.events, f"session {g.session_id}: events differ")
        chk.expect(s.channel_config == g.channel_config,
                   f"session {g.session_id}: channel config differs")


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def check_training(chk: Checks, report, epochs: int, steps: int, expected_steps: int):
    """Finite losses, a falling epoch loss and the step count of the epochs."""
    records = report.records
    chk.expect(len(records) == epochs,
               f"{len(records)} validation records for {epochs} epochs")
    for r in records:
        chk.expect(all(math.isfinite(v) for v in (r.train_loss, r.val_auprc, r.val_auroc)),
                   f"non-finite loss or validation metric at epoch {r.epoch}")
    if records:
        chk.expect(records[-1].train_loss < records[0].train_loss,
                   f"last epoch loss {records[-1].train_loss} is not below the "
                   f"first {records[0].train_loss}")
    chk.expect(steps == expected_steps,
               f"{steps} optimizer steps, expected {expected_steps}")


def expected_steps(labels, batch_size: int, positive_fraction: float, epochs: int) -> int:
    """epochs x ceil(negatives / negatives per batch)."""
    n_pos = math.floor(positive_fraction * batch_size + 0.5)
    negatives = int(np.sum(np.asarray(labels) == 0))
    return epochs * -(-negatives // (batch_size - n_pos))


def check_learned(chk: Checks, scores, labels):
    """The trained detector ranks its own training windows far above chance."""
    base = float(np.mean(labels))
    ap = oracles.average_precision(scores, labels)
    chk.expect(ap >= TRAIN_AUPRC_OVER_BASE * base,
               f"training-partition AUPRC {ap:.4f} < {TRAIN_AUPRC_OVER_BASE:g} x "
               f"base rate {base:.4f}")


def check_same_bytes(chk: Checks, first: str, other: str, what: str):
    chk.expect(first == other, f"{what}: digest {other[:12]} != {first[:12]}")


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------


def check_row_keys(chk: Checks, rows, expected, what: str):
    """One row per in-bounds word token of the partition, in corpus order,
    with its label: (session_id, token_index, label) as `oracles` finds them."""
    got = [(r.session_id, r.token_index, r.label) for r in rows]
    if got != expected:
        wrong = next((i for i, (a, b) in enumerate(zip(got, expected)) if a != b),
                     min(len(got), len(expected)))
        chk.expect(False, f"{what}: {len(got)} score rows for {len(expected)} in-bounds "
                          f"word tokens, first difference at row {wrong}")


def check_scores(chk: Checks, rows, reference, tol: float, what: str):
    """Scores equal to the float64 reference forward within `tol`."""
    if len(rows) != len(reference):
        chk.expect(False, f"{what}: {len(rows)} scores for {len(reference)} windows")
        return
    scores = np.array([r.score for r in rows])
    err = np.abs(scores - reference)
    worst = int(np.argmax(err)) if err.size else 0
    chk.expect(bool(np.all(err <= tol)),
               f"{what}: score {worst} is {err[worst]:.3g} from the reference forward "
               f"(tolerance {tol:g})")


def check_rows_equal(chk: Checks, written, read, what: str):
    """The scores file reads back exactly as written."""
    chk.expect(len(read) == len(written) and all(a == b for a, b in zip(written, read)),
               f"{what}: scores CSV does not round-trip exactly")


def check_batch_independence(chk: Checks, rows_a, rows_b, tol: float, what: str):
    a = np.array([r.score for r in rows_a])
    b = np.array([r.score for r in rows_b])
    chk.expect(a.shape == b.shape and bool(np.all(np.abs(a - b) <= tol)),
               f"{what}: scores depend on the batch size by more than {tol:g}")


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def null_moments(scores, labels, tau: float, ap_sd: float) -> dict[str, tuple[float, float]]:
    """Mean and SD of each report metric under a label shuffle."""
    labels = np.asarray(labels)
    n, k = labels.size, int(labels.sum())
    out = oracles.thresholded_null(n, k, int(np.sum(np.asarray(scores) >= tau)))
    out["auroc"] = oracles.auroc_null(n, k)
    out["auprc"] = (oracles.expected_random_ap(n, k), ap_sd)
    return out


def observed_values(scores, labels, tau: float) -> dict[str, float]:
    out = oracles.thresholded(scores, labels, tau)
    out["auroc"] = oracles.auroc_pairwise(scores, labels)
    out["auprc"] = oracles.average_precision(scores, labels)
    return out


def _check_p(chk: Checks, p: float, n_draws: int, what: str):
    count = (n_draws + 1) * p
    chk.expect(abs(count - round(count)) < 1e-6 and 1 <= round(count) <= n_draws + 1,
               f"{what}: (D+1)*p = {count} is not an integer in [1, {n_draws + 1}]")


def _check_null_mean(chk: Checks, got: float, mean: float, sd: float, n_draws: int, what):
    se = sd / math.sqrt(n_draws)
    chk.expect(abs(got - mean) <= NULL_Z * se,
               f"{what}: null mean {got:.6g} is {abs(got - mean) / se:.1f} SE from "
               f"its expectation {mean:.6g}")


def check_metrics_report(chk: Checks, report, values, nulls, n_draws: int, what: str):
    """One `build_metrics_report` against the oracle values and null moments."""
    for name in REPORT_METRICS:
        e = report.entries[name]
        label = f"{what} {name}"
        chk.close(e.value, values[name], f"{label} value")
        chk.expect(e.ci_lo <= e.ci_hi, f"{label}: bootstrap interval is not ordered")
        chk.expect(e.se == (e.ci_hi - e.ci_lo) / 3.92, f"{label}: se != (hi - lo) / 3.92")
        _check_p(chk, e.p_value, n_draws, label)
        _check_null_mean(chk, e.baseline, *nulls[name], n_draws, label)


def check_seed_mean(chk: Checks, result, name: str, values, nulls, n_draws: int):
    """A seed-mean permutation test: its observed value is the mean of the
    oracle values, and its null mean that of the per-seed expectations. The
    SD of a mean of correlated nulls is at most the mean of their SDs."""
    label = f"seed-mean {name}"
    chk.close(result.observed, float(np.mean([v[name] for v in values])), f"{label} observed")
    _check_p(chk, result.p_value, n_draws, label)
    mean = float(np.mean([m[name][0] for m in nulls]))
    sd = float(np.mean([m[name][1] for m in nulls]))
    _check_null_mean(chk, result.null_mean, mean, sd, n_draws, label)


def _check_point(chk: Checks, op, points, lam: float, what: str):
    thresholds, precision, recall = points
    hit = np.flatnonzero(thresholds == op.threshold)
    if hit.size != 1:
        chk.expect(False, f"{what}: threshold {op.threshold!r} is not a score")
        return
    i = int(hit[0])
    chk.close(op.precision, precision[i], f"{what} precision")
    chk.close(op.recall, recall[i], f"{what} recall")
    chk.close(op.fa_per_hour, oracles.fa_per_hour(precision[i], recall[i], lam),
              f"{what} FA/h", abs_tol=1e-12)


def check_min_fa(chk: Checks, op, points, lam: float, target_recall: float, what: str):
    """The least FA/h among the PR points that reach the target recall."""
    _check_point(chk, op, points, lam, what)
    _, precision, recall = points
    ok = (precision > 0) & (recall >= target_recall)
    chk.expect(op.feasible == bool(ok.any()), f"{what}: feasible flag is wrong")
    if ok.any():
        best = float(np.min(oracles.fa_per_hour(precision[ok], recall[ok], lam)))
        chk.close(op.fa_per_hour, best, f"{what} least FA/h", abs_tol=1e-12)


def check_max_recall(chk: Checks, op, points, lam: float, budget: float, what: str):
    """The highest recall among the PR points within the FA/h budget."""
    _check_point(chk, op, points, lam, what)
    _, precision, recall = points
    live = precision > 0
    ok = np.zeros_like(live)
    ok[live] = oracles.fa_per_hour(precision[live], recall[live], lam) <= budget
    chk.expect(op.feasible == bool(ok.any()), f"{what}: feasible flag is wrong")
    if ok.any():
        chk.close(op.recall, float(np.max(recall[ok])), f"{what} best recall")


def check_envelope(chk: Checks, curve, scores, labels, lam: float, what: str):
    """One point per PR point with P > 0, ascending in FA/h, each recall the
    best recall at no more FA/h. Points whose FA/h agree to rounding may come
    in either order, so the best recall is bracketed by the points strictly
    below and those up to a relative 1e-12 above."""
    _, precision, recall = oracles.pr_points(scores, labels)
    live = precision > 0
    fa_all = oracles.fa_per_hour(precision[live], recall[live], lam)
    rec_all = recall[live]
    chk.expect(len(curve) == fa_all.size, f"{what}: {len(curve)} points, want {fa_all.size}")
    fa = np.array([p[0] for p in curve])
    rec = np.array([p[1] for p in curve])
    chk.expect(bool(np.all(np.diff(fa) >= 0) and np.all(np.diff(rec) >= 0)),
               f"{what}: recall-vs-FA curve is not non-decreasing")
    for f, r in curve:
        below = rec_all[fa_all < f * (1 - 1e-12)]
        upto = rec_all[fa_all <= f * (1 + 1e-12) + 1e-300]
        lo = float(below.max()) if below.size else 0.0
        hi = float(upto.max()) if upto.size else 0.0
        if not lo <= r <= hi:
            chk.expect(False, f"{what}: recall {r} at {f} FA/h is outside [{lo}, {hi}]")
            return


def check_fp_per_hour(chk: Checks, rate: float, scores, labels, tau: float,
                      window_s: float, what: str):
    fp = int(np.sum((np.asarray(scores) >= tau) & (np.asarray(labels) == 0)))
    chk.close(rate, fp / (len(scores) * window_s / 3600.0), f"{what} FP/h")
