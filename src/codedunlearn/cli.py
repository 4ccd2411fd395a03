"""Command-line frontend for scripted experiment reproduction.

Subcommands: gen-data, train, predict, unlearn, verify, bench-tradeoff,
bench-influence.  Exit codes: 0 success, 2 usage, 3 data error,
4 verification failure.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict
from pathlib import Path

import click

from . import bench
from .dataset import (
    SyntheticSpec,
    _read_numeric_csv,
    gen_synthetic,
    load_csv,
    write_csv,
)
from .ensemble import learn, predict, unlearn, verify_perfect_unlearning
from .errors import CodedUnlearnError
from .projections import make_projection
from .session import (
    append_unlearn_log,
    load_session,
    save_session,
    session_lock,
)

EXIT_DATA_ERROR = 3
EXIT_VERIFY_FAILURE = 4


def _load_config(path):
    if path is None:
        return {}
    return json.loads(Path(path).read_text())


def _resolve(flag_value, config, key, default=None):
    """Flags override config-file values, which override defaults."""
    if flag_value is not None:
        return flag_value
    return config.get(key, default)


def _fail(exc: Exception):
    click.echo(f"error: {exc}", err=True)
    sys.exit(EXIT_DATA_ERROR)


@click.group()
def main():
    """Coded machine unlearning for regression."""


@main.command("gen-data")
@click.option("--kind", required=True,
              type=click.Choice(["lognormal-poly", "chisquare-poly", "mlp",
                                 "gaussian-linear"]))
@click.option("--n", type=int, required=True)
@click.option("--d", type=int, required=True)
@click.option("--mu", type=float, default=1.0, show_default=True)
@click.option("--sigma2", type=float, default=4.0, show_default=True)
@click.option("--dof", type=int, default=1, show_default=True)
@click.option("--degree", type=int, default=None)
@click.option("--layer-widths", default="50,25,50", show_default=True)
@click.option("--expose-expanded", is_flag=True,
              help="Return the polynomial expansion as the feature matrix.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", required=True, type=click.Path())
def cmd_gen_data(kind, n, d, mu, sigma2, dof, degree, layer_widths,
                 expose_expanded, seed, out):
    """Write a synthetic dataset CSV plus a JSON sidecar with the spec."""
    widths = tuple(int(w) for w in layer_widths.split(",") if w)
    spec = SyntheticSpec(kind=kind, n=n, d=d, mu=mu, sigma2=sigma2, dof=dof,
                         degree=degree, layer_widths=widths, seed=seed,
                         expose_expanded=expose_expanded)
    try:
        ds = gen_synthetic(spec)
        write_csv(ds, out)
        sidecar = Path(str(out) + ".spec.json")
        sidecar.write_text(json.dumps(asdict(spec), indent=2) + "\n")
    except (CodedUnlearnError, OSError) as exc:
        _fail(exc)
    click.echo(f"wrote {ds.n} rows to {out}")


@main.command("train")
@click.option("--data", type=click.Path(exists=True), default=None)
@click.option("--response-column", default=None)
@click.option("--s", "s", type=int, default=None)
@click.option("--r", "r", type=int, default=None)
@click.option("--tau", type=int, default=None, help="Rate; r = s / tau.")
@click.option("--rho", default=None,
              help="Bernoulli density, or 'minimal' for one-hot rows.")
@click.option("--lam", "--lambda", "lam", type=float, default=None)
@click.option("--proj-dim", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--config", type=click.Path(exists=True), default=None)
@click.option("--session", "session_dir", required=True, type=click.Path())
def cmd_train(data, response_column, s, r, tau, rho, lam, proj_dim, seed,
              config, session_dir):
    """Train a coded ensemble on a CSV and persist the session directory."""
    cfg = _load_config(config)
    data = _resolve(data, cfg, "data")
    response_column = _resolve(response_column, cfg, "response_column", "y")
    s = _resolve(s, cfg, "s")
    r = _resolve(r, cfg, "r")
    tau = _resolve(tau, cfg, "tau")
    rho = _resolve(rho, cfg, "rho", "minimal")
    lam = _resolve(lam, cfg, "lambda", 0.0)
    proj_dim = _resolve(proj_dim, cfg, "proj_dim")
    seed = _resolve(seed, cfg, "seed", 0)
    if data is None or s is None:
        raise click.UsageError("--data and --s are required (flag or config)")
    if r is None:
        if tau is None:
            raise click.UsageError("give --r or --tau")
        if s % tau:
            raise click.UsageError(f"s={s} not divisible by tau={tau}")
        r = s // tau
    if rho != "minimal":
        rho = float(rho)
    if isinstance(response_column, str) and response_column.lstrip("-").isdigit():
        response_column = int(response_column)
    try:
        ds = load_csv(data, response_column)
        pmap = (make_projection(ds.num_features, proj_dim, seed)
                if proj_dim else None)
        model, store, _ = learn(ds, s, r, rho, lam, projection=pmap,
                                seed=seed)
        resolved = {
            "data": str(data), "response_column": response_column,
            "s": s, "r": r, "rho": rho, "lambda": lam,
            "proj_dim": proj_dim, "seed": seed,
        }
        directory = Path(session_dir)
        directory.mkdir(parents=True, exist_ok=True)
        with session_lock(directory):
            save_session(directory, model, store, resolved)
    except CodedUnlearnError as exc:
        _fail(exc)
    click.echo(f"trained {r} learners on {store.shard_size}-row coded shards; "
               f"session at {session_dir}")


@main.command("predict")
@click.option("--session", "session_dir", required=True,
              type=click.Path(exists=True))
@click.option("--data", required=True, type=click.Path(exists=True),
              help="CSV of raw feature rows (header row, no response).")
@click.option("--out", type=click.Path(), default=None)
def cmd_predict(session_dir, data, out):
    """Predict through the aggregate model of a trained session."""
    try:
        model, _, _ = load_session(session_dir)
        _, features = _read_numeric_csv(data)
        preds = predict(model, features)
    except (CodedUnlearnError, ValueError) as exc:
        _fail(exc)
    lines = "prediction\n" + "\n".join(repr(float(p)) for p in preds) + "\n"
    if out:
        Path(out).write_text(lines)
    else:
        click.echo(lines, nl=False)


@main.command("unlearn")
@click.option("--session", "session_dir", required=True,
              type=click.Path(exists=True))
@click.option("--ids", default=None, help="Comma-separated sample ids.")
@click.option("--ids-file", type=click.Path(exists=True), default=None,
              help="JSON file with a list of sample ids.")
def cmd_unlearn(session_dir, ids, ids_file):
    """Unlearn samples from a session in place and print the report."""
    if (ids is None) == (ids_file is None):
        raise click.UsageError("give exactly one of --ids / --ids-file")
    id_list = (json.loads(Path(ids_file).read_text()) if ids_file
               else [int(v) for v in ids.split(",") if v])
    try:
        directory = Path(session_dir)
        with session_lock(directory):
            model, store, cfg = load_session(directory)
            model, store, report = unlearn(model, store, id_list)
            save_session(directory, model, store, cfg)
            append_unlearn_log(directory, {
                "ids": report.unlearned_ids,
                "affected_learners": report.affected_learners,
                "retrain_seconds": report.total_seconds,
            })
    except CodedUnlearnError as exc:
        _fail(exc)
    click.echo(f"unlearned {len(report.unlearned_ids)} sample(s); "
               f"retrained learners {report.affected_learners} "
               f"in {report.total_seconds:.4f}s")


@main.command("verify")
@click.option("--session", "session_dir", required=True,
              type=click.Path(exists=True))
@click.option("--tolerance", type=float, default=1e-8, show_default=True)
def cmd_verify(session_dir, tolerance):
    """Check the live model against a full retrain on surviving samples."""
    try:
        model, store, _ = load_session(session_dir)
        report = verify_perfect_unlearning(model, store, tolerance)
    except CodedUnlearnError as exc:
        _fail(exc)
    click.echo(f"max relative discrepancy: {report.max_discrepancy:.3e} "
               f"(tolerance {tolerance:g})")
    if not report.passed:
        click.echo("verification FAILED", err=True)
        sys.exit(EXIT_VERIFY_FAILURE)
    click.echo("verification passed")


def _dataset_from_spec(entry):
    if "path" in entry:
        return load_csv(entry["path"], entry.get("response_column", "y")), \
            Path(entry["path"]).stem
    spec = SyntheticSpec(
        kind=entry["kind"], n=entry["n"], d=entry["d"],
        mu=entry.get("mu", 1.0), sigma2=entry.get("sigma2", 4.0),
        dof=entry.get("dof", 1), degree=entry.get("degree"),
        layer_widths=tuple(entry.get("layer_widths", (50, 25, 50))),
        seed=entry.get("seed", 0),
        expose_expanded=entry.get("expose_expanded", False),
    )
    return spec, entry["kind"]


@main.command("bench-tradeoff")
@click.option("--spec", "spec_path", required=True,
              type=click.Path(exists=True))
@click.option("--out", required=True, type=click.Path())
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
              default="csv", show_default=True)
def cmd_bench_tradeoff(spec_path, out, fmt):
    """Run a shard-count sweep from a JSON spec and emit result records."""
    cfg = json.loads(Path(spec_path).read_text())
    if not cfg.get("rates") or not cfg.get("shard_counts") \
            or not cfg.get("lambdas"):
        raise click.UsageError("sweep spec needs nonempty rates, "
                               "shard_counts, and lambdas")
    try:
        dataset, label = _dataset_from_spec(cfg["dataset"])
        sweep = bench.SweepSpec(
            dataset=dataset,
            n_train=cfg["n_train"],
            lambdas=tuple(cfg["lambdas"]),
            rates=tuple(cfg["rates"]),
            shard_counts=tuple(cfg["shard_counts"]),
            runs=cfg.get("runs", 20),
            seed=cfg.get("seed", 0),
            density=cfg.get("density", "minimal"),
            projection_dim=cfg.get("projection_dim"),
            dataset_label=cfg.get("label", label),
        )
        records = bench.run_tradeoff(sweep)
        bench.emit_results(records, out, fmt, config=cfg)
    except CodedUnlearnError as exc:
        _fail(exc)
    click.echo(f"wrote {len(records)} records to {out}")


@main.command("bench-influence")
@click.option("--spec", "spec_path", required=True,
              type=click.Path(exists=True))
@click.option("--out", required=True, type=click.Path())
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
              default="csv", show_default=True)
def cmd_bench_influence(spec_path, out, fmt):
    """Run the outlier/inlier removal study from a JSON spec."""
    cfg = json.loads(Path(spec_path).read_text())
    if not cfg.get("percentiles"):
        raise click.UsageError("influence spec needs nonempty percentiles")
    try:
        dataset, label = _dataset_from_spec(cfg["dataset"])
        records = bench.run_influence(
            dataset,
            percentiles=cfg["percentiles"],
            runs=cfg.get("runs", 20),
            lam=cfg.get("lambda", 0.0),
            n_train=cfg["n_train"],
            seed=cfg.get("seed", 0),
            projection_dim=cfg.get("projection_dim"),
            band_columns=cfg.get("band_columns"),
            dataset_label=cfg.get("label", label),
        )
        bench.emit_results(records, out, fmt, config=cfg)
    except CodedUnlearnError as exc:
        _fail(exc)
    click.echo(f"wrote {len(records)} records to {out}")


if __name__ == "__main__":
    main()
