"""Command-line frontend for scripted experiment reproduction.

Subcommands: gen-data, train, predict, unlearn, verify, bench-tradeoff,
bench-influence.  Exit codes: 0 success, 2 usage, 3 data error (any
CodedUnlearnError, ValueError or OSError a command raises, reported as one
"error:" line on stderr), 4 verification failure.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

import click
from click.core import ParameterSource

from . import bench, ensemble
from .dataset import (
    SYNTHETIC_KINDS,
    SyntheticSpec,
    gen_synthetic,
    load_csv,
    read_numeric_csv,
    write_csv,
)
from .ensemble import learn, predict, verify_perfect_unlearning
from .errors import CodedUnlearnError
from .projections import make_projection
from .session import (
    is_int,
    is_number,
    list_of,
    load_session,
    save_session,
    session_lock,
    unlearn_session,
)

EXIT_DATA_ERROR = 3
EXIT_VERIFY_FAILURE = 4


class _Main(click.Group):
    """The one error boundary of every command: a data error becomes an
    "error:" line and exit 3; usage errors (exit 2) and verify's exit 4
    pass through."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (CodedUnlearnError, ValueError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            ctx.exit(EXIT_DATA_ERROR)


@click.group(cls=_Main)
def main():
    """Coded machine unlearning for regression."""


@main.command("gen-data")
@click.option("--kind", required=True, type=click.Choice(SYNTHETIC_KINDS))
@click.option("--n", type=int, required=True)
@click.option("--d", type=int, required=True)
@click.option("--mu", type=float, default=SyntheticSpec.mu, show_default=True)
@click.option("--sigma2", type=float, default=SyntheticSpec.sigma2,
              show_default=True)
@click.option("--dof", type=int, default=SyntheticSpec.dof, show_default=True)
@click.option("--degree", type=int, default=SyntheticSpec.degree)
@click.option("--layer-widths",
              default=",".join(map(str, SyntheticSpec.layer_widths)),
              show_default=True)
@click.option("--expose-expanded", is_flag=True,
              help="Return the polynomial expansion as the feature matrix.")
@click.option("--seed", type=int, default=SyntheticSpec.seed, show_default=True)
@click.option("--out", required=True, type=click.Path())
def cmd_gen_data(kind, n, d, mu, sigma2, dof, degree, layer_widths,
                 expose_expanded, seed, out):
    """Write a synthetic dataset CSV plus a JSON sidecar with the spec."""
    widths = tuple(int(w) for w in layer_widths.split(",") if w)
    spec = SyntheticSpec(kind=kind, n=n, d=d, mu=mu, sigma2=sigma2, dof=dof,
                         degree=degree, layer_widths=widths, seed=seed,
                         expose_expanded=expose_expanded)
    ds = gen_synthetic(spec)
    write_csv(ds, out)
    sidecar = Path(str(out) + ".spec.json")
    sidecar.write_text(json.dumps(asdict(spec), indent=2) + "\n")
    click.echo(f"wrote {ds.n} rows to {out}")


def _config_defaults(ctx, param, path):
    """Make a JSON config file's values the defaults of the options not
    given on the command line, so they pass through the options' types.
    The config key "lambda" names --lam.  A key naming no option is refused,
    and so is a null (it would skip the option's type), except for an
    optional option whose default is None."""
    if path is None:
        return
    cfg = json.loads(Path(path).read_text())
    if not isinstance(cfg, dict):
        raise click.BadParameter("must hold a JSON object", ctx, param)
    options = {p.name: p for p in ctx.command.params if p.expose_value}
    for key, value in cfg.items():
        option = options.get("lam" if key == "lambda" else key)
        if option is None or value is None and (
                option.required or option.default is not None):
            what = "unknown key" if option is None else "null for key"
            raise click.BadParameter(f"{what} {key!r}", ctx, param)
    if "lambda" in cfg:
        cfg["lam"] = cfg.pop("lambda")
    ctx.default_map = cfg


@main.command("train")
@click.option("--config", type=click.Path(exists=True), is_eager=True,
              expose_value=False, callback=_config_defaults,
              help="JSON file of option values; flags override it.")
@click.option("--data", type=click.Path(exists=True), required=True)
@click.option("--response-column", default="y")
@click.option("--s", "s", type=int, required=True)
@click.option("--r", "r", type=int, default=None)
@click.option("--tau", type=int, default=None, help="Rate; r = s / tau.")
@click.option("--rho", default="minimal",
              help="Bernoulli density, or 'minimal' for one-hot rows.")
@click.option("--lam", "--lambda", "lam", type=float, default=0.0)
@click.option("--proj-dim", type=int, default=None)
@click.option("--seed", type=int, default=0)
@click.option("--session", "session_dir", required=True, type=click.Path())
def cmd_train(data, response_column, s, r, tau, rho, lam, proj_dim, seed,
              session_dir):
    """Train a coded ensemble on a CSV and persist the session directory."""
    if r is not None and tau is not None:
        # a flag beats the config's value of the other key; two values from
        # the same place contradict each other
        source = click.get_current_context().get_parameter_source
        if source("r") == source("tau"):
            raise click.UsageError(
                "give --r or --tau, not both (a flag overrides --config)")
        if source("r") is ParameterSource.DEFAULT_MAP:
            r = None
    if r is None:
        if tau is None:
            raise click.UsageError("give --r or --tau")
        if tau < 1:
            raise click.UsageError(f"tau={tau} must be at least 1")
        if s % tau:
            raise click.UsageError(f"s={s} not divisible by tau={tau}")
        r = s // tau
    if rho != "minimal":
        rho = float(rho)
    if isinstance(response_column, str) and response_column.lstrip("-").isdigit():
        response_column = int(response_column)
    ds = load_csv(data, response_column)
    pmap = (make_projection(ds.num_features, proj_dim, seed)
            if proj_dim is not None else None)
    model, store, _ = learn(ds, s, r, rho, lam, projection=pmap, seed=seed)
    resolved = {
        "data": str(data), "response_column": response_column,
        "s": s, "r": r, "rho": rho, "lambda": lam,
        "proj_dim": proj_dim, "seed": seed,
    }
    directory = Path(session_dir)
    directory.mkdir(parents=True, exist_ok=True)
    with session_lock(directory):
        save_session(directory, model, store, resolved)
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
    model, _, _ = load_session(session_dir)
    _, features = read_numeric_csv(data)
    preds = predict(model, features)
    lines = "prediction\n" + "\n".join(repr(float(p)) for p in preds) + "\n"
    if out:
        Path(out).write_text(lines)
    else:
        click.echo(lines, nl=False)


def _id_cells(ctx, param, value):
    """--ids as a list of integers; a cell that is not one is a usage error,
    refused before the session is locked."""
    if value is None:
        return None
    ids = []
    for cell in filter(None, value.split(",")):
        try:
            ids.append(int(cell))
        except ValueError:
            raise click.BadParameter(f"{cell!r} is not an integer", ctx,
                                     param) from None
    return ids


@main.command("unlearn")
@click.option("--session", "session_dir", required=True,
              type=click.Path(exists=True))
@click.option("--ids", default=None, callback=_id_cells,
              help="Comma-separated sample ids.")
@click.option("--ids-file", type=click.Path(exists=True), default=None,
              help="JSON file with a list of sample ids.")
def cmd_unlearn(session_dir, ids, ids_file):
    """Unlearn samples from a session in place and print the report."""
    if (ids is None) == (ids_file is None):
        raise click.UsageError("give exactly one of --ids / --ids-file")
    id_list = json.loads(Path(ids_file).read_text()) if ids_file else ids
    if not isinstance(id_list, list) or not id_list:   # before the lock
        raise click.UsageError("give a nonempty list of sample ids "
                               "(a JSON list in --ids-file)")
    report = unlearn_session(session_dir, id_list)
    click.echo(f"unlearned {len(report.unlearned_ids)} sample(s); "
               f"retrained learners {report.affected_learners} "
               f"in {report.total_seconds:.4f}s")


def _nonnegative(ctx, param, value):
    """A NaN or negative tolerance would fail every verify; refuse it as a
    usage error before the session is read."""
    if not value >= 0:      # NaN fails the comparison
        raise click.BadParameter(f"{value} is not a nonnegative number",
                                 ctx, param)
    return value


@main.command("verify")
@click.option("--session", "session_dir", required=True,
              type=click.Path(exists=True))
@click.option("--tolerance", type=float, default=ensemble.DEFAULT_TOLERANCE,
              show_default=True, callback=_nonnegative)
def cmd_verify(session_dir, tolerance):
    """Check the live model against a full retrain on surviving samples."""
    model, store, _ = load_session(session_dir)
    report = verify_perfect_unlearning(model, store, tolerance)
    click.echo(f"max relative discrepancy: {report.max_discrepancy:.3e} "
               f"(tolerance {tolerance:g})")
    if not report.passed:
        click.echo("verification FAILED", err=True)
        sys.exit(EXIT_VERIFY_FAILURE)
    click.echo("verification passed")


# field of a bench spec's dataset -> (what it must hold, its check)
_DATASET_FIELDS = {
    **dict.fromkeys(("path", "response_column", "kind"),
                    ("a string", lambda v: type(v) is str)),
    **dict.fromkeys(("n", "d", "dof", "seed"), ("an integer", is_int)),
    **dict.fromkeys(("mu", "sigma2"), ("a number", is_number)),
    "degree": ("an integer or null", lambda v: v is None or is_int(v)),
    "layer_widths": ("a list of integers", list_of(is_int)),
    "expose_expanded": ("true or false", lambda v: type(v) is bool),
}

# top-level key of a bench spec -> (what it must hold, its check)
_SPEC_FIELDS = {
    **dict.fromkeys(("n_train", "runs", "seed"), ("an integer", is_int)),
    **dict.fromkeys(("rates", "shard_counts"),
                    ("a list of integers", list_of(is_int))),
    **dict.fromkeys(("lambdas", "percentiles"),
                    ("a list of numbers", list_of(is_number))),
    "lambda": ("a number", is_number),
    "density": ('"minimal" or a number',
                lambda v: v == "minimal" or is_number(v)),
    "projection_dim": ("an integer or null",
                       lambda v: v is None or is_int(v)),
    "band_columns": ("a list of integers or null",
                     lambda v: v is None or list_of(is_int)(v)),
    "label": ("a string", lambda v: type(v) is str),
}


def _check_fields(entry: dict, checks: dict, where: str) -> None:
    """A usage error naming the first key of entry whose value fails its
    check."""
    for key, (needs, check) in checks.items():
        if key in entry and not check(entry[key]):
            raise click.UsageError(
                f"{where}{key} must be {needs}, got {entry[key]!r}")


def _read_spec(path, *nonempty):
    """A bench spec: a JSON object with a dataset, n_train and the listed
    keys nonempty, and every key of _SPEC_FIELDS it holds of its type."""
    cfg = json.loads(Path(path).read_text())
    needs = f"spec needs dataset, n_train and nonempty {', '.join(nonempty)}"
    if not isinstance(cfg, dict):
        raise click.UsageError(f"{needs}; it is not a JSON object")
    missing = [k for k in ("dataset", "n_train") if k not in cfg] \
        + [k for k in nonempty if not cfg.get(k)]
    if missing:
        raise click.UsageError(
            f"{needs}; missing or empty: {', '.join(missing)}")
    _check_fields(cfg, _SPEC_FIELDS, "spec ")
    return cfg


def _dataset_from_spec(entry):
    """The dataset a spec names by a CSV path or SyntheticSpec fields, and
    its label."""
    if not isinstance(entry, dict):
        raise click.UsageError(
            "spec dataset must be a JSON object with a path or a kind")
    _check_fields(entry, _DATASET_FIELDS, "spec dataset ")
    if "path" in entry:
        return load_csv(entry["path"], entry.get("response_column", "y")), \
            Path(entry["path"]).stem
    if "kind" not in entry:
        raise click.UsageError("spec dataset needs a path or a kind")
    named = {f.name: entry[f.name] for f in fields(SyntheticSpec)
             if f.name in entry}
    if "layer_widths" in named:
        named["layer_widths"] = tuple(named["layer_widths"])
    return SyntheticSpec(**named), entry["kind"]


@main.command("bench-tradeoff")
@click.option("--spec", "spec_path", required=True,
              type=click.Path(exists=True))
@click.option("--out", required=True, type=click.Path())
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
              default="csv", show_default=True)
def cmd_bench_tradeoff(spec_path, out, fmt):
    """Run a shard-count sweep from a JSON spec and emit result records."""
    cfg = _read_spec(spec_path, "rates", "shard_counts", "lambdas")
    dataset, label = _dataset_from_spec(cfg["dataset"])
    sweep = bench.SweepSpec(
        dataset=dataset,
        n_train=cfg["n_train"],
        lambdas=tuple(cfg["lambdas"]),
        rates=tuple(cfg["rates"]),
        shard_counts=tuple(cfg["shard_counts"]),
        projection_dim=cfg.get("projection_dim"),
        dataset_label=cfg.get("label", label),
        **{k: cfg[k] for k in ("runs", "seed", "density") if k in cfg},
    )
    records = bench.run_tradeoff(sweep)
    bench.emit_results(records, out, fmt, config=cfg)
    click.echo(f"wrote {len(records)} records to {out}")


@main.command("bench-influence")
@click.option("--spec", "spec_path", required=True,
              type=click.Path(exists=True))
@click.option("--out", required=True, type=click.Path())
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
              default="csv", show_default=True)
def cmd_bench_influence(spec_path, out, fmt):
    """Run the outlier/inlier removal study from a JSON spec."""
    cfg = _read_spec(spec_path, "percentiles")
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
    click.echo(f"wrote {len(records)} records to {out}")


if __name__ == "__main__":
    main()
