"""Command-line entry points for dataset generation, training, attacks, and sweeps.

Exit codes: 0 success, 2 configuration error, 3 I/O error or malformed
artifact file, 4 numerical failure.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from functools import wraps
from pathlib import Path

import click
import numpy as np

from . import harness, numcore
from .attack import AttackConfig, attack_dataset
from .channel import build_dataset, dataset_to_csv, load_dataset, save_dataset
from .config import ConfigError
from .defense import adversarial_train, kept_round
from .framing import FormatError
from .harness import load_config


def _guarded(fn):
    @wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except FormatError as exc:
            click.echo(f"format error: {exc}", err=True)
            sys.exit(3)
        except OSError as exc:
            click.echo(f"i/o error: {exc}", err=True)
            sys.exit(3)
        except numcore.NumericalError as exc:
            click.echo(f"numerical failure: {exc}", err=True)
            sys.exit(4)
        except ValueError as exc:
            click.echo(f"config error: {exc}", err=True)
            sys.exit(2)

    return wrapper


def _refuse_overwrite(outputs, inputs) -> None:
    """Refuse, before anything is read, an output file that names an earlier
    output or an input: each is a (flag, path) pair, path None if not given."""
    for i, (flag, path) in enumerate(outputs):
        for other, other_path in [*outputs[:i], *inputs]:
            if path and other_path and Path(path).resolve() == Path(other_path).resolve():
                raise ConfigError(f"{flag} and {other} name the same file: {other_path}")


_format_option = click.option(
    "--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", help="Report format."
)


@click.group()
def main():
    """Beam-rate prediction pipeline: datasets, models, attacks, defenses, sweeps."""


@main.command()
@click.option("--config", type=click.Path(), default=None, help="JSON experiment config.")
@click.option("--seed", type=click.IntRange(min=0), default=None, help="Override the scenario seed.")
@click.option("--instances", type=int, default=None, help="Override the instance count.")
@click.option("--out", type=click.Path(), required=True, help="Output dataset file.")
@click.option("--csv", "csv_path", type=click.Path(), default=None, help="Also export CSV here.")
@_guarded
def generate(config, seed, instances, out, csv_path):
    """Simulate a dataset and write it as a binary dataset file."""
    _refuse_overwrite([("--out", out), ("--csv", csv_path)], [("--config", config)])
    cfg = load_config(config)
    params = cfg.scenario if seed is None else replace(cfg.scenario, seed=seed)
    count = instances if instances is not None else cfg.num_instances
    ds = build_dataset(params, count)
    save_dataset(ds, out)
    if csv_path:
        dataset_to_csv(ds, csv_path)
    click.echo(f"wrote {ds.num_rows} instances x {ds.num_features} features to {out}")


@main.command()
@click.option("--config", type=click.Path(), default=None, help="JSON experiment config.")
@click.option("--data", type=click.Path(), required=True, help="Training dataset file.")
@click.option("--seed", type=click.IntRange(min=0), default=1, help="Seed for init and shuffling.")
@click.option("--out", type=click.Path(), required=True, help="Output model checkpoint.")
@_guarded
def train(config, data, seed, out):
    """Train the predictor on a dataset and save a checkpoint."""
    _refuse_overwrite([("--out", out)], [("--config", config), ("--data", data)])
    cfg = load_config(config)
    ds = load_dataset(data)
    model, history = numcore.fit(ds, cfg.train, np.random.default_rng(seed))
    numcore.save_model(model, out)
    click.echo(f"trained {cfg.train.epochs} epochs; final train MSE {history[-1]:.6g}")
    click.echo(f"saved checkpoint to {out}")


@main.command()
@click.option("--model", "model_path", type=click.Path(), required=True, help="Model checkpoint.")
@click.option("--data", type=click.Path(), required=True, help="Dataset to perturb.")
@click.option("--eps", type=float, required=True, help="l-infinity budget.")
@click.option("--out", type=click.Path(), required=True, help="Output perturbed dataset file.")
@_guarded
def attack(model_path, data, eps, out):
    """Write an FGSM-perturbed copy of a dataset."""
    _refuse_overwrite([("--out", out)], [("--model", model_path), ("--data", data)])
    budget = AttackConfig(epsilon=eps)
    model = numcore.load_model(model_path)
    ds = load_dataset(data)
    if model.spec.input_dim != ds.num_features:
        raise ConfigError(
            f"model {model_path} takes {model.spec.input_dim} features, "
            f"dataset {data} has {ds.num_features}"
        )
    x_adv = attack_dataset(model, ds, budget)
    save_dataset(replace(ds, features=x_adv, adversarial=True, epsilon=float(eps)), out)
    clean = numcore.mse_loss(numcore.predict(model, ds.features), ds.labels)
    attacked = numcore.mse_loss(numcore.predict(model, x_adv), ds.labels)
    click.echo(f"clean MSE {clean:.6g} -> attacked MSE {attacked:.6g} at eps={eps:g}")


@main.command()
@click.option("--config", type=click.Path(), default=None, help="JSON experiment config.")
@click.option("--data", type=click.Path(), required=True, help="Training dataset file.")
@click.option("--seed", type=click.IntRange(min=0), default=1, help="Seed for the defense run.")
@click.option("--out", type=click.Path(), required=True, help="Output model checkpoint.")
@click.option("--history", "history_path", type=click.Path(), default=None, help="Round history CSV.")
@_guarded
def defend(config, data, seed, out, history_path):
    """Adversarially train a predictor and save the robust checkpoint."""
    outputs = [("--out", out), ("--history", history_path)]
    _refuse_overwrite(outputs, [("--config", config), ("--data", data)])
    cfg = load_config(config)
    ds = load_dataset(data)
    rng = np.random.default_rng(seed)
    model, _ = numcore.fit(ds, cfg.train, rng)
    model, history = adversarial_train(model, ds, cfg.train, cfg.defense, rng)
    numcore.save_model(model, out)
    if history_path:
        harness.rounds_to_csv([history], history_path)
    kept = kept_round(history)
    click.echo(
        f"{len(history)} rounds; kept round {kept.round_index}: clean MSE "
        f"{kept.clean_mse:.6g}, adversarial MSE {kept.adv_mse:.6g}"
    )


@main.command()
@click.option("--config", type=click.Path(), default=None, help="JSON experiment config.")
@click.option("--seed", type=click.IntRange(min=0), default=None, help="Override the scenario seed.")
@click.option("--reps", type=int, default=None, help="Override repetition count.")
@click.option("--eps", type=str, default=None, help="Comma-separated attack budgets.")
@click.option("--out", type=click.Path(), default=None, help="Override output directory.")
@_format_option
@_guarded
def run(config, seed, reps, eps, out, fmt):
    """Run the full scenario sweep and write results plus a summary report."""
    cfg = load_config(config)
    if seed is not None:
        cfg = replace(cfg, scenario=replace(cfg.scenario, seed=seed))
    if eps is not None:
        try:
            eps = tuple(float(v) for v in eps.split(","))
        except ValueError:
            raise ConfigError(f"--eps must be a comma-separated float list, got {eps!r}")
    flags = {"repetitions": reps, "attack_grid": eps, "output_dir": out}
    cfg = replace(cfg, **{name: v for name, v in flags.items() if v is not None})
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)  # before the sweep, so a bad --out fails first
    result = harness.run_experiment(cfg)
    result.to_csv(out_dir / "results.csv")
    harness.write_manifest(cfg, out_dir / "manifest.json")
    result.stages_to_csv(out_dir / "stages.csv")
    harness.rounds_to_csv(result.rounds, out_dir / "defense_rounds.csv")
    summary = harness.summarize(result)
    written = harness.emit_report(summary, out_dir, fmt)
    files = ("results.csv", "manifest.json", "stages.csv", "defense_rounds.csv")
    for path in [*(out_dir / name for name in files), *written]:
        click.echo(f"wrote {path}")
    for row in summary:
        click.echo(
            f"{row.scenario_id} eps={row.epsilon:.6g}: mean MSE {row.mean_mse:.6g} "
            f"(n={row.n})"
        )


@main.command()
@click.option("--results", type=click.Path(), required=True, help="results.csv from a run.")
@click.option("--out", type=click.Path(), required=True, help="Output directory.")
@_format_option
@_guarded
def report(results, out, fmt):
    """Summarize an existing results table into a report."""
    result = harness.ExperimentResult.from_csv(results)
    summary = harness.summarize(result)
    written = harness.emit_report(summary, out, fmt)
    for path in written:
        click.echo(f"wrote {path}")


if __name__ == "__main__":
    main()
