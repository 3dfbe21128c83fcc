"""Self-test of the benchmark's checks: each must pass on real program output
and fail on a corrupted copy of it.

    PYTHONPATH=src:bench python3 bench/selftest.py

Runs a small sweep, dataset and attack in-process (a few seconds on one
core), then applies one corruption at a time. Exits 1 if the clean output
fails a check or a corruption goes unnoticed.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

import numpy as np

import checks
from beamsec import attack, channel, cli, numcore

FAILURES = []


def expect(name: str, fn, *args, passes: bool = False) -> None:
    try:
        fn(*args)
    except checks.CheckFailed as exc:
        outcome = "ok" if not passes else "FAIL"
        print(f"{outcome}: {name}: rejected ({exc})")
        if passes:
            FAILURES.append(name)
        return
    outcome = "ok" if passes else "FAIL"
    print(f"{outcome}: {name}: accepted")
    if not passes:
        FAILURES.append(name)


def _replace_line(text: str, index: int, line: str) -> str:
    lines = text.splitlines()
    lines[index] = line
    return "\n".join(lines) + "\n"


def _nudge_6th_digit(value: str) -> str:
    mantissa, _, exponent = f"{float(value):.5e}".partition("e")
    last = int(mantissa[-1])
    mantissa = mantissa[:-1] + str(last + 1 if last < 9 else last - 1)
    return f"{float(mantissa + 'e' + exponent):.6g}"


def sweep_cases(tmp: Path) -> None:
    config = tmp / "config.json"
    config.write_text(json.dumps({"num_instances": 4000, "defense": {"max_rounds": 2}}))
    out = tmp / "sweep"
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main.main(
            ["run", "--config", str(config), "--reps", "2", "--out", str(out)],
            prog_name="beamsec",
            standalone_mode=False,
        )
    results = (out / "results.csv").read_text()
    summary = (out / "summary.csv").read_text()
    ratios = (out / "ratios.csv").read_text()
    grid = checks.BUDGETS
    expect("sweep results as written", checks.check_results, results, grid, 2, passes=True)
    expect("sweep reports as written", checks.check_reports, results, summary, ratios, passes=True)

    lines = results.splitlines()
    expect("results.csv with a row dropped", checks.check_results, "\n".join(lines[:5] + lines[6:]), grid, 2)
    swapped = lines[:5] + [lines[6], lines[5]] + lines[7:]
    expect("results.csv with two rows reordered", checks.check_results, "\n".join(swapped), grid, 2)

    rows = [line.split(",") for line in lines[1:]]
    sc2 = {(r[1], r[2]): i + 1 for i, r in enumerate(rows) if r[0] == "SC2"}
    a, b = sc2[("0.05", "0")], sc2[("0.06", "0")]
    ra, rb = lines[a].split(","), lines[b].split(",")
    flipped = _replace_line(_replace_line(results, a, ",".join(ra[:3] + rb[3:])), b, ",".join(rb[:3] + ra[3:]))
    expect("results.csv with SC2 falling between two budgets", checks.check_results, flipped, grid, 2)
    top = [i + 1 for i, r in enumerate(rows) if r[0] == "SC3" and r[1] == "0.1"]
    inflated = results
    for i in top:
        sc, eps, rep, mse = lines[i].split(",")
        inflated = _replace_line(inflated, i, f"{sc},{eps},{rep},{float(mse) * 10:.12g}")
    expect("results.csv with SC3 at 0.1 ten times larger", checks.check_results, inflated, grid, 2)

    s_lines = summary.splitlines()
    fields = s_lines[3].split(",")
    fields[2] = _nudge_6th_digit(fields[2])
    expect(
        "summary.csv with a mean changed in its sixth significant digit",
        checks.check_reports,
        results,
        _replace_line(summary, 3, ",".join(fields)),
        ratios,
    )
    r_lines = ratios.splitlines()
    fields = r_lines[4].split(",")
    fields[2] = _nudge_6th_digit(fields[2])
    expect(
        "ratios.csv with a ratio changed in its sixth significant digit",
        checks.check_reports,
        results,
        summary,
        _replace_line(ratios, 4, ",".join(fields)),
    )
    sc, eps, rep, mse = lines[1].split(",")
    other = _replace_line(results, 1, f"{sc},{eps},{rep},{float(mse) * (1 + 1e-11):.12g}")
    expect("two runs of one seed with identical results.csv", checks.check_reproducible, [results, results], passes=True)
    expect("two runs of one seed whose results.csv differ in one digit", checks.check_reproducible, [results, other])


def datagen_cases(tmp: Path) -> None:
    rows = 5000
    bin_path, csv_path = tmp / "data.bin", tmp / "data.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main.main(
            ["generate", "--seed", "3", "--instances", str(rows), "--out", str(bin_path), "--csv", str(csv_path)],
            prog_name="beamsec",
            standalone_mode=False,
        )
    loaded = channel.load_dataset(bin_path)
    expect("dataset files as written", checks.check_dataset_files, bin_path, csv_path, rows, loaded, passes=True)
    header, X, y = checks.read_dataset_file(bin_path)
    reference = checks.reference_grid()
    expect("dataset values as written", checks.check_dataset_values, header, X, y, reference, passes=True)

    expect("labels scaled by 1.01", checks.check_dataset_values, header, X, y * 1.01, reference)
    shifted = X.copy()
    shifted[:, 3] += 1e-6
    expect("a feature column shifted by 1e-6", checks.check_dataset_values, header, shifted, y, reference)

    # move one label to the rate of the grid point 0.2 m farther out in x
    points, pilots, rates = reference
    meta = header["norm_meta"]
    raw = X * np.asarray(meta["feature_std"]) + np.asarray(meta["feature_mean"])
    span = meta["label_max"] - meta["label_min"]
    row = next(i for i in range(rows) if 0.0 < y[i] < checks.LABEL_CAP)
    here = int(np.argmin(np.sum((pilots - raw[row]) ** 2, axis=1)))
    step = 0.2 if points[here, 0] < 7.9 else -0.2
    there = int(np.argmin(np.sum((points - points[here] - [step, 0.0]) ** 2, axis=1)))
    moved = y.copy()
    moved[row] = meta["label_cap"] * (rates[there] - meta["label_min"]) / span
    expect("a label moved to a neighbouring grid point's rate", checks.check_dataset_values, header, X, moved, reference)

    blob = bin_path.read_bytes()
    truncated = tmp / "truncated.bin"
    truncated.write_bytes(blob[:-8])
    expect("a dataset file missing its last value", checks.check_dataset_files, truncated, csv_path, rows, loaded)
    text = csv_path.read_text().splitlines()
    cells = text[7].split(",")
    cells[2] = repr(float(np.nextafter(float(cells[2]), np.inf)))
    altered = tmp / "altered.csv"
    altered.write_text("\n".join(text[:7] + [",".join(cells)] + text[8:]) + "\n")
    expect("a CSV value changed in its last bits", checks.check_dataset_files, bin_path, altered, rows, loaded)


def attack_cases() -> None:
    ds = channel.build_dataset(channel.default_scenario(seed=2), 6000)
    rng = np.random.default_rng(2)
    train_ds, test = channel.split_dataset(ds, 0.5, rng)
    model = numcore.init_model(train_ds.num_features, int(rng.integers(0, 2**63)))
    numcore.train(model, train_ds, numcore.TrainConfig(), rng)
    X, y = test.features, test.labels
    sample = np.arange(500)
    fd_signs, resolved = checks.fd_gradient_signs(lambda Z: numcore.predict(model, Z), X[sample], y[sample])
    eps = 0.05
    x_adv = attack.attack_dataset(model, test, attack.AttackConfig(epsilon=eps))

    def signs_check(adv):
        signs = checks.perturbation_signs(X, adv, eps)
        checks.check_signs(signs[sample], fd_signs, resolved, eps)

    expect("FGSM output as computed", signs_check, x_adv, passes=True)
    r, c = map(int, np.argwhere(resolved)[7])
    flipped = x_adv.copy()
    flipped[r, c] = X[r, c] - (x_adv[r, c] - X[r, c])
    expect("one FGSM sign flipped", signs_check, flipped)
    zeroed = x_adv.copy()
    zeroed[r, c] = X[r, c]
    expect("one resolvable component left unperturbed", signs_check, zeroed)
    longer = x_adv.copy()
    longer[r, c] = X[r, c] + (x_adv[r, c] - X[r, c]) * (1 + 1e-6)
    expect("one component longer than the budget", signs_check, longer)
    shorter = x_adv.copy()
    shorter[r, c] = X[r, c] + 0.5 * (x_adv[r, c] - X[r, c])
    expect("one component at half the budget", signs_check, shorter)
    expect("the perturbation at half the budget", signs_check, X + 0.5 * (x_adv - X))

    mses = [float(np.mean((numcore.predict(model, X + e * np.sign(x_adv - X)) - y) ** 2)) for e in checks.BUDGETS]
    clean = float(np.mean((numcore.predict(model, X) - y) ** 2))
    expect("attacked MSE curve as computed", checks.check_mse_curve, clean, mses, passes=True)
    expect("attacked MSE falling between two budgets", checks.check_mse_curve, clean, mses[:4] + [mses[5], mses[4]] + mses[6:])
    expect("attacked MSE below the clean MSE", checks.check_mse_curve, mses[0] * 1.01, mses)


def main() -> int:
    tmp = Path(__file__).resolve().parent / "out" / "selftest"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        sweep_cases(tmp)
        datagen_cases(tmp)
        attack_cases()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{len(FAILURES)} check(s) misjudged" if FAILURES else "every check passed its output and rejected each corruption")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
