"""Each output check passes on real output and fails on a broken one.

    python3 -m pytest -q perfbench
"""

import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
from checks import CheckFailed

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from orbitcanon.audit import (TrainConfig, evaluate_rotation_sweep_2d,  # noqa: E402
                              gen_synthetic_clouds, gen_synthetic_images,
                              train_classifier)
from orbitcanon.cloud import canonicalize_similarity  # noqa: E402
from orbitcanon.formats import save_model, write_pgm, write_report  # noqa: E402


@pytest.fixture(scope="module")
def image_case():
    data = gen_synthetic_images(seed=11, n_per_class=1)
    model = train_classifier(data, TrainConfig(epochs=30, seed=3))
    report = evaluate_rotation_sweep_2d(model, data, scheme="nearest")
    images = [checks.read_pgm(write_pgm(img, maxval=65535)) for img, _ in data.samples]
    blob = save_model(model)
    return (checks.read_model(blob),
            checks.read_report(write_report(report.document())),
            images, data.labels(), blob)


def _broken(report, **changes):
    out = dict(report, curve=report["curve"].copy())
    for key, value in changes.items():
        if key.startswith("curve"):
            out["curve"][int(key[5:])] = value
        else:
            out[key] = value
    return out


def test_nan_weight_model_fails(image_case):
    model, _, _, _, blob = image_case
    assert model["weights"].shape == (4, 32 * 32)
    head = struct.calcsize(checks.MODEL_HEAD)
    broken = blob[:head] + np.array([np.nan], "<f8").tobytes() + blob[head + 8:]
    with pytest.raises(CheckFailed, match="non-finite"):
        checks.read_model(broken)


def test_truncated_model_fails(image_case):
    blob = image_case[4]
    with pytest.raises(CheckFailed, match="layout needs"):
        checks.read_model(blob[:-8])
    with pytest.raises(CheckFailed, match="no header"):
        checks.read_model(blob[:10])


def test_report_whose_zero_entry_disagrees_with_clean_fails(image_case):
    report = image_case[1]
    checks.zero_entry_is_clean(report)
    checks.curve_consistent(report)
    broken = _broken(report, curve0=report["clean"] - 0.25)
    with pytest.raises(CheckFailed, match="differs from clean"):
        checks.zero_entry_is_clean(broken)
    with pytest.raises(CheckFailed, match="curve mean"):
        checks.curve_consistent(broken)


def test_quarter_turn_mismatch_fails(image_case):
    model, report, images, labels, _ = image_case
    checks.quarter_turns_match(report, model, images, labels)
    broken = _broken(report, curve180=report["curve"][180] + 0.25)
    with pytest.raises(CheckFailed, match="180 degrees"):
        checks.quarter_turns_match(broken, model, images, labels)


def test_report_checks_fail_on_wrong_summaries(image_case):
    report = image_case[1]
    invariant = _broken(report, clean=0.5, average=0.5, worst=0.5)
    checks.exact_invariance(invariant)
    with pytest.raises(CheckFailed, match="not exactly invariant"):
        checks.exact_invariance(_broken(invariant, average=0.75))
    with pytest.raises(CheckFailed, match="did not collapse"):
        checks.plain_collapses(invariant)
    checks.plain_collapses(_broken(invariant, worst=0.25))
    with pytest.raises(CheckFailed, match="below"):
        checks.above_chance(checks.CHANCE, 0.75, "clean accuracy")
    wide = _broken(invariant, worst=0.0)
    checks.gap_smaller(invariant, wide)
    with pytest.raises(CheckFailed, match="not below"):
        checks.gap_smaller(wide, invariant)


def test_canonical_cloud_checks():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(64, 3)) * np.array([1.3, 1.0, 0.7]) + 2.0
    canonical, _ = canonicalize_similarity(X)
    checks.canonical_cloud(X, canonical)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    moved, _ = canonicalize_similarity(3.0 * X @ q - 1.0)
    checks.clouds_agree(canonical, moved)
    with pytest.raises(CheckFailed, match="differ by"):
        checks.clouds_agree(canonical, moved + 1e-6)
    with pytest.raises(CheckFailed, match="not diagonal"):
        checks.canonical_cloud(X, canonical @ np.array(
            [[np.cos(0.1), -np.sin(0.1), 0.0], [np.sin(0.1), np.cos(0.1), 0.0],
             [0.0, 0.0, 1.0]]))
    with pytest.raises(CheckFailed, match="not descending"):
        checks.canonical_cloud(X, canonical[:, [1, 0, 2]])
    with pytest.raises(CheckFailed, match="centroid"):
        checks.canonical_cloud(X, canonical + 1e-3)


def test_adversarial_weights_check():
    data = gen_synthetic_clouds(seed=4, n_per_class=10)
    model = train_classifier(data, TrainConfig(mode="adversarial", k=4, epochs=5, seed=9))
    clouds = np.stack([c for c, _ in data.samples])
    read = checks.read_model(save_model(model))
    args = (clouds, data.labels(), 4, 9, 5, 4)
    checks.weights_match(read, checks.adversarial_weights(*args))
    zero = {"weights": np.zeros_like(read["weights"]), "bias": np.zeros_like(read["bias"])}
    with pytest.raises(CheckFailed, match="differ from the recomputed"):
        checks.weights_match(zero, checks.adversarial_weights(*args))
    with pytest.raises(CheckFailed, match="differ from the recomputed"):
        checks.weights_match(read, checks.adversarial_weights(*args, pick=np.argmin))
    with pytest.raises(CheckFailed, match="differ from the recomputed"):
        checks.weights_match(read, checks.adversarial_weights(*args[:-1], 3))


def test_failed_call_makes_the_run_incorrect():
    import run

    class Clock:
        def now(self):
            return 0.0

    class Cli:
        @staticmethod
        def run(argv):
            if argv == ["renamed-flag"]:
                raise SystemExit(1)  # as argparse does on an unknown flag
            return int(argv[0])

    r = run.Run(Clock())
    r.cli = Cli()
    r.call(0)
    r.check("holds", lambda: None)
    assert (r.attempted, r.failed, r.correct) == (2, 0, True)
    r.call(2)
    r.check("skipped", lambda: None)
    assert (r.attempted, r.failed, r.correct) == (4, 2, False)
    r = run.Run(Clock())
    r.cli = Cli()
    r.call("renamed-flag")
    assert (r.attempted, r.failed, r.correct) == (1, 1, False)


def test_xyz_round_trip_is_exact():
    X = np.random.default_rng(6).normal(size=(8, 3))
    assert np.array_equal(checks.read_xyz(checks.write_xyz(X)), X)


def test_benchmark_without_program_sources_fails(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cloud_audit",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert result.returncode != 0
    assert result.stdout == ""
