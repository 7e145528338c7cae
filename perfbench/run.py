#!/usr/bin/env python3
"""Benchmark of orbitcanon's audits and augmented training.

    python3 perfbench/run.py --workload cloud_audit --seed 1 --seconds 40 --trace 0

Runs one workload in this process.  Every step is a call of
orbitcanon.cli.run with the argv a user would type, one after another.
The run first sets up (imports orbitcanon from ./src, writes the inputs,
trains the models an audit needs; nine times, see SETUP_REPEATS), then
repeats whole rounds of the workload's commands for --seconds, checking
the outputs of every round with checks.py.  orbitcanon is imported afresh
before every set-up and every round, so no module state carries over, as
none does between two CLI invocations.  The last line of stdout is
one JSON object: correct, attempted, failed, metrics.  With --trace 0 the
metrics are evals_per_s, setup_s and peak_rss_mb; with --trace 1 they are
the per-layer numbers of spans.py.  All times are on the calibrated clock
of clock.py.  Outputs go to perfbench/out/<workload>/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import checks
from clock import CalibratedClock
from spans import LAYER_METRICS, Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# One set-up takes 0.1-0.5 s, and the same set-up's time varies by up to
# 2x within a run, so setup_s is the median of nine.
SETUP_REPEATS = 9


class Run:
    """Counts operations and times CLI calls on the calibrated clock."""

    def __init__(self, clock):
        self.clock = clock
        self.program = self.cli = None
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.call_failed = False  # a CLI call of the current round failed

    def unload(self) -> None:
        for name in [n for n in sys.modules
                     if n == "orbitcanon" or n.startswith("orbitcanon.")]:
            del sys.modules[name]
        self.program = self.cli = None

    def load(self) -> float:
        """Import orbitcanon as a new process would; return the time taken."""
        start = self.clock.now()
        self.program = importlib.import_module("orbitcanon")
        self.cli = importlib.import_module("orbitcanon.cli")
        return self.clock.now() - start

    def call(self, *argv) -> float:
        argv = [str(a) for a in argv]
        self.attempted += 1
        start = self.clock.now()
        try:
            code = self.cli.run(argv)
        except (Exception, SystemExit):  # noqa: BLE001 - a crash is one failed operation
            traceback.print_exc()
            code = "an exception"
        elapsed = self.clock.now() - start
        if code != 0:
            self.failed += 1
            self.correct = False
            self.call_failed = True
            print(f"FAILED exit {code}: orbitcanon {' '.join(argv)}", file=sys.stderr)
        return elapsed

    def check(self, name, test) -> None:
        """Run test(), which reads outputs and raises if they are wrong."""
        self.attempted += 1
        if self.call_failed:
            # Its input is missing; the check is not run and not judged.
            self.failed += 1
            return
        try:
            test()
        except Exception as exc:  # noqa: BLE001 - unreadable output is wrong output
            self.failed += 1
            self.correct = False
            print(f"CHECK FAILED {name}: {exc!r}", file=sys.stderr)


def _seeds(seed: int, salt: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence([seed, salt]).generate_state(count)]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# Workloads.  setup() writes inputs and trains; commands() lists the timed
# round as (argv, units of work); verify() runs the output checks.


class CloudAudit:
    """Three cloud audits; the cloud canonicalizer does almost all the work."""

    TRAIN_PER_CLASS = 40  # the README's cloud example
    TEST_PER_CLASS = 10   # 40 test clouds of 64 points, as in the ROADMAP profile
    SAMPLES = 4           # canonical forms checked against eigh per round
    units_rot3d = 4 * TEST_PER_CLASS * 257   # clean + 16 x 16 grid
    units_scale = 4 * TEST_PER_CLASS * 10    # clean + 9 factors

    def __init__(self, seed: int):
        self.data_seed, self.test_seed, self.fit_seed, self.move_seed = \
            _seeds(seed, 1, 4)

    def setup(self, run: Run, d: Path) -> None:
        run.call("gen-data", "--kind", "clouds", "--seed", self.data_seed,
                 "--per-class", self.TRAIN_PER_CLASS, "--out", d / "train")
        run.call("gen-data", "--kind", "clouds", "--seed", self.test_seed,
                 "--per-class", self.TEST_PER_CLASS, "--out", d / "test")
        for canon in ("train", "off"):
            run.call("train", "--data", d / "train", "--mode", "plain",
                     "--canon", canon, "--epochs", 200, "--weight-decay", "3e-3",
                     "--seed", self.fit_seed, "--model", d / f"{canon}.bin")
        # Rotated, rescaled and translated copies of a few test clouds.
        rng = np.random.default_rng(self.move_seed)
        names, _ = checks.read_manifest(d / "test")
        for i, name in enumerate(rng.choice(names, self.SAMPLES, replace=False)):
            q, r = np.linalg.qr(rng.normal(size=(3, 3)))
            q = q * np.sign(np.diag(r))
            if np.linalg.det(q) < 0.0:
                q[:, 2] = -q[:, 2]
            X = checks.read_xyz((d / "test" / name).read_text())
            moved = rng.uniform(0.5, 2.0) * (X @ q) + rng.normal(size=3)
            shutil.copy(d / "test" / name, d / f"sample{i}.xyz")
            (d / f"moved{i}.xyz").write_text(checks.write_xyz(moved))

    def commands(self, d: Path):
        return [
            (("audit-rot3d", "--model", d / "train.bin", "--data", d / "test",
              "--out", d / "canon_rot3d.csv"), self.units_rot3d),
            (("audit-scale", "--model", d / "train.bin", "--data", d / "test",
              "--out", d / "canon_scale.csv"), self.units_scale),
            (("audit-rot3d", "--model", d / "off.bin", "--data", d / "test",
              "--out", d / "plain_rot3d.csv"), self.units_rot3d),
        ]

    def outputs(self, d: Path):
        return [d / "train.bin", d / "off.bin", d / "canon_rot3d.csv",
                d / "canon_scale.csv", d / "plain_rot3d.csv"]

    def verify(self, run: Run, d: Path) -> None:
        for i in range(self.SAMPLES):
            for stem in (f"sample{i}", f"moved{i}"):
                run.call("canon-cloud", "--in", d / f"{stem}.xyz",
                         "--out", d / f"{stem}.canon.xyz")

        def report(name):
            return checks.read_report((d / name).read_text())

        def cloud(name):
            return checks.read_xyz((d / name).read_text())

        for name in ("canon_rot3d.csv", "canon_scale.csv"):
            run.check(f"{name} is exactly invariant",
                      lambda: checks.exact_invariance(report(name)))
            run.check(f"{name} clean accuracy", lambda: checks.above_chance(
                report(name)["clean"], 0.75, "clean accuracy"))
        run.check("plain model collapses under rotation",
                  lambda: checks.plain_collapses(report("plain_rot3d.csv")))
        for name in ("canon_rot3d.csv", "canon_scale.csv", "plain_rot3d.csv"):
            run.check(f"{name} curve is consistent",
                      lambda: checks.curve_consistent(report(name)))
        for i in range(self.SAMPLES):
            run.check("canonical cloud matches eigh", lambda: checks.canonical_cloud(
                cloud(f"sample{i}.xyz"), cloud(f"sample{i}.canon.xyz")))
            run.check("canonical form is similarity invariant", lambda: checks.clouds_agree(
                cloud(f"sample{i}.canon.xyz"), cloud(f"moved{i}.canon.xyz")))


class ImageAudit:
    """Four 360-degree image audits; blur, mean gradient and resamplers work."""

    TRAIN_PER_CLASS = 12  # the README's image example
    TEST_PER_CLASS = 4    # 16 test images of 32 x 32, as in the ROADMAP profile
    units = 4 * TEST_PER_CLASS * 361  # clean + 360 angles

    def __init__(self, seed: int):
        self.data_seed, self.test_seed, self.fit_seed = _seeds(seed, 2, 3)

    def setup(self, run: Run, d: Path) -> None:
        run.call("gen-data", "--kind", "images", "--seed", self.data_seed,
                 "--per-class", self.TRAIN_PER_CLASS, "--out", d / "train")
        run.call("gen-data", "--kind", "images", "--seed", self.test_seed,
                 "--per-class", self.TEST_PER_CLASS, "--out", d / "test")
        for canon in ("train", "off"):
            run.call("train", "--data", d / "train", "--mode", "plain",
                     "--canon", canon, "--epochs", 120, "--scheme", "bilinear",
                     "--seed", self.fit_seed, "--model", d / f"{canon}.bin")

    def commands(self, d: Path):
        return [
            (("audit-rot2d", "--model", d / f"{model}.bin", "--data", d / "test",
              "--scheme", scheme, "--out", d / f"{model}_{scheme}.csv"), self.units)
            for model, scheme in (("train", "bilinear"), ("train", "bicubic"),
                                  ("off", "nearest"), ("off", "bilinear"))
        ]

    def outputs(self, d: Path):
        return [d / "train.bin", d / "off.bin"] + [
            d / f"{m}_{s}.csv" for m, s in (("train", "bilinear"), ("train", "bicubic"),
                                            ("off", "nearest"), ("off", "bilinear"))]

    def verify(self, run: Run, d: Path) -> None:
        def report(stem):
            return checks.read_report((d / f"{stem}.csv").read_text())

        for path in self.outputs(d)[2:]:
            run.check(f"{path.name} 0 degree entry equals clean",
                      lambda: checks.zero_entry_is_clean(report(path.stem)))
            run.check(f"{path.name} curve is consistent",
                      lambda: checks.curve_consistent(report(path.stem)))

        def quarter_turns():
            names, labels = checks.read_manifest(d / "test")
            images = [checks.read_pgm((d / "test" / n).read_bytes()) for n in names]
            checks.quarter_turns_match(report("off_nearest"),
                                       checks.read_model((d / "off.bin").read_bytes()),
                                       images, labels)
        run.check("nearest quarter turns equal np.rot90", quarter_turns)
        run.check("canonicalization narrows the gap", lambda: checks.gap_smaller(
            report("train_bilinear"), report("off_bilinear")))


class AugmentTrain:
    """Augmented training: fresh random angles, a new raster size, clouds."""

    IMAGE_SIZE = 48       # image_audit uses 32
    IMAGES_PER_CLASS = 8  # 32 images for 120 epochs, as in the ROADMAP profile
    HELDOUT_PER_CLASS = 4
    IMAGE_EPOCHS = 120
    CLOUDS_PER_CLASS = 40  # the README's cloud example
    CLOUD_EPOCHS = 200     # the CLI's default
    K = 4
    units_ra = IMAGE_EPOCHS * 4 * IMAGES_PER_CLASS          # one draw each
    units_adv = CLOUD_EPOCHS * 4 * CLOUDS_PER_CLASS * K     # k draws each

    def __init__(self, seed: int):
        self.image_seed, self.heldout_seed, self.cloud_seed, self.fit_seed = \
            _seeds(seed, 3, 4)
        self.adv_reference = None

    def setup(self, run: Run, d: Path) -> None:
        # gen-data has no raster-size flag, so the 48 x 48 suites come from
        # the library's generator and dataset writer.
        for seed, per_class, name in ((self.image_seed, self.IMAGES_PER_CLASS, "images"),
                                      (self.heldout_seed, self.HELDOUT_PER_CLASS,
                                       "images_heldout")):
            data = run.program.gen_synthetic_images(seed, n_per_class=per_class,
                                                    size=self.IMAGE_SIZE)
            run.program.save_dataset(data, d / name)
        run.call("gen-data", "--kind", "clouds", "--seed", self.cloud_seed,
                 "--per-class", self.CLOUDS_PER_CLASS, "--out", d / "clouds")

    def commands(self, d: Path):
        return [
            (("train", "--data", d / "images", "--mode", "ra", "--canon", "train",
              "--epochs", self.IMAGE_EPOCHS, "--seed", self.fit_seed,
              "--model", d / "ra.bin"), self.units_ra),
            (("train", "--data", d / "clouds", "--mode", "adv", "--k", self.K,
              "--canon", "off", "--epochs", self.CLOUD_EPOCHS, "--seed", self.fit_seed,
              "--model", d / "adv.bin"), self.units_adv),
        ]

    def outputs(self, d: Path):
        return [d / "ra.bin", d / "adv.bin"]

    def verify(self, run: Run, d: Path) -> None:
        names, labels = checks.read_manifest(d / "images_heldout")
        for i, name in enumerate(names):
            run.call("canon-image", "--in", d / "images_heldout" / name,
                     "--out", d / f"heldout{i}.canon.pgm")

        def model(name):
            return checks.read_model((d / f"{name}.bin").read_bytes())

        for name in ("ra", "adv"):
            run.check(f"{name}.bin parses with finite weights", lambda: model(name))

        def image_accuracy():
            feats = np.stack([checks.read_pgm((d / f"heldout{i}.canon.pgm").read_bytes())
                              .ravel() for i in range(len(names))])
            checks.above_chance(checks.accuracy(model("ra"), feats, labels), 0.75,
                                "held-out accuracy of the ra model")
        run.check("ra model is accurate on held-out images", image_accuracy)

        def adv_weights():
            # Worst-of-4 rotation training of a linear head on raw coordinates
            # does not converge to an accurate model (clean accuracy swings
            # from 0 to 0.75 with the seed), so the weights are recomputed
            # here instead.  Every round trains on the same inputs.
            if self.adv_reference is None:
                cloud_names, cloud_labels = checks.read_manifest(d / "clouds")
                clouds = np.stack([checks.read_xyz((d / "clouds" / n).read_text())
                                   for n in cloud_names])
                self.adv_reference = checks.adversarial_weights(
                    clouds, cloud_labels, 4, self.fit_seed, self.CLOUD_EPOCHS, self.K)
            checks.weights_match(model("adv"), self.adv_reference)
        run.check("adv model equals recomputed worst-of-k training", adv_weights)


WORKLOADS = {"cloud_audit": CloudAudit, "image_audit": ImageAudit,
             "augment_train": AugmentTrain}


# ---------------------------------------------------------------------------


def _round(run, workload, d):
    """One timed round; returns (units, calibrated seconds, wall seconds)."""
    run.call_failed = False
    units = elapsed = 0.0
    wall = time.perf_counter()
    for argv, n in workload.commands(d):
        elapsed += run.call(*argv)
        units += n
    return units, elapsed, time.perf_counter() - wall


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "orbitcanon" / "cli.py").is_file():
        print(f"error: no orbitcanon sources under {SRC}", file=sys.stderr)
        return 2

    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    sys.path.insert(0, str(SRC))
    clock = CalibratedClock()
    clock.start()
    try:
        return _measure(args, clock, out)
    finally:
        clock.stop()


def _measure(args, clock, out: Path) -> int:
    run = Run(clock)
    workload = WORKLOADS[args.workload](args.seed)
    tracer = Tracer(clock) if args.trace else None

    setups, imports, traced_parts = [], [], []
    for rep in range(SETUP_REPEATS):
        d = out / f"setup{rep}"
        d.mkdir()
        run.unload()
        # Each set-up starts from an empty young generation, so a full
        # collection lands in the same place of every set-up.
        gc.collect()
        start = clock.now()
        imports.append(run.load())
        if tracer is not None and rep == SETUP_REPEATS - 1:
            _, layers = tracer.measure(workload.setup, run, d)
            traced_parts.append(layers)
        else:
            workload.setup(run, d)
        setups.append(clock.now() - start)
    models = [[p.read_bytes() for p in sorted((out / f"setup{rep}").glob("*.bin"))]
              for rep in range(SETUP_REPEATS)]
    run.check("set-up is byte-identical when repeated", lambda: checks.require(
        all(m == models[0] for m in models), "set-up runs wrote different models"))
    print("set-up: " + ", ".join(f"{t:.4f}" for t in setups) + " s, of which import "
          + ", ".join(f"{t:.4f}" for t in imports) + " s", file=sys.stderr)

    totals = {False: [0.0, 0.0], True: [0.0, 0.0]}  # traced -> [units, seconds]
    first_hashes = None
    start = time.perf_counter()
    rounds, last_wall = 0, 0.0
    # Whole rounds only: a round starts if it is expected to end in time.
    while (rounds < (2 if tracer else 1)
           or time.perf_counter() - start + last_wall <= args.seconds):
        run.unload()
        run.load()
        traced = tracer is not None and rounds % 2 == 1
        if traced:
            (units, elapsed, last_wall), layers = tracer.measure(_round, run, workload, d)
            traced_parts.append(layers)
        else:
            units, elapsed, last_wall = _round(run, workload, d)
        totals[traced][0] += units
        totals[traced][1] += elapsed
        print(f"round {rounds}{' traced' if traced else ''}: {units / elapsed:.1f} "
              f"evals/s calibrated, {units / last_wall:.1f} evals/s wall", file=sys.stderr)
        rounds += 1
        workload.verify(run, d)
        hashes = [_sha256(p) if p.is_file() else None for p in workload.outputs(d)]
        first_hashes = first_hashes or hashes
        run.check("outputs are byte-identical across rounds", lambda: checks.require(
            hashes == first_hashes, "a round wrote different bytes"))

    for path, digest in zip(workload.outputs(d), first_hashes):
        print(f"sha256 {digest} {path.relative_to(out)}")
    reference = clock.reference_median()
    print(f"{rounds} rounds, reference kernel median {reference * 1e6:.1f} us",
          file=sys.stderr)

    if tracer is None:
        metrics = {
            "evals_per_s": (_rate(totals[False]), "1/s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "MB"),
        }
    else:
        metrics = _layer_metrics(traced_parts, statistics.median(imports), totals)
        tracer.write(out / "trace.jsonl")
        if tracer.absent:
            print("absent from this program: " + ", ".join(tracer.absent), file=sys.stderr)
    print(json.dumps({
        "correct": run.correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _rate(total) -> float:
    units, seconds = total
    return units / seconds


def _layer_metrics(parts, import_s, totals) -> dict:
    """One traced set-up plus the median of the traced rounds, per layer."""
    setup, rounds = parts[0], parts[1:]
    units = dict(LAYER_METRICS)
    # median_low keeps counts whole: it picks one of the traced rounds.
    metrics = {name: (setup[name] + statistics.median_low(r[name] for r in rounds),
                      units[name]) for name in setup}
    metrics["import.orbitcanon_s"] = (import_s, "s")
    untraced, traced = _rate(totals[False]), _rate(totals[True])
    metrics["trace.evals_per_s"] = (traced, "1/s")
    metrics["trace.untraced_evals_per_s"] = (untraced, "1/s")
    metrics["trace.overhead"] = (untraced / traced, "ratio")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
