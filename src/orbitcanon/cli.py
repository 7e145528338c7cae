"""Command-line interface.

Subcommands cover canonicalization of single files, synthetic dataset
generation, training, the three audits, probability curves, and a
self-verification suite.  All outputs are byte-deterministic given
identical inputs and flags.  Exit codes: 0 success, 1 usage error,
2 data error, 3 degenerate-input hard failure, 4 selftest failure.
Usage errors include non-finite hyperparameters, negative seeds and
curve labels outside the model's classes.  Data errors include model
files with non-finite parameters, empty datasets, inputs whose size
differs from the model's or from the rest of their dataset, and audits
of a kind of data they do not take.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
from pathlib import Path

import numpy as np

from . import audit as _audit
from . import formats as _formats
from .cloud import (DegenerateCloudError, canonicalize_clouds, canonicalize_similarity,
                    eig3_sym)
from .groups import (CanonResult, check_group_axioms, equivariant_average,
                     equivariant_canon, finite_orbit_canonicalize, invariant_wrap,
                     quarter_turn_group, symmetric_group)
from .image import GrayImage, SCHEMES, canonicalize_image, canonicalize_images, rotate_image
from .vectors import mean_subtract, sort_canonicalize, sort_energy

_MODE_NAMES = {"plain": "plain", "ra": "random_augment", "adv": "adversarial",
               "mixed": "mixed", "adv-alp": "adversarial_alp",
               "adv-kl": "adversarial_kl"}
_CANON_NAMES = {"off": "off", "train": "train_and_test", "test": "test_only"}
_GENERATORS = {"images": _audit.gen_synthetic_images, "clouds": _audit.gen_synthetic_clouds}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of calling sys.exit, so run() owns codes."""

    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="orbitcanon",
                     description="Orbit canonicalization and robustness audits.")
    sub = parser.add_subparsers(dest="subcommand", metavar="subcommand")

    p = sub.add_parser("canon-image", help="canonicalize one PGM image")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.add_argument("--scheme", choices=SCHEMES, default="bilinear")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--report", default=None)
    p.set_defaults(handler=_cmd_canon_image)

    p = sub.add_parser("canon-cloud", help="canonicalize one XYZ/OFF cloud")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.add_argument("--frame", default=None)
    p.set_defaults(handler=_cmd_canon_cloud)

    p = sub.add_parser("gen-data", help="generate a synthetic labeled dataset")
    p.add_argument("--kind", choices=tuple(_GENERATORS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--per-class", type=int, default=12)
    p.add_argument("--out", dest="outdir", required=True)
    p.set_defaults(handler=_cmd_gen_data)

    p = sub.add_parser("train", help="train the linear softmax classifier")
    p.add_argument("--data", required=True)
    p.add_argument("--mode", choices=sorted(_MODE_NAMES), default="plain")
    p.add_argument("--k", type=int, default=10,
                   help="transforms drawn per sample for adv, mixed, adv-alp "
                        "and adv-kl, which train on the worst; ra draws one "
                        "and ignores --k")
    p.add_argument("--lambda", dest="lam", type=float, default=0.0)
    p.add_argument("--canon", choices=sorted(_CANON_NAMES), default="off")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--model", required=True)
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--lr", type=float, default=0.5)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--weight-decay", type=float, default=0.0)
    p.add_argument("--scheme", choices=SCHEMES, default="bilinear")
    p.add_argument("--sigma", type=float, default=1.0)
    p.set_defaults(handler=_cmd_train)

    # Each audit names its function, which _cmd_audit looks up on the audit
    # module when it runs, so a wrapper patched onto that module is called.
    for audit, evaluate, schemed in (("rot2d", "evaluate_rotation_sweep_2d", True),
                                     ("rot3d", "evaluate_rotation_grid_3d", False),
                                     ("scale", "evaluate_scale_sweep", False)):
        p = sub.add_parser(f"audit-{audit}", help=f"run the {audit} audit")
        p.add_argument("--model", required=True)
        p.add_argument("--data", required=True)
        p.add_argument("--out", dest="outfile", required=True)
        if schemed:
            p.add_argument("--scheme", choices=SCHEMES, default="bilinear")
        p.set_defaults(handler=_cmd_audit, evaluate=evaluate)

    p = sub.add_parser("curve", help="true-class probability vs rotation angle")
    p.add_argument("--model", required=True)
    p.add_argument("--sample", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.add_argument("--label", type=int, default=None)
    p.add_argument("--scheme", choices=SCHEMES, default="bilinear")
    p.set_defaults(handler=_cmd_curve)

    sub.add_parser("selftest", help="run the built-in invariant suite").set_defaults(
        handler=_cmd_selftest)
    return parser


def _read_cloud_file(path: Path) -> np.ndarray:
    text = _formats.read_cloud_text(path)
    if path.suffix.lower() == ".off":
        return _formats.read_off(text)
    return _formats.read_xyz(text)


def _cmd_canon_image(args) -> int:
    if not 0.0 < args.sigma < math.inf:
        raise _UsageError(f"--sigma must be positive and finite, got {args.sigma}")
    img = _formats.read_pgm(Path(args.infile).read_bytes())
    res = canonicalize_image(img.pixels, scheme=args.scheme, sigma=args.sigma)
    Path(args.outfile).write_bytes(_formats.write_pgm(res.canonical))
    if args.report:
        Path(args.report).write_text(_formats.write_table(
            "# orbitcanon canon-image v1",
            {"scheme": args.scheme, "sigma": args.sigma},
            "alpha_radians,gradient_magnitude,degenerate",
            [(res.element, res.energy, res.degenerate)]))
    return 0


def _cmd_canon_cloud(args) -> int:
    X = _read_cloud_file(Path(args.infile))
    canonical, frame = canonicalize_similarity(X)
    Path(args.outfile).write_text(_formats.write_xyz(canonical))
    if args.frame:
        rows = [("centroid", *frame.centroid), ("scale", frame.scale, "", ""),
                ("signs", *frame.signs), ("singular_values", *frame.singular_values)]
        rows += [(f"basis_row{i}", *frame.basis[i]) for i in range(3)]
        Path(args.frame).write_text(_formats.write_table(
            "# orbitcanon canon-cloud frame v1",
            {"degenerate": frame.degenerate}, "field,x,y,z", rows))
    return 0


def _cmd_gen_data(args) -> int:
    if args.per_class < 1:
        raise _UsageError("--per-class must be >= 1")
    data = _GENERATORS[args.kind](args.seed, n_per_class=args.per_class)
    _formats.save_dataset(data, args.outdir)
    return 0


def _cmd_train(args) -> int:
    try:
        cfg = _audit.TrainConfig(
            mode=_MODE_NAMES[args.mode], k=args.k, lam=args.lam,
            epochs=args.epochs, learning_rate=args.lr, batch_size=args.batch,
            weight_decay=args.weight_decay, seed=args.seed,
            canonicalize=_CANON_NAMES[args.canon], scheme=args.scheme,
            sigma=args.sigma)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    data = _formats.load_dataset(args.data)
    model = _audit.train_classifier(data, cfg)
    Path(args.model).write_bytes(_formats.save_model(model))
    return 0


def _cmd_audit(args) -> int:
    model = _formats.load_model(Path(args.model).read_bytes())
    data = _formats.load_dataset(args.data)
    options = {"scheme": args.scheme} if "scheme" in args else {}
    report = getattr(_audit, args.evaluate)(model, data, **options)
    Path(args.outfile).write_text(_formats.write_report(report))
    return 0


def _cmd_curve(args) -> int:
    model = _formats.load_model(Path(args.model).read_bytes())
    path = Path(args.sample)
    if model.kind == "image":
        datum, angles = _formats.read_pgm(path.read_bytes()).pixels, np.radians(np.arange(360.0))
    else:
        datum, angles = _read_cloud_file(path), 2.0 * np.pi * np.arange(16) / 16.0
    if args.label is None:
        # Default to the model's prediction on the untransformed sample.
        label = int(model.predict(_audit.featurize(model, datum[None]))[0])
    else:
        label = args.label
        n_classes = model.weights.shape[0]
        if not 0 <= label < n_classes:
            raise _UsageError(f"--label {label} is not a class of this "
                              f"{n_classes}-class model (0..{n_classes - 1})")
    probs = _audit.softmax_curve(model, (datum, label), angles, scheme=args.scheme)
    rows = [(i, math.degrees(float(a)), float(p))
            for i, (a, p) in enumerate(zip(angles, probs))]
    Path(args.outfile).write_text(_formats.write_table(
        "# orbitcanon curve v1",
        {"kind": model.kind, "label": label,
         "scheme": args.scheme if model.kind == "image" else ""},
        "index,angle_degrees,probability", rows))
    return 0


# ---------------------------------------------------------------------------
# selftest: each check asserts one invariant on data it draws from the
# generator it is given, a fresh default_rng(SELFTEST_SEED) per check, so
# any check runs alone.  SELFTEST_CHECKS lists them in the order selftest
# runs them; tests/test_acceptance.py runs each as a test of its own.

SELFTEST_SEED = 20240817


def _group_axioms(rng):
    check_group_axioms(quarter_turn_group(), [rng.random((4, 4))])
    check_group_axioms(symmetric_group(3), [rng.random(3)])


def _sort_oracle(rng):
    for _ in range(200):
        x = np.round(rng.normal(size=4), 3)
        best = max((tuple(x[list(p)]) for p in itertools.permutations(range(4))),
                   key=lambda v: (sort_energy(np.array(v)), v))
        got = sort_canonicalize(x).canonical
        assert tuple(got) == best, (x, got, best)


def _shift_invariance(rng):
    for _ in range(100):
        x = rng.normal(size=8)
        a, _ = mean_subtract(x)
        b, _ = mean_subtract(x + rng.normal())
        assert np.allclose(a, b, atol=1e-12)


def _eig_reconstruction(rng):
    for _ in range(100):
        A = rng.normal(size=(3, 3))
        C = A + A.T
        w, V = eig3_sym(C)
        assert np.linalg.norm(V @ np.diag(w) @ V.T - C) < 1e-9
        assert w[0] >= w[1] >= w[2]


def _cloud_invariance(rng):
    for _ in range(20):
        X = rng.normal(size=(32, 3)) * np.array([1.5, 1.0, 0.6])
        c0, _ = canonicalize_similarity(X)
        theta = rng.uniform(0, 2 * np.pi)
        R = _audit.rotation_about(int(rng.integers(3)), theta)
        Y = rng.uniform(0.5, 2.0) * (X @ R) + rng.normal(size=3)
        c1, _ = canonicalize_similarity(Y)
        assert np.abs(c0 - c1).max() < 1e-8


def _rotation_identity(rng):
    img = rng.random((12, 12))
    for scheme in SCHEMES:
        assert np.array_equal(rotate_image(img, 0.0, scheme), img)
    q = rotate_image(img, math.pi / 2, "nearest")
    assert np.array_equal(q, np.rot90(img, 1))


def _angle_consistency(rng):
    img = _audit.gen_synthetic_images(seed=12, n_per_class=1).inputs[0]
    betas = np.radians([0.0, 30.0, 120.0, 250.0])
    a0, *angles = canonicalize_images(rotate_image(np.stack([img] * 4), betas)).element
    for beta, a in zip(betas[1:], angles):
        diff = (a - (a0 - beta) + math.pi) % (2 * math.pi) - math.pi
        assert abs(diff) < math.radians(2.0), (math.degrees(beta), diff)


def _equivariance(rng):
    grid = np.round(rng.random((8, 8)) * 256) / 256
    mask = np.round(rng.random((8, 8)) * 16) / 16

    def inner(a):
        return np.asarray(a) * mask

    g4 = quarter_turn_group()
    left = equivariant_average(np.rot90(grid, 1), g4, inner)
    right = np.rot90(equivariant_average(grid, g4, inner), 1)
    assert np.array_equal(left, right)

    X = rng.normal(size=(24, 3)) * np.array([1.4, 1.0, 0.7])
    A = rng.normal(size=(3, 3))

    def conjugated(clouds):
        return equivariant_canon(clouds, canonicalize_clouds, lambda c: c @ A,
                                 lambda frame, y: frame.inverted().transform(y))

    R = np.array([r for _, r in _audit.rotation_grid_3d()])
    assert np.abs(conjugated(X @ R) - conjugated(X[None]) @ R).max() < 1e-8


def _roundtrips(rng):
    img = GrayImage(rng.random((9, 7)))
    back = _formats.read_pgm(_formats.write_pgm(img, maxval=65535))
    assert np.abs(back.pixels - img.pixels).max() < 1e-4
    X = rng.normal(size=(10, 3))
    assert np.array_equal(_formats.read_xyz(_formats.write_xyz(X)), X)
    model = _audit.LinearSoftmaxModel(
        weights=rng.normal(size=(3, 5)), bias=rng.normal(size=3),
        kind="cloud", canonicalize="train_and_test")
    loaded = _formats.load_model(_formats.save_model(model))
    assert np.array_equal(loaded.weights, model.weights)
    assert np.array_equal(loaded.bias, model.bias)
    assert loaded.canonicalize == model.canonicalize


def _wrapped_invariance(rng):
    f = invariant_wrap(sort_canonicalize, lambda v: float(np.sum(v * np.arange(len(v)))))
    x = rng.normal(size=5)
    p = rng.permutation(5)
    assert f(x) == f(x[p])
    res = finite_orbit_canonicalize(x, symmetric_group(5), energy=sort_energy)
    assert np.allclose(res.canonical, sort_canonicalize(x).canonical)
    g = invariant_wrap(lambda v: CanonResult(mean_subtract(v)[0], None), lambda v: float(v @ v))
    assert abs(g(x) - g(x + 3.25)) < 1e-9


SELFTEST_CHECKS = (
    ("group axioms (C4, S3)", _group_axioms),
    ("sort canonicalization matches brute force", _sort_oracle),
    ("mean subtraction is shift invariant", _shift_invariance),
    ("symmetric eigendecomposition reconstructs", _eig_reconstruction),
    ("cloud canonicalization is similarity invariant", _cloud_invariance),
    ("zero rotation is the identity; quarter turn is rot90", _rotation_identity),
    ("canonical angle tracks rotations", _angle_consistency),
    ("group averaging and canonicalizer conjugation are equivariant", _equivariance),
    ("file formats round-trip", _roundtrips),
    ("invariant wrappers are invariant", _wrapped_invariance),
)


def _cmd_selftest(args=None) -> int:
    failures = 0
    for name, check in SELFTEST_CHECKS:
        try:
            check(np.random.default_rng(SELFTEST_SEED))
        except Exception as exc:  # noqa: BLE001 - report and keep going
            failures += 1
            print(f"FAIL {name}: {exc}", file=sys.stderr)
        else:
            print(f"ok   {name}")
    if failures:
        print(f"{failures} selftest check(s) failed", file=sys.stderr)
        return 4
    print("all selftest checks passed")
    return 0


def run(argv=None) -> int:
    """Parse argv and execute one subcommand, returning the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.subcommand is None:
            parser.print_usage(sys.stderr)
            return 1
        if getattr(args, "seed", 0) < 0:
            raise _UsageError(f"--seed must be >= 0, got {args.seed}")
        return args.handler(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except FileNotFoundError as exc:
        parent = Path(str(exc.filename)).parent
        missing = f"file: {exc.filename}" if parent.is_dir() else f"directory: {parent}"
        print(f"error: missing {missing}", file=sys.stderr)
        return 2
    except DegenerateCloudError as exc:
        print(f"error: degenerate input: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
