"""Output checks for the benchmark, written against the documented formats.

Nothing here imports orbitcanon: model files, reports, PGM rasters and XYZ
clouds are parsed by the layouts the README of the program documents, and
every expected number is computed here with numpy.  Each check raises
CheckFailed with a message that says what was wrong.
"""

from __future__ import annotations

import struct

import numpy as np

MODEL_MAGIC = b"OCLM0001"
MODEL_HEAD = "<8sBBBBd II"
CHANCE = 0.25  # four balanced classes in every synthetic suite


class CheckFailed(Exception):
    pass


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Readers


def read_model(data: bytes) -> dict:
    """Parse a model blob: magic, four code bytes, f8 sigma, u32 C and F,
    then C x F row-major f8 weights and C f8 biases, all little-endian."""
    head = struct.calcsize(MODEL_HEAD)
    require(len(data) >= head, f"model file of {len(data)} bytes has no header")
    magic, _, _, _, _, sigma, n_classes, n_features = \
        struct.unpack(MODEL_HEAD, data[:head])
    require(magic == MODEL_MAGIC, f"bad model magic {magic!r}")
    need = head + 8 * (n_classes * n_features + n_classes)
    require(len(data) == need,
            f"model file is {len(data)} bytes, layout needs {need}")
    flat = np.frombuffer(data, dtype="<f8", offset=head)
    weights = flat[:n_classes * n_features].reshape(n_classes, n_features)
    bias = flat[n_classes * n_features:]
    require(np.all(np.isfinite(weights)) and np.all(np.isfinite(bias))
            and np.isfinite(sigma), "model has non-finite weights, bias or sigma")
    return {"weights": weights, "bias": bias}


def read_report(text: str) -> dict:
    """Parse a report: '# key=value' preamble, then index,transform,accuracy."""
    meta, labels, curve = {}, [], []
    lines = text.splitlines()
    require(lines and lines[0] == "# orbitcanon report v1", "not a v1 report")
    rows = False
    for line in lines[1:]:
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            meta[key] = value
        elif line == "index,transform,accuracy":
            rows = True
        else:
            require(rows, f"row before the column header: {line!r}")
            index, label, acc = line.split(",")
            require(int(index) == len(curve), f"row {index} out of order")
            labels.append(label)
            curve.append(float(acc))
    for key in ("clean", "average", "worst"):
        require(key in meta, f"report lacks {key}")
        meta[key] = float(meta[key])
    meta["grid"] = labels
    meta["curve"] = np.array(curve)
    return meta


def read_pgm(data: bytes) -> np.ndarray:
    """Binary P5 raster scaled by its maxval into [0, 1]."""
    fields, pos = [], 2
    require(data[:2] == b"P5", "not a binary PGM")
    while len(fields) < 3:
        while data[pos:pos + 1].isspace():
            pos += 1
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        fields.append(int(data[start:pos]))
    width, height, maxval = fields
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    raster = np.frombuffer(data, dtype=dtype, count=width * height, offset=pos + 1)
    return raster.astype(float).reshape(height, width) / maxval


def read_xyz(text: str) -> np.ndarray:
    return np.array([[float(v) for v in line.split()]
                     for line in text.splitlines() if line.strip()])


def write_xyz(points) -> str:
    return "".join(" ".join(f"{v:.17g}" for v in row) + "\n" for row in points)


def read_manifest(directory) -> tuple[list[str], np.ndarray]:
    names, labels = [], []
    for line in (directory / "manifest.csv").read_text().splitlines():
        if line.startswith("#") or line == "filename,label,class_name":
            continue
        name, label, _ = line.split(",")
        names.append(name)
        labels.append(int(label))
    return names, np.array(labels)


def _log_softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def accuracy(model: dict, features: np.ndarray, labels: np.ndarray) -> float:
    """Accuracy of the linear softmax head, by the benchmark's own matmul."""
    logits = features @ model["weights"].T + model["bias"]
    return float(np.mean(np.argmax(logits, axis=1) == labels))


# ---------------------------------------------------------------------------
# Checks on reports


def exact_invariance(report: dict) -> None:
    require(report["clean"] == report["average"] == report["worst"],
            f"canonicalized report is not exactly invariant: clean="
            f"{report['clean']!r} average={report['average']!r} "
            f"worst={report['worst']!r}")


def above_chance(value: float, floor: float, what: str) -> None:
    require(value >= floor,
            f"{what} is {value!r}, below {floor} (chance is {CHANCE})")


def plain_collapses(report: dict) -> None:
    require(report["worst"] <= 0.5 * report["clean"],
            f"plain model did not collapse: worst={report['worst']!r} > "
            f"0.5 * clean={report['clean']!r}")


def zero_entry_is_clean(report: dict) -> None:
    require(report["grid"] and report["grid"][0] == "0",
            "report does not start at the zero transform")
    require(report["curve"][0] == report["clean"],
            f"0 degree accuracy {float(report['curve'][0])!r} differs from clean "
            f"{report['clean']!r}")


def curve_consistent(report: dict) -> None:
    """average is the mean of the curve and worst never exceeds its minimum."""
    curve = report["curve"]
    require(curve.size > 0, "report has no curve")
    require(report["average"] == float(curve.mean()),
            f"average {report['average']!r} is not the curve mean "
            f"{float(curve.mean())!r}")
    require(report["worst"] <= curve.min(),
            f"worst {report['worst']!r} exceeds the curve minimum {curve.min()!r}")


def quarter_turns_match(report: dict, model: dict, images, labels) -> None:
    """A nearest quarter turn is np.rot90, so those accuracies are known."""
    for quarter in (1, 2, 3):
        feats = np.stack([np.rot90(img, quarter).ravel() for img in images])
        want = accuracy(model, feats, labels)
        got = report["curve"][90 * quarter]
        require(got == want, f"accuracy at {90 * quarter} degrees is {got!r}, "
                             f"np.rot90 gives {want!r}")


def gap_smaller(canon: dict, plain: dict) -> None:
    g_canon = canon["average"] - canon["worst"]
    g_plain = plain["average"] - plain["worst"]
    require(g_canon < g_plain, f"canonicalized average-worst gap {g_canon!r} "
                               f"is not below the plain gap {g_plain!r}")


# ---------------------------------------------------------------------------
# Checks on canonical clouds


def canonical_cloud(original: np.ndarray, canonical: np.ndarray) -> None:
    """The canonical cloud is the centred, unit-mean-norm cloud on its
    principal axes, largest second moment first."""
    require(canonical.shape == original.shape,
            f"canonical cloud has shape {canonical.shape}, want {original.shape}")
    centred = original - original.mean(axis=0)
    scaled = centred / np.linalg.norm(centred, axis=1).mean()
    w, v = np.linalg.eigh(scaled.T @ scaled)
    w, v = w[::-1], v[:, ::-1]
    require(np.abs(canonical.mean(axis=0)).max() < 1e-12,
            f"canonical centroid {canonical.mean(axis=0)} is not 0")
    norm = np.linalg.norm(canonical, axis=1).mean()
    require(abs(norm - 1.0) < 1e-12, f"canonical mean norm {norm!r} is not 1")
    moments = canonical.T @ canonical
    off = moments - np.diag(np.diag(moments))
    require(np.abs(off).max() < 1e-9 * w[0],
            f"canonical second moments are not diagonal: {moments}")
    require(np.all(np.diff(np.diag(moments)) < 0.0),
            f"canonical second moments {np.diag(moments)} are not descending")
    require(np.allclose(np.diag(moments), w, rtol=1e-9, atol=0.0),
            f"second moments {np.diag(moments)} differ from eigh {w}")
    require(np.allclose(np.abs(canonical), np.abs(scaled @ v), rtol=0.0, atol=1e-8),
            "canonical axes differ from the eigh eigenvectors")


def clouds_agree(a: np.ndarray, b: np.ndarray, tol: float = 1e-8) -> None:
    diff = np.abs(a - b).max()
    require(diff <= tol, f"canonical forms of similar clouds differ by {diff!r}")


# ---------------------------------------------------------------------------
# Adversarial training, recomputed


def rotation_grid_3d(steps: int = 16) -> np.ndarray:
    """The cloud audit grid Rz(2 pi i / steps) @ Rx(2 pi j / steps), i outer,
    as matrices acting on row-vector clouds (X @ R)."""
    grid = []
    for i in range(steps):
        c, s = np.cos(2.0 * np.pi * i / steps), np.sin(2.0 * np.pi * i / steps)
        rz = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        for j in range(steps):
            c, s = np.cos(2.0 * np.pi * j / steps), np.sin(2.0 * np.pi * j / steps)
            grid.append(rz @ np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]]))
    return np.stack(grid)


def adversarial_weights(clouds: np.ndarray, labels: np.ndarray, n_classes: int,
                        seed: int, epochs: int, k: int, learning_rate: float = 0.5,
                        batch_size: int = 32, pick=np.argmax) -> dict:
    """Worst-of-k rotation training of the linear softmax head on raw
    coordinates: weights start at zero; SeedSequence(seed) spawns a shuffle
    and a draw generator; each epoch visits a fresh permutation in batches,
    draws k grid rotations per sample (sample by sample, one integer per
    draw), keeps the candidate of highest current loss and takes one
    cross-entropy gradient step on the kept candidates.  The candidates of a
    batch are scored together here, where the program loops over samples."""
    n = len(clouds)
    feats = clouds.reshape(n, -1)
    W = np.zeros((n_classes, feats.shape[1]))
    b = np.zeros(n_classes)
    grid = rotation_grid_3d()
    shuffle_rng, draw_rng = (np.random.default_rng(s)
                             for s in np.random.SeedSequence(seed).spawn(2))
    for _ in range(epochs):
        order = shuffle_rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            rows = np.arange(len(idx))
            draws = np.array([[int(draw_rng.integers(len(grid))) for _ in range(k)]
                              for _ in idx])
            cand = (clouds[idx][:, None] @ grid[draws]).reshape(len(idx), k, -1)
            losses = -_log_softmax(cand @ W.T + b)[rows, :, labels[idx]]
            kept = cand[rows, pick(losses, axis=1)]
            g = np.exp(_log_softmax(kept @ W.T + b))
            g[rows, labels[idx]] -= 1.0
            g /= len(idx)
            W -= learning_rate * (g.T @ kept)
            b -= learning_rate * g.sum(axis=0)
    return {"weights": W, "bias": b}


def weights_match(model: dict, reference: dict, rtol: float = 1e-9) -> None:
    """The model's parameters equal the recomputed ones, up to rounding."""
    for key in ("weights", "bias"):
        got, want = model[key], reference[key]
        require(got.shape == want.shape,
                f"model {key} have shape {got.shape}, recomputed {want.shape}")
        diff = float(np.abs(got - want).max())
        scale = float(np.abs(want).max())
        require(diff <= rtol * scale, f"model {key} differ from the recomputed "
                                      f"ones by {diff!r} (largest {scale!r})")
