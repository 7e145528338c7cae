"""File formats: PGM rasters, IDX archives, XYZ/OFF clouds, reports, models.

Readers validate aggressively and raise ValueError with a location when
the input is malformed; writers are byte-deterministic so that identical
inputs always serialize to identical files.  Floats are written with 17
significant digits, which round-trips IEEE doubles exactly.  Reports,
dataset manifests and the CLI's side files all use write_table's layout.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .image import SCHEMES, GrayImage

_IDX_IMAGES_MAGIC = 0x00000803
_IDX_LABELS_MAGIC = 0x00000801

_MODEL_MAGIC = b"OCLM0001"
_MODEL_HEAD = "<8sBBBBd II"

_F17 = "{:.17g}".format


# ---------------------------------------------------------------------------
# PGM


_PGM_TOKEN = re.compile(rb"(?:\s|#[^\r\n]*)*(\S*)")


def _pgm_tokens(data: bytes, count: int, pos: int) -> tuple[list[int], int]:
    """Read `count` whitespace-separated ASCII integers starting at pos.

    '#' starts a comment running to end of line, as the format allows.
    Returns the values and the offset one past the final token.
    """
    values: list[int] = []
    for _ in range(count):
        match = _PGM_TOKEN.match(data, pos)
        token, pos = match[1], match.end()
        if not token:
            raise ValueError("truncated header: expected more numeric fields")
        try:
            values.append(int(token))
        except ValueError:
            raise ValueError(f"non-numeric header token {token!r}") from None
    return values, pos


def read_pgm(data: bytes) -> GrayImage:
    """Parse a PGM (P5 binary or P2 ASCII) into a grayscale image.

    Values are scaled by the file's maxval into [0, 1].  Binary rasters
    use one byte per sample for maxval < 256 and two big-endian bytes
    otherwise, per the format.
    """
    if len(data) < 2:
        raise ValueError("not a PGM file: too short")
    magic = data[:2]
    if magic not in (b"P5", b"P2"):
        raise ValueError(f"not a PGM file: magic {magic!r} (want P5 or P2)")
    (width, height, maxval), pos = _pgm_tokens(data, 3, 2)
    if width < 1 or height < 1:
        raise ValueError(f"bad dimensions {width} x {height}")
    if not 0 < maxval < 65536:
        raise ValueError(f"maxval {maxval} out of range 1..65535")

    if magic == b"P2":
        flat, _ = _pgm_tokens(data, width * height, pos)
        raster = np.array(flat, dtype=float).reshape(height, width)
    else:
        pos += 1  # exactly one whitespace byte separates header and raster
        sample = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
        need = width * height * sample.itemsize
        payload = data[pos:pos + need]
        if len(payload) < need:
            raise ValueError(
                f"truncated raster: need {need} bytes, have {len(payload)}")
        raster = np.frombuffer(payload, dtype=sample).astype(float)
        raster = raster.reshape(height, width)
    if raster.max(initial=0.0) > maxval:
        raise ValueError(f"sample value exceeds maxval {maxval}")
    return GrayImage(raster / maxval)


def write_pgm(img, maxval: int = 255) -> bytes:
    """Serialize a raster (validated as a GrayImage) as binary P5.

    Pixels in [0, 1] are scaled to 0..maxval and rounded half away from
    zero, so 0.5 / 255 lands on 1.  Deterministic: equal images yield
    equal bytes.
    """
    if not 0 < maxval < 65536:
        raise ValueError(f"maxval {maxval} out of range 1..65535")
    img = GrayImage(img)
    q = np.floor(img.pixels * maxval + 0.5).astype(np.uint16)
    q = np.minimum(q, maxval)
    header = f"P5\n{img.width} {img.height}\n{maxval}\n".encode("ascii")
    if maxval > 255:
        return header + q.astype(">u2").tobytes()
    return header + q.astype("u1").tobytes()


# ---------------------------------------------------------------------------
# IDX


def _idx_header(data: bytes, expect_magic: int, rank: int, kind: str):
    need = 4 * (1 + rank)
    if len(data) < need:
        raise ValueError(f"truncated IDX {kind} header")
    magic = struct.unpack(">i", data[:4])[0]
    if magic != expect_magic:
        raise ValueError(
            f"bad IDX {kind} magic 0x{magic:08x} (want 0x{expect_magic:08x})")
    dims = struct.unpack(f">{rank}i", data[4:need])
    if any(d < 0 for d in dims):
        raise ValueError(f"negative IDX dimension in {dims}")
    return dims, need


def read_idx_images(data: bytes) -> list[GrayImage]:
    """Parse an IDX image archive into a list of square grayscale images.

    The archive stores unsigned bytes scaled here by 1/255.  Non-square
    rasters are rejected because the rotation pipeline needs square input.
    """
    (count, rows, cols), pos = _idx_header(data, _IDX_IMAGES_MAGIC, 3, "image")
    if rows != cols:
        raise ValueError(f"IDX rasters are {rows} x {cols}, need square images")
    need = count * rows * cols
    payload = data[pos:pos + need]
    if len(payload) < need:
        raise ValueError(f"truncated IDX raster data: need {need} bytes")
    cube = np.frombuffer(payload, dtype="u1").reshape(count, rows, cols)
    return [GrayImage(cube[i] / 255.0) for i in range(count)]


def read_idx_labels(data: bytes) -> np.ndarray:
    """Parse an IDX label file into an int array; labels must be 0..9."""
    (count,), pos = _idx_header(data, _IDX_LABELS_MAGIC, 1, "label")
    payload = data[pos:pos + count]
    if len(payload) < count:
        raise ValueError(f"truncated IDX label data: need {count} bytes")
    labels = np.frombuffer(payload, dtype="u1").astype(int)
    if labels.size and labels.max() > 9:
        raise ValueError(f"label {labels.max()} outside 0..9")
    return labels


# ---------------------------------------------------------------------------
# XYZ / OFF


def read_xyz(text: str) -> np.ndarray:
    """Parse whitespace-separated x y z lines into an N x 3 array.

    Blank lines and lines starting with '#' are skipped; anything else
    with other than three fields is an error reported with its line
    number.
    """
    points = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected 3 coordinates, got {len(parts)}")
        try:
            points.append([float(p) for p in parts])
        except ValueError:
            raise ValueError(f"line {lineno}: non-numeric coordinate") from None
    if not points:
        raise ValueError("no points in XYZ input")
    X = np.array(points, dtype=float)
    if not np.all(np.isfinite(X)):
        raise ValueError("non-finite coordinate in XYZ input")
    return X


def write_xyz(points) -> str:
    """Serialize an N x 3 array as one 'x y z' line per point, 17 digits."""
    X = np.asarray(points, dtype=float)
    if X.ndim != 2 or X.shape[1] != 3:
        raise ValueError("expected an N x 3 point array")
    lines = [" ".join(_F17(v) for v in row) for row in X]
    return "\n".join(lines) + "\n"


def read_off(text: str) -> np.ndarray:
    """Read the vertices of an OFF mesh as an N x 3 array; faces are ignored."""
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append((lineno, line))
    if not lines:
        raise ValueError("empty OFF input")
    lineno, header = lines[0]
    body = lines[1:]
    if header != "OFF":
        # Some files cram the counts onto the OFF line itself.
        if header.startswith("OFF") and len(header.split()) == 4:
            body = [(lineno, header[3:].strip())] + body
        else:
            raise ValueError(f"line {lineno}: not an OFF file")
    if not body:
        raise ValueError("OFF input has no counts line")
    lineno, counts = body[0]
    parts = counts.split()
    if len(parts) != 3:
        raise ValueError(f"line {lineno}: counts line needs 3 fields")
    try:
        n_vertices, n_faces, _ = (int(p) for p in parts)
    except ValueError:
        raise ValueError(f"line {lineno}: non-integer counts") from None
    if n_vertices < 1:
        raise ValueError(f"line {lineno}: vertex count {n_vertices} < 1")
    vertex_lines = body[1:1 + n_vertices]
    if len(vertex_lines) < n_vertices:
        raise ValueError(f"OFF input ends after {len(vertex_lines)} of "
                         f"{n_vertices} vertices")
    points = []
    for lineno, line in vertex_lines:
        parts = line.split()
        if len(parts) < 3:
            raise ValueError(f"line {lineno}: vertex needs 3 coordinates")
        try:
            points.append([float(p) for p in parts[:3]])
        except ValueError:
            raise ValueError(f"line {lineno}: non-numeric vertex coordinate") from None
    X = np.array(points, dtype=float)
    if not np.all(np.isfinite(X)):
        raise ValueError("non-finite vertex coordinate in OFF input")
    return X


# ---------------------------------------------------------------------------
# Audit reports

# The report's metadata keys, in the order write_report writes them.
_REPORT_KEYS = ("kind", "mode", "scheme", "canonicalized", "n_samples",
                "clean", "average", "worst")


@dataclass
class ReportDocument:
    """An audit result in serializable form.

    `grid` holds one string label per evaluated transform (degrees for 2-D
    sweeps, 'i:j' grid steps for 3-D, the scale factor for scale sweeps)
    and `curve` the matching per-transform accuracy.
    """

    kind: str
    mode: str
    scheme: str
    canonicalized: bool
    n_samples: int
    clean: float
    average: float
    worst: float
    grid: tuple[str, ...]
    curve: np.ndarray

    def __eq__(self, other):
        if not isinstance(other, ReportDocument):
            return NotImplemented
        return (all(getattr(self, key) == getattr(other, key) for key in _REPORT_KEYS)
                and self.grid == other.grid
                and np.array_equal(self.curve, other.curve))


def _cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return _F17(float(value))
    return str(value)


def write_table(title, meta, header, rows) -> str:
    """Serialize a CSV table with a '#'-prefixed metadata preamble.

    Writes the title line (skipped when None), one '# key=value' line per
    item of the `meta` mapping, the `header` line, then one line per row
    of cells.  Flags are written as true/false, floats with 17 significant
    digits and everything else through str, so reading the file back
    reproduces every number exactly.
    """
    lines = [] if title is None else [title]
    lines += [f"# {key}={_cell(value)}" for key, value in meta.items()]
    lines.append(header)
    lines += [",".join(_cell(value) for value in row) for row in rows]
    return "\n".join(lines) + "\n"


def write_report(doc: ReportDocument) -> str:
    """Serialize a report as a write_table table titled 'orbitcanon report v1'.

    The preamble holds the summary fields, and each row an index, the
    transform label and the accuracy under that transform.
    """
    if len(doc.grid) != len(doc.curve):
        raise ValueError("grid and curve lengths differ")
    return write_table("# orbitcanon report v1",
                       {key: getattr(doc, key) for key in _REPORT_KEYS},
                       "index,transform,accuracy",
                       ((i, label, float(acc))
                        for i, (label, acc) in enumerate(zip(doc.grid, doc.curve))))


def _read_table(text: str, header: str, where: str):
    """Split a '# key=value' preamble from the 3-column rows after `header`.

    Returns (metadata, rows as (line number, fields), whether the header
    was seen); `where` names the line numbers in errors.
    """
    meta: dict[str, str] = {}
    rows: list[tuple[int, list[str]]] = []
    saw_header = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if "=" in body:
                key, value = body.split("=", 1)
                meta[key.strip()] = value.strip()
            continue
        if not saw_header:
            if line != header:
                raise ValueError(f"{where} {lineno}: unexpected header {line!r}")
            saw_header = True
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ValueError(f"{where} {lineno}: expected 3 columns")
        rows.append((lineno, parts))
    return meta, rows, saw_header


def read_report(text: str) -> ReportDocument:
    """Parse a report written by write_report, validating structure."""
    meta, table, saw_header = _read_table(text, "index,transform,accuracy", "line")
    rows: list[tuple[int, str, float]] = []
    for lineno, parts in table:
        try:
            rows.append((int(parts[0]), parts[1], float(parts[2])))
        except ValueError:
            raise ValueError(f"line {lineno}: malformed row") from None
    missing = [k for k in _REPORT_KEYS if k not in meta]
    if missing:
        raise ValueError(f"missing metadata keys: {', '.join(missing)}")
    if not saw_header:
        raise ValueError("missing column header line")
    for i, (idx, _, _) in enumerate(rows):
        if idx != i:
            raise ValueError(f"row index {idx} out of order (expected {i})")
    if meta["canonicalized"] not in ("true", "false"):
        raise ValueError(f"bad canonicalized flag {meta['canonicalized']!r}")
    return ReportDocument(
        kind=meta["kind"],
        mode=meta["mode"],
        scheme=meta["scheme"],
        canonicalized=meta["canonicalized"] == "true",
        n_samples=int(meta["n_samples"]),
        clean=float(meta["clean"]),
        average=float(meta["average"]),
        worst=float(meta["worst"]),
        grid=tuple(label for _, label, _ in rows),
        curve=np.array([acc for _, _, acc in rows], dtype=float),
    )


# ---------------------------------------------------------------------------
# Model files


def save_model(model) -> bytes:
    """Serialize a linear softmax model to a versioned little-endian blob.

    Layout after the 8-byte magic: kind, canonicalize-mode, scheme and
    training-mode codes (one byte each, scheme 255 when unset), blur
    sigma as f8, the class and feature counts as u32, then row-major f8
    weights and the f8 bias vector.  The codes index audit.KINDS,
    audit.CANON_MODES, image.SCHEMES and audit.MODES.
    """
    from .audit import CANON_MODES, KINDS, MODES  # deferred: import cycle

    if model.kind not in KINDS:
        raise ValueError(f"unknown model kind {model.kind!r}")
    if model.canonicalize not in CANON_MODES:
        raise ValueError(f"unknown canonicalize mode {model.canonicalize!r}")
    if model.mode not in MODES:
        raise ValueError(f"unknown training mode {model.mode!r}")
    scheme_code = 255 if model.scheme is None else SCHEMES.index(model.scheme)
    W = np.asarray(model.weights, dtype=float)
    b = np.asarray(model.bias, dtype=float)
    if W.ndim != 2 or b.shape != (W.shape[0],):
        raise ValueError("weights must be C x F with a length-C bias")
    head = struct.pack(
        _MODEL_HEAD,
        _MODEL_MAGIC,
        KINDS.index(model.kind),
        CANON_MODES.index(model.canonicalize),
        scheme_code,
        MODES.index(model.mode),
        float(model.sigma),
        W.shape[0],
        W.shape[1],
    )
    return head + W.astype("<f8").tobytes(order="C") + b.astype("<f8").tobytes()


def load_model(data: bytes):
    """Deserialize a model written by save_model; see there for the layout."""
    # deferred: import cycle
    from .audit import CANON_MODES, KINDS, MODES, LinearSoftmaxModel

    head_size = struct.calcsize(_MODEL_HEAD)
    if len(data) < head_size:
        raise ValueError("truncated model file")
    magic, kind_code, canon_code, scheme_code, mode_code, sigma, n_classes, \
        n_features = struct.unpack(_MODEL_HEAD, data[:head_size])
    if magic != _MODEL_MAGIC:
        raise ValueError(f"bad model magic {magic!r}")
    if kind_code >= len(KINDS):
        raise ValueError(f"bad model kind code {kind_code}")
    if canon_code >= len(CANON_MODES):
        raise ValueError(f"bad canonicalize code {canon_code}")
    if scheme_code != 255 and scheme_code >= len(SCHEMES):
        raise ValueError(f"bad scheme code {scheme_code}")
    if mode_code >= len(MODES):
        raise ValueError(f"bad training mode code {mode_code}")
    need = head_size + 8 * (n_classes * n_features + n_classes)
    if len(data) != need:
        raise ValueError(f"model file is {len(data)} bytes, expected {need}")
    if not (np.isfinite(sigma) and sigma > 0.0):
        raise ValueError(f"model sigma {sigma!r} is not a positive finite number")
    flat = np.frombuffer(data[head_size:], dtype="<f8")
    if not np.all(np.isfinite(flat)):
        raise ValueError("model weights or bias contain non-finite values")
    W = flat[:n_classes * n_features].reshape(n_classes, n_features).copy()
    b = flat[n_classes * n_features:].copy()
    return LinearSoftmaxModel(
        weights=W,
        bias=b,
        kind=KINDS[kind_code],
        canonicalize=CANON_MODES[canon_code],
        scheme=None if scheme_code == 255 else SCHEMES[scheme_code],
        sigma=sigma,
        mode=MODES[mode_code],
    )


# ---------------------------------------------------------------------------
# Dataset directories


def save_dataset(data, directory) -> None:
    """Write a labeled dataset as one file per sample plus a manifest.

    Images become PGM files, clouds XYZ files; manifest.csv is a
    write_table table of filename, numeric label and class name, with
    kind, seed and the class names kept in its metadata.
    """
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    ext = "pgm" if data.kind == "image" else "xyz"
    rows = []
    for i, (datum, label) in enumerate(data.samples):
        name = f"sample_{i:05d}.{ext}"
        path = root / name
        if data.kind == "image":
            path.write_bytes(write_pgm(datum, maxval=65535))
        else:
            path.write_text(write_xyz(datum))
        rows.append((name, label, data.class_names[label]))
    meta = {"kind": data.kind, "seed": data.seed, "classes": "|".join(data.class_names)}
    (root / "manifest.csv").write_text(
        write_table(None, meta, "filename,label,class_name", rows))


def _integer(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{what} {text!r} is not an integer") from None


def load_dataset(directory):
    """Read back a dataset directory written by save_dataset."""
    from .audit import KINDS, LabeledDataset  # deferred: import cycle

    root = Path(directory)
    manifest = root / "manifest.csv"
    if not manifest.is_file():
        raise ValueError(f"no manifest.csv under {root}")
    meta, table, _ = _read_table(manifest.read_text(), "filename,label,class_name",
                                 "manifest line")
    labels = [_integer(label, f"manifest line {lineno}: label")
              for lineno, (_, label, _) in table]
    seed = _integer(meta.get("seed", "0"), "manifest seed")
    kind = meta.get("kind")
    if kind not in KINDS:
        raise ValueError(f"manifest kind {kind!r} is not 'image' or 'cloud'")
    class_names = tuple(meta.get("classes", "").split("|")) if meta.get("classes") else ()
    inputs = []
    for _, (name, _, _) in table:
        path = root / name
        if not path.is_file():
            raise ValueError(f"manifest references missing file {name}")
        if kind == "image":
            inputs.append(read_pgm(path.read_bytes()).pixels)
        else:
            inputs.append(read_xyz(path.read_text()))
    return LabeledDataset(kind=kind, inputs=inputs, targets=labels,
                          class_names=class_names, seed=seed)
