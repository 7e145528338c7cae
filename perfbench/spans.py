"""Spans around orbitcanon's layers, recorded from the benchmark's side.

Each traced function is replaced at every module attribute bound to it:
audit and cli import canonicalize_similarity, canonicalize_image and
rotate_image by name, so patching only the defining module would miss
their calls.  LinearSoftmaxModel.predict is patched on the class.  A name
that a later version of the program no longer has is reported as absent.
Spans are kept in memory and written out when the run ends; a layer's
self time is its span's duration minus the part its child spans cover.
"""

from __future__ import annotations

import json
import sys
from collections import Counter

# (module, attribute, layer name); rotate_image spans add the scheme.
_FUNCTIONS = (
    ("cloud", "canonicalize_similarity", "cloud.canonicalize_similarity"),
    ("cloud", "eig3_sym", "cloud.eig3_sym"),
    ("cloud", "as_cloud", "cloud.as_cloud"),
    ("image", "canonicalize_image", "image.canonicalize_image"),
    ("image", "gaussian_blur", "image.gaussian_blur"),
    ("image", "mean_gradient", "image.mean_gradient"),
    ("image", "rotate_image", "image.rotate_image"),
    ("audit", "train_classifier", "audit.train_classifier"),
    ("audit", "evaluate_rotation_grid_3d", "audit.evaluate_rotation_grid_3d"),
    ("audit", "evaluate_rotation_sweep_2d", "audit.evaluate_rotation_sweep_2d"),
    ("audit", "evaluate_scale_sweep", "audit.evaluate_scale_sweep"),
    ("formats", "load_dataset", "formats.load_dataset"),
    ("formats", "save_dataset", "formats.save_dataset"),
    ("formats", "load_model", "formats.load_model"),
    ("formats", "save_model", "formats.save_model"),
    ("formats", "write_report", "formats.write_report"),
    ("cli", "run", "cli.run"),
)

# Per-layer metrics of one traced round: (metric, unit).
LAYER_METRICS = (
    ("cloud.canonicalize_similarity.calls", "count"),
    ("cloud.canonicalize_similarity.self_s", "s"),
    ("cloud.eig3_sym.calls", "count"),
    ("cloud.eig3_sym.self_s", "s"),
    ("cloud.as_cloud.calls", "count"),
    ("cloud.degenerate", "count"),
    ("image.canonicalize_image.calls", "count"),
    ("image.canonicalize_image.self_s", "s"),
    ("image.gaussian_blur.self_s", "s"),
    ("image.mean_gradient.self_s", "s"),
    ("image.degenerate", "count"),
    ("image.rotate_image.nearest.calls", "count"),
    ("image.rotate_image.nearest.self_s", "s"),
    ("image.rotate_image.bilinear.calls", "count"),
    ("image.rotate_image.bilinear.self_s", "s"),
    ("image.rotate_image.bicubic.calls", "count"),
    ("image.rotate_image.bicubic.self_s", "s"),
    ("audit.train_classifier.self_s", "s"),
    ("audit.predict.calls", "count"),
    ("audit.predict.rows", "count"),
    ("audit.predict.self_s", "s"),
    ("audit.evaluate_rotation_grid_3d.self_s", "s"),
    ("audit.evaluate_rotation_sweep_2d.self_s", "s"),
    ("audit.evaluate_scale_sweep.self_s", "s"),
    ("formats.load_dataset.self_s", "s"),
    ("formats.save_dataset.self_s", "s"),
    ("formats.load_model.self_s", "s"),
    ("formats.save_model.self_s", "s"),
    ("formats.write_report.self_s", "s"),
    ("cli.run.self_s", "s"),
)


_OBSERVED = ("cloud.degenerate", "image.degenerate", "audit.predict.rows")


def _rotate_scheme(args, kwargs):
    # rotate_image(img, alpha, scheme="bilinear")
    return kwargs.get("scheme", args[2] if len(args) > 2 else "bilinear")


class Tracer:
    """Patches orbitcanon while installed; collects spans and counts."""

    def __init__(self, clock):
        self.clock = clock
        self.spans: list = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches = []  # (owner, attribute, original, wrapper)

    def install(self) -> None:
        """Wrap the traced functions of the orbitcanon now in sys.modules,
        which the benchmark re-imports before every round."""
        self.absent, self._patches = [], []
        modules = [m for name, m in sys.modules.items()
                   if name == "orbitcanon" or name.startswith("orbitcanon.")]
        for module_name, attr, layer in _FUNCTIONS:
            module = sys.modules.get(f"orbitcanon.{module_name}")
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(layer)
                continue
            wrapper = self._wrap(layer, original)
            for owner in modules:
                for name, value in list(vars(owner).items()):
                    if value is original:
                        self._patches.append((owner, name, original, wrapper))
        model_cls = getattr(sys.modules.get("orbitcanon.audit"),
                            "LinearSoftmaxModel", None)
        predict = getattr(model_cls, "predict", None)
        if predict is None:
            self.absent.append("audit.predict")
        else:
            self._patches.append((model_cls, "predict", predict,
                                  self._wrap("audit.predict", predict)))
        for owner, name, _, wrapper in self._patches:
            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original, _ in self._patches:
            setattr(owner, name, original)
        self._patches = []

    def _observe(self, layer, args, result) -> None:
        if layer == "cloud.canonicalize_similarity":
            self.counts["cloud.degenerate"] += bool(result[1].degenerate)
        elif layer == "image.canonicalize_image":
            self.counts["image.degenerate"] += bool(result.degenerate)
        elif layer == "audit.predict":
            self.counts["audit.predict.rows"] += len(args[1])

    def _wrap(self, layer, original):
        clock, spans, stack = self.clock, self.spans, self._stack
        observed = layer in ("cloud.canonicalize_similarity",
                             "image.canonicalize_image", "audit.predict")
        by_scheme = layer == "image.rotate_image"

        def traced(*args, **kwargs):
            name = f"{layer}.{_rotate_scheme(args, kwargs)}" if by_scheme else layer
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock.now()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock.now()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if observed:
                self._observe(layer, args, result)
            return result

        return traced

    def measure(self, fn, *args):
        """Call fn(*args) with tracing installed; return its result and the
        per-layer calls, counts and self times of that call."""
        first = len(self.spans)
        self.counts = Counter()
        self.install()
        try:
            result = fn(*args)
        finally:
            self.uninstall()
        return result, self._summarize(first, len(self.spans), self.counts)

    def _summarize(self, first: int, last: int, counts: Counter) -> dict:
        child = Counter()
        for name, start, end, parent in self.spans[first:last]:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s = Counter(), Counter()
        for index in range(first, last):
            name, start, end, _ = self.spans[index]
            calls[name] += 1
            self_s[name] += (end - start) - child[index]
        out = {}
        for metric, _ in LAYER_METRICS:
            if any(metric.startswith(layer + ".") for layer in self.absent):
                continue
            layer, _, stat = metric.rpartition(".")
            if metric in _OBSERVED:
                out[metric] = counts[metric]
            elif stat == "calls":
                out[metric] = calls[layer]
            else:
                out[metric] = self_s[layer]
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
