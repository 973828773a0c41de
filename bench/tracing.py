"""Outside-in layer tracing for the benchmark.

The package is never edited.  Instead :class:`Tracer` replaces the
attributes that callers look up at call time (a module's function, a
class's method) with wrappers that record one span per call: name,
start, end, parent span and round id.  Modules that imported a function
by name hold their own reference, so each such reference is wrapped as
well (``maskdetect.cli.load_ppm`` beside ``maskdetect.data.load_ppm``).

Spans stay in memory until the run ends.  A layer's busy time is the
summed duration of its outermost spans; its self time is that minus
the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import os
import time
import types

from maskdetect import cascade, checkpoint, cli, data, nn, tensor, training

import scenes

_clock = time.perf_counter


class Tracer:
    """Span recorder.  ``round`` tags every span opened while it is set;
    spans are ``[name, start, end, parent_index, round]`` lists."""

    def __init__(self):
        self.spans: list = []
        self.counters: dict = {}
        self.round = "setup"
        self._stack: list = []
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _clock(), 0.0, parent, self.round])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = _clock()
        self._stack.pop()

    def count(self, name: str, amount) -> None:
        key = (self.round, name)
        self.counters[key] = self.counters.get(key, 0) + amount

    # -- installing wrappers -------------------------------------------------

    def wrap(self, owner, attr: str, name, counter=None) -> None:
        """Trace calls of ``owner.attr``.  ``name`` is a span name or a
        function of the call's positional arguments that returns one;
        ``counter(tracer, args, kwargs, result)`` adds counts."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = self._open(name if isinstance(name, str) else name(args))
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def wrap_iter(self, owner, attr: str, name: str) -> None:
        """Trace each ``next()`` on the iterator ``owner.attr`` returns:
        the time its consumer waits for an item."""
        original = getattr(owner, attr)

        def spanned(iterator):
            while True:
                idx = self._open(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                yield item

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return spanned(iter(original(*args, **kwargs)))

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def install(self) -> None:
        for owner, attr, name, counter in _POINTS:
            if attr == "batches":
                self.wrap_iter(owner, attr, name)
            else:
                self.wrap(owner, attr, name, counter)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reading the spans back ------------------------------------------------

    def summary(self, rounds) -> dict:
        """Per span name over the given rounds: calls, busy seconds of the
        outermost spans, and self seconds."""
        wanted = set(rounds)
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for i, (name, start, end, parent, rnd) in enumerate(self.spans):
            if rnd not in wanted:
                continue
            row = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += end - start - child[i]
            if not _nested_in_same(self.spans, parent, name):
                row["busy_s"] += end - start
        return out

    def counted(self, rounds, name: str) -> float:
        return sum(self.counters.get((r, name), 0) for r in rounds)

    def write(self, path: str, rounds, record: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "record": record,
                "summary": self.summary(rounds),
                "counters": [[r, n, v] for (r, n), v in sorted(self.counters.items())],
                "span_fields": ["name", "start", "end", "parent", "round"],
                "spans": self.spans,
            }, fh)


def _nested_in_same(spans, parent: int, name: str) -> bool:
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


# -- what gets traced ---------------------------------------------------------


def _conv_gflop(tracer, args, kwargs, out):
    _, c, kh, kw = args[1].shape
    n, o, oh, ow = out.shape
    tracer.count("tensor.conv2d.gflop", 2.0 * n * o * oh * ow * c * kh * kw / 1e9)


def _group_counts(tracer, args, kwargs, out):
    tracer.count("cascade.raw_boxes", len(args[0]))
    tracer.count("cascade.grouped_boxes", len(out))


def _detect_windows(tracer, args, kwargs, out):
    gray, casc = args[0], args[1]
    params = args[2] if len(args) > 2 else kwargs.get("params")
    tracer.count("cascade.windows",
                 scenes.scan_windows(gray.shape, casc, params or cascade.DetectParams()))


def _saved_bytes(tracer, args, kwargs, out):
    tracer.count("checkpoint.bytes", os.path.getsize(args[1]))


def _block_name(args) -> str:
    # "backbone.block3.b1x1.conv.weight" -> "nn.backbone.block3"
    return "nn.backbone." + args[0].b1.conv.weight.name.split(".")[1]


# (owner, attribute, span name, counter).  One row per reference a caller
# looks up: the CLI imported its helpers by name, training imported
# ``batches`` and ``evaluate`` lives in training's own namespace.
_POINTS = [
    (tensor, "conv2d", "tensor.conv2d", _conv_gflop),
    (tensor, "pool2d", "tensor.pool2d", None),
    (tensor, "batch_norm2d", "tensor.batch_norm2d", None),
    (tensor, "relu", "tensor.relu", None),
    (tensor, "concat_channels", "tensor.concat_channels", None),
    (tensor, "linear", "tensor.linear", None),
    (tensor.Tensor, "backward", "tensor.backward", None),
    (nn.Model, "features", "nn.features", None),
    (nn.Model, "forward_logits", "nn.forward_logits", None),
    (nn.InceptionBlock, "forward", _block_name, None),
    (training, "two_phase_train", "training.two_phase_train", None),
    # a phase has no public entry point; two_phase_train looks this up
    (training, "_run_phase", lambda args: f"training.phase{args[3]}", None),
    (training, "evaluate", "training.evaluate", None),
    (training.Adam, "step", "training.adam_step", None),
    (training, "batches", "data.batch_wait", None),
    (data, "batches", "data.batch_wait", None),
    (data, "load_ppm", "data.load_ppm", None),
    (cli, "load_ppm", "data.load_ppm", None),
    (data, "resize_bilinear", "data.resize_bilinear", None),
    (cli, "resize_bilinear", "data.resize_bilinear", None),
    (data, "normalize", "data.normalize", None),
    (cli, "normalize", "data.normalize", None),
    (data, "augment", "data.augment", None),
    (data, "save_ppm", "data.save_ppm", None),
    (cli, "save_ppm", "data.save_ppm", None),
    (cascade, "detect", "cascade.detect", _detect_windows),
    (cli, "detect", "cascade.detect", _detect_windows),
    (cascade, "integral_image", "cascade.integral_image", None),
    (cascade, "group_boxes", "cascade.group_boxes", _group_counts),
    (cli, "classify_crop", "cli.classify_crop", None),
    (cli, "draw_rectangle", "cli.draw_rectangle", None),
    (checkpoint, "load_into", "checkpoint.load", None),
    (cli, "load_checkpoint", "checkpoint.load", None),
    (checkpoint, "save_checkpoint", "checkpoint.save", _saved_bytes),
    (cli, "save_checkpoint", "checkpoint.save", _saved_bytes),
]

_BLOCKS = [f"nn.backbone.block{k}" for k in range(1, 5)]

# per-layer metric -> (unit, better).  Seconds are busy seconds per traced
# round; counts are per traced round.
PER_LAYER = {
    "tensor.conv2d.s": ("s", "lower"),
    "tensor.pool2d.s": ("s", "lower"),
    "tensor.batch_norm2d.s": ("s", "lower"),
    "tensor.relu.s": ("s", "lower"),
    "tensor.concat_channels.s": ("s", "lower"),
    "tensor.linear.s": ("s", "lower"),
    "tensor.conv2d.calls": ("count", "lower"),
    "tensor.pool2d.calls": ("count", "lower"),
    "tensor.conv2d.gflop": ("GFLOP", "lower"),
    "tensor.backward.s": ("s", "lower"),
    "nn.backbone.stem.s": ("s", "lower"),
    **{f"{b}.s": ("s", "lower") for b in _BLOCKS},
    "nn.head.s": ("s", "lower"),
    "training.phase1.s": ("s", "lower"),
    "training.phase2.s": ("s", "lower"),
    "training.steps": ("count", "lower"),
    "training.adam_step.s": ("s", "lower"),
    "training.evaluate.s": ("s", "lower"),
    "data.load_ppm.s": ("s", "lower"),
    "data.load_ppm.calls": ("count", "lower"),
    "data.resize_bilinear.s": ("s", "lower"),
    "data.normalize.s": ("s", "lower"),
    "data.augment.s": ("s", "lower"),
    "data.augment.calls": ("count", "lower"),
    "data.batch_wait.s": ("s", "lower"),
    "data.save_ppm.s": ("s", "lower"),
    "cascade.integral_image.s": ("s", "lower"),
    "cascade.scan.s": ("s", "lower"),
    "cascade.windows": ("count", "lower"),
    "cascade.raw_boxes": ("count", "lower"),
    "cascade.accept_ratio": ("ratio", "higher"),
    "cascade.group_boxes.s": ("s", "lower"),
    "cascade.grouped_boxes": ("count", "lower"),
    "cli.classify_crop.s": ("s", "lower"),
    "cli.classify_crop.calls": ("count", "lower"),
    "cli.draw_rectangle.s": ("s", "lower"),
    "checkpoint.load.s": ("s", "lower"),
    "checkpoint.save.s": ("s", "lower"),
    "checkpoint.bytes": ("bytes", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_est_s": ("s", "lower"),
}


def span_cost(calls: int = 20000) -> float:
    """Seconds one traced call adds, measured on a no-op function."""
    holder = types.SimpleNamespace(noop=lambda: None)
    start = _clock()
    for _ in range(calls):
        holder.noop()
    plain = _clock() - start
    Tracer().wrap(holder, "noop", "noop")
    start = _clock()
    for _ in range(calls):
        holder.noop()
    return max(0.0, (_clock() - start - plain) / calls)


def layer_metrics(tracer: Tracer, rounds: list, overhead_s: float, per_span_s: float) -> dict:
    """Every per-layer metric, averaged over the traced ``rounds``.

    ``overhead_s`` is the measured traced-minus-untraced round time;
    ``per_span_s`` prices one span, for the steadier estimate."""
    n = len(rounds)
    rows = tracer.summary(rounds)

    def busy(name):
        return rows.get(name, {}).get("busy_s", 0.0) / n

    def calls(name):
        return rows.get(name, {}).get("calls", 0) / n

    def counted(name):
        return tracer.counted(rounds, name) / n

    out = {name: busy(name[: -len(".s")]) for name in PER_LAYER if name.endswith(".s")}
    out.update({
        "nn.backbone.stem.s": busy("nn.features") - sum(busy(b) for b in _BLOCKS),
        "nn.head.s": busy("nn.forward_logits") - busy("nn.features"),
        "cascade.scan.s": busy("cascade.detect") - busy("cascade.integral_image")
        - busy("cascade.group_boxes"),
    })
    windows = counted("cascade.windows")
    spans = sum(row["calls"] for row in rows.values()) / n
    out.update({
        "tensor.conv2d.calls": calls("tensor.conv2d"),
        "tensor.pool2d.calls": calls("tensor.pool2d"),
        "tensor.conv2d.gflop": counted("tensor.conv2d.gflop"),
        "training.steps": calls("training.adam_step"),
        "data.load_ppm.calls": calls("data.load_ppm"),
        "data.augment.calls": calls("data.augment"),
        "cascade.windows": windows,
        "cascade.raw_boxes": counted("cascade.raw_boxes"),
        "cascade.accept_ratio": counted("cascade.raw_boxes") / windows if windows else 0.0,
        "cascade.grouped_boxes": counted("cascade.grouped_boxes"),
        "cli.classify_crop.calls": calls("cli.classify_crop"),
        "checkpoint.bytes": counted("checkpoint.bytes"),
        "trace.overhead_s": overhead_s,
        "trace.spans": spans,
        "trace.overhead_est_s": spans * per_span_s,
    })
    return {name: {"value": out[name], "unit": unit} for name, (unit, _) in PER_LAYER.items()}

