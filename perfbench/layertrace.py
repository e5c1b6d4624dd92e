"""Layer trace of a training or eval process, taken from outside the program.

``LayerTrace.install`` replaces the public functions of the ``pidenet``
modules with wrappers that open a span around each call.  The program's own
files are not changed, and the wrappers return exactly what they wrap, so a
traced run writes the same bytes as an untraced one.

A trace runs in one of two modes, each in its own process:

- ``time``: spans only, so self times and the iteration clock carry no
  more cost than the spans' own;
- ``memory``: tracemalloc on, peak traced memory per region, and counts of
  the work on each tape (nodes, bytes, GEMM flop).  tracemalloc hooks every
  allocation and slows small tape ops far more than the GEMMs, so the
  times of this mode are not reported.

Every patch target that the program does not have is listed in
``missing``, so a renamed or fused function shows instead of reading zero.

Import this module only after ``pidenet.cli``, which fixes the BLAS thread
count before numpy loads.
"""

from __future__ import annotations

import dataclasses
import functools
import time
import tracemalloc
import types
import weakref

from benchstats import SpanRecorder
from pidenet import autodiff, cli, jumpsim, metrics, nn, optim, problems, scheme

# Every public method of Tape that records a node.
TAPE_OPS = (
    "constant", "param", "add", "sub", "mul", "smul", "square", "matmul",
    "transpose", "affine", "batch_matvec", "sum", "mean", "row_sum", "row_dot",
    "segment_sum", "slice_rows", "slice_cols", "block_mean", "tanh", "tanh_prime",
    "relu", "relu_prime", "leaky_relu", "leaky_relu_prime",
)
# Each workload uses one activation; one span name per family keeps the
# metric defined on every workload.
TAPE_SPAN = {
    "tanh": "autodiff.activation",
    "relu": "autodiff.activation",
    "leaky_relu": "autodiff.activation",
    "tanh_prime": "autodiff.activation_prime",
    "relu_prime": "autodiff.activation_prime",
    "leaky_relu_prime": "autodiff.activation_prime",
}
GEMM_OPS = ("affine", "matmul")
PROBLEM_FIELDS = (
    "diffusion", "diffusion_diag", "drift", "jump_size", "compensator", "driver",
    "sample_marks", "terminal", "exact",
)
METRICS_WRITERS = ("write_metrics_csv", "write_error_by_time_csv", "write_error_grid_csv")


class PeakTracker:
    """Peak traced memory per named region; regions may nest.

    tracemalloc keeps one peak, so on every region boundary the current
    peak is folded into each open region before the peak is reset.  An
    inactive tracker ignores its regions.
    """

    def __init__(self, active: bool):
        self.active = active
        self._open: list[list] = []  # [name, peak bytes so far]
        self.peak: dict[str, int] = {}

    def _fold(self) -> None:
        _, peak = tracemalloc.get_traced_memory()
        for region in self._open:
            region[1] = max(region[1], peak)
        tracemalloc.reset_peak()

    def enter(self, name: str) -> None:
        if not self.active:
            return
        self._fold()
        self._open.append([name, tracemalloc.get_traced_memory()[0]])

    def exit(self) -> None:
        if not self.active:
            return
        self._fold()
        name, peak = self._open.pop()
        self.peak[name] = max(self.peak.get(name, 0), peak)


class LayerTrace:
    """Spans, and in ``memory`` mode counters and memory peaks, of one process."""

    def __init__(self, mode: str):
        self.mode = mode  # "time" or "memory"
        self.spans = SpanRecorder()
        self.peaks = PeakTracker(active=mode == "memory")
        self.missing: list[str] = []
        self.iteration_ms: list[float] = []
        self._iteration_start = None
        self.train_batches = 0
        self.train_events = 0
        # per-tape [nodes, bytes, gemm flop]; folded into the totals when
        # the tape is differentiated, which only training tapes are
        self._tapes = weakref.WeakKeyDictionary()
        self.train_tapes = 0
        self.train_nodes = 0
        self.train_bytes = 0
        self.train_flop = 0
        self.all_flop = 0

    # ------------------------------------------------------------------
    # wrappers

    def _span(self, name, fn, region=None):
        spans, peaks = self.spans, self.peaks

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if region:
                peaks.enter(region)
            spans.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                spans.exit()
                if region:
                    peaks.exit()

        return wrapper

    def _tape_op(self, op, fn):
        name = TAPE_SPAN.get(op, f"autodiff.{op}")
        if self.mode == "time":
            return self._span(name, fn)
        spans, tapes, gemm = self.spans, self._tapes, op in GEMM_OPS

        @functools.wraps(fn)
        def wrapper(tape, *args, **kwargs):
            spans.enter(name)
            try:
                out = fn(tape, *args, **kwargs)
            finally:
                spans.exit()
            stats = tapes.get(tape)
            if stats is None:
                stats = tapes[tape] = [0, 0, 0]
            stats[0] += 1
            stats[1] += out.value.nbytes
            if gemm:
                (m, k), n = args[0].shape, args[1].shape[1]
                stats[2] += 2 * m * k * n
                self.all_flop += 2 * m * k * n
            return out

        return wrapper

    def _backward(self, fn):
        spans, peaks = self.spans, self.peaks

        @functools.wraps(fn)
        def wrapper(tape, *args, **kwargs):
            peaks.enter("mem.backward_peak_mb")
            spans.enter("autodiff.backward")
            try:
                return fn(tape, *args, **kwargs)
            finally:
                spans.exit()
                peaks.exit()
                nodes, nbytes, flop = self._tapes.pop(tape, (0, 0, 0))
                self.train_tapes += 1
                self.train_nodes += nodes
                self.train_bytes += nbytes
                self.train_flop += flop

        return wrapper

    def _simulate(self, fn):
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stream = kwargs.get("stream", args[4] if len(args) > 4 else 0)
            training = stream == cli.TRAIN_STREAM
            if training:
                self._iteration_start = time.perf_counter()
            spans.enter("jumpsim.simulate_forward")
            try:
                batch = fn(*args, **kwargs)
            finally:
                spans.exit()
            if training:
                self.train_batches += 1
                self.train_events += int(batch.event_paths.size)
            return batch

        return wrapper

    def _adam_step(self, fn):
        inner = self._span("optim.adam_step", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = inner(*args, **kwargs)
            if self._iteration_start is not None:
                self.iteration_ms.append((time.perf_counter() - self._iteration_start) * 1e3)
                self._iteration_start = None
            return out

        return wrapper

    def _loss(self, fn):
        train = self._span("scheme.loss", fn, region="mem.loss_peak_mb")
        held_out = self._span("scheme.loss_eval", fn)

        @functools.wraps(fn)
        def wrapper(net, batch, *args, **kwargs):
            chosen = held_out if batch.stream == cli.EVAL_STREAM else train
            return chosen(net, batch, *args, **kwargs)

        return wrapper

    def _by_name(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spec = fn(*args, **kwargs)
            wrapped = {}
            for name in PROBLEM_FIELDS:
                if not hasattr(spec, name):
                    self._note_missing(f"ProblemSpec.{name}")
                elif getattr(spec, name) is not None:
                    wrapped[name] = self._span(f"problems.{name}", getattr(spec, name))
            return dataclasses.replace(spec, **wrapped)

        return wrapper

    def _note_missing(self, target: str) -> None:
        if target not in self.missing:
            self.missing.append(target)

    # ------------------------------------------------------------------

    def install(self) -> None:
        """Replace the program's public functions with traced wrappers; in memory mode start tracemalloc."""

        def patch(owner, attr, make):
            if hasattr(owner, attr):
                setattr(owner, attr, make(getattr(owner, attr)))
            else:
                where = owner.__name__ if isinstance(owner, types.ModuleType) else owner.__qualname__
                self._note_missing(f"{where}.{attr}")

        def span(name, region=None):
            return lambda fn: self._span(name, fn, region)

        patch(jumpsim, "simulate_forward", self._simulate)
        patch(jumpsim, "keyed_uniforms", span("jumpsim.keyed_uniforms"))
        patch(jumpsim, "sample_poisson_counts", span("jumpsim.sample_poisson_counts"))
        patch(problems, "by_name", self._by_name)
        patch(nn.TapeMlp, "value_and_grad", span("nn.value_and_grad"))
        patch(nn.TapeMlp, "value", span("nn.value"))
        patch(nn, "evaluate", span("nn.evaluate"))
        for op in TAPE_OPS:
            patch(autodiff.Tape, op, lambda fn, op=op: self._tape_op(op, fn))
        patch(autodiff.Tape, "backward", self._backward)
        patch(scheme, "loss", self._loss)
        patch(scheme, "integral_term", span("scheme.integral_term"))
        patch(scheme, "transfer", span("scheme.transfer"))
        for name in ("mean_relative_error", "error_by_time", "max_square_error"):
            patch(metrics, name, span(f"metrics.{name}"))
        for name in METRICS_WRITERS:
            patch(metrics, name, span("metrics.write"))
        patch(optim, "adam_step", self._adam_step)
        patch(cli, "save_checkpoint", span("cli.save_checkpoint"))
        patch(cli, "load_checkpoint", span("cli.load_checkpoint"))
        patch(cli, "run_experiment", span("cli.loop"))
        if self.mode == "memory":
            tracemalloc.start()

    def summary(self) -> dict:
        """Plain-number record of everything this process traced."""
        return {
            "mode": self.mode,
            "missing": list(self.missing),
            "self_s": dict(self.spans.self_s),
            "calls": dict(self.spans.calls),
            "peak_bytes": dict(self.peaks.peak),
            "iteration_ms": self.iteration_ms,
            "train_batches": self.train_batches,
            "train_events": self.train_events,
            "train_tapes": self.train_tapes,
            "train_nodes": self.train_nodes,
            "train_bytes": self.train_bytes,
            "train_flop": self.train_flop,
            "all_flop": self.all_flop,
        }
