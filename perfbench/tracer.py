"""Outside-in tracer for the mdkd benchmark.

The tracer wraps the public functions of each `mdkd` module from outside:
it rebinds every module-level name (and class attribute) that refers to a
traced function, so calls made inside the package go through the wrapper
too. Nothing under `src/` changes, and `uninstall` puts every original back.

Each call becomes a span: name, start, end, parent span and run id, kept in
compact in-memory arrays and written out by `save` when the run ends. Counts
are recorded at the same boundaries (batch rows, distinct examples), so the
useful-work ratios are measured where the work happens.

`model.EncoderModel.encode_batch` has three uses, told apart by the parent
span: under `trainer.train_epoch` with no active tape it is the frozen
teacher, inside a tape it is the student, and under `trainer.evaluate` it is
evaluation.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# (module, attribute) -> span name. Attributes with a dot are class methods.
TRACED = {
    ("cli", "main"): "cli.main",
    ("data", "tokenize"): "data.tokenize",
    ("data", "make_batch"): "data.make_batch",
    ("data", "load_tsv"): "data.load_tsv",
    ("data", "save_tsv"): "data.save_tsv",
    ("data", "gen_synthetic"): "data.gen_synthetic",
    ("model", "EncoderModel.encode_batch"): "model.encode_batch",
    ("model", "attention_block"): "model.attention_block",
    ("model", "load_checkpoint"): "model.load_checkpoint",
    ("model", "save_checkpoint"): "model.save_checkpoint",
    ("tensor", "Tape.backward"): "tensor.Tape.backward",
    ("losses", "soft_label_loss"): "losses.soft_label_loss",
    ("losses", "head_loss"): "losses.head_loss",
    ("losses", "cosine_cls_loss"): "losses.cosine_cls_loss",
    ("losses", "internal_distill_loss"): "losses.internal_distill_loss",
    ("trainer", "adam_step"): "trainer.adam_step",
    ("trainer", "train_epoch"): "trainer.train_epoch",
    ("trainer", "evaluate"): "trainer.evaluate",
    ("trainer", "fit"): "trainer.fit",
    ("trainer", "run_experiment"): "trainer.run_experiment",
    ("trainer", "build_student"): "trainer.build_student",
    ("mapping", "init_student"): "mapping.init_student",
    ("mapping", "match_layers"): "mapping.match_layers",
    ("schedule", "advance"): "schedule.advance",
    ("metrics", "evaluate_predictions"): "metrics.evaluate_predictions",
}

# Every differentiable primitive is wrapped, so the self time of a layer
# function excludes the ops it calls; the report lists the ones below.
TENSOR_OPS = ("add", "sub", "mul", "scale", "add_bias", "matmul", "transpose_last2",
              "reshape", "permute", "narrow", "take_rows", "softmax_rows",
              "layer_norm_rows", "gelu", "log_clamped", "sum_all", "sum_last",
              "mean_all", "cosine_distance_rows")
REPORTED_OPS = ("matmul", "gelu", "softmax_rows", "layer_norm_rows", "reshape", "permute",
                "transpose_last2", "narrow", "add", "add_bias", "take_rows",
                "log_clamped", "mul")


class Tracer:
    """Span recorder for one benchmark process; install around traced calls."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_run = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.run_id = -1
        # per run id: counter name -> value, and distinct-key sets behind ratios
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._distinct: dict[tuple[int, str], set] = defaultdict(set)
        self._saved: list[tuple[object, str, object]] = []
        self._tensor = None

    # -- recording ------------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open_span(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_run.append(self.run_id)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def close_span(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    def start_run(self) -> int:
        self.run_id += 1
        return self.run_id

    def parent_name(self) -> str | None:
        parent = self._stack[-1]
        return None if parent < 0 else self.names[self.span_name[parent]]

    def _wrap(self, name: str, fn):
        nid = self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open_span(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close_span(idx)

        return traced

    def _wrap_tokenize(self, fn):
        nid = self.name_id("data.tokenize")
        tracer = self

        @functools.wraps(fn)
        def traced(example, *args, **kwargs):
            tracer.counts[tracer.run_id]["data.tokenize.calls"] += 1
            tracer._distinct[(tracer.run_id, "tokenize")].add(example)
            idx = tracer.open_span(nid)
            try:
                return fn(example, *args, **kwargs)
            finally:
                tracer.close_span(idx)

        return traced

    def _wrap_encode_batch(self, fn):
        ids_by_role = {role: self.name_id(f"model.encode_batch.{role}")
                       for role in ("teacher", "student", "eval", "other")}
        tracer = self
        active_tapes = self._tensor._ACTIVE_TAPES

        @functools.wraps(fn)
        def traced(model, ids, mask, *args, **kwargs):
            parent = tracer.parent_name()
            if parent == "trainer.evaluate":
                role = "eval"
            elif parent == "trainer.train_epoch":
                role = "student" if active_tapes else "teacher"
            else:
                role = "other"
            counts = tracer.counts[tracer.run_id]
            counts[f"model.encode_batch.{role}.rows"] += len(ids)
            if role == "teacher":
                seen = tracer._distinct[(tracer.run_id, "teacher")]
                ids_a = np.asarray(ids)
                lengths = np.asarray(mask, dtype=bool).sum(axis=1)
                for row, n in zip(ids_a, lengths):
                    seen.add(row[:n].tobytes())
            idx = tracer.open_span(ids_by_role[role])
            try:
                return fn(model, ids, mask, *args, **kwargs)
            finally:
                tracer.close_span(idx)

        return traced

    # -- patching -------------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every traced function of `package` (the imported `mdkd`)."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package.__name__ or
                                         n.startswith(package.__name__ + "."))]
        self._tensor = sys.modules[package.__name__ + ".tensor"]
        targets = dict(TRACED)
        targets.update({("tensor", op): f"tensor.{op}" for op in TENSOR_OPS})
        for (mod_name, attr), span in targets.items():
            module = sys.modules[f"{package.__name__}.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                wrapper = (self._wrap_encode_batch(original) if span == "model.encode_batch"
                           else self._wrap(span, original))
                self._saved.append((cls, meth, original))
                setattr(cls, meth, wrapper)
                continue
            original = getattr(module, attr)
            wrapper = (self._wrap_tokenize(original) if span == "data.tokenize"
                       else self._wrap(span, original))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    # -- output ---------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
                "parent": np.frombuffer(self.span_parent, dtype=np.int32).copy(),
                "run": np.frombuffer(self.span_run, dtype=np.int32).copy(),
                "start": np.frombuffer(self.span_start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.span_end, dtype=np.float64).copy()}

    def save(self, path: str) -> None:
        """Write all spans as a compressed .npz with the name table as JSON."""
        np.savez_compressed(path, names=np.array(json.dumps(self.names)), **self.arrays())

    def distinct(self, run_id: int, kind: str) -> int:
        return len(self._distinct.get((run_id, kind), ()))


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the part of its interval its children cover.

    Children are clipped to the parent interval and their union is taken, so
    overlapping or out-of-bounds children are never counted twice.
    """
    dur = end - start
    out = dur.copy()
    kids = np.flatnonzero(parent >= 0)
    if kids.size == 0:
        return out
    order = kids[np.lexsort((start[kids], parent[kids]))]
    i = 0
    while i < order.size:
        p = parent[order[i]]
        lo_p, hi_p = start[p], end[p]
        covered = 0.0
        cur_lo = cur_hi = None
        while i < order.size and parent[order[i]] == p:
            c = order[i]
            lo, hi = max(start[c], lo_p), min(end[c], hi_p)
            i += 1
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[p] = dur[p] - covered
    return out


def layer_table(names: list[str], spans: dict[str, np.ndarray], self_s: np.ndarray,
                run_id: int) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds and self seconds within one run."""
    sel = spans["run"] == run_id
    name = spans["name"][sel]
    dur = (spans["end"] - spans["start"])[sel]
    own = self_s[sel]
    n = len(names)
    calls = np.bincount(name, minlength=n)
    incl = np.bincount(name, weights=dur, minlength=n)
    excl = np.bincount(name, weights=own, minlength=n)
    return {names[i]: {"calls": int(calls[i]), "s": float(incl[i]), "self_s": float(excl[i])}
            for i in range(n)}
