"""Set-up and workload definitions of the mdkd benchmark.

Set-up builds, only through the `mdkd` CLI, the toy inputs every workload
reads: a synthetic overlap corpus (20 symbols, 4-6 tokens per side) from the
workload seed, and a base checkpoint from `train-base` and a 4-layer teacher
(4 heads, d_model 48, d_ff 96, max_seq_len 16) from `finetune-teacher`. A
workload is one `mdkd` subcommand over those files; its `check` verifies what
the call printed and wrote.

The base and teacher are trained on a corpus of their own with the fixed seed
TEACHER_SEED. Trained this briefly, about one seed in four leaves the model
on the 0.5-accuracy plateau and most others anywhere in 0.6-0.84, and every
dev accuracy downstream follows. TEACHER_SEED leaves the plateau in its first
epoch, so small numeric changes do not decide whether the teacher learns, and
the workloads' dev accuracies then agree across workload seeds within a few
percent.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Callable

N_TRAIN = 1000
N_DEV = 500
N_TEACHER_TRAIN = 2000
N_EVAL = 12000           # the large labeled split `eval-b128` reads
MAX_LEN = 16
TEACHER = {"model.n_layers": 4, "model.n_heads": 4, "model.d_model": 48, "model.d_ff": 96,
           "model.max_seq_len": MAX_LEN}
TASK = {"task.n_symbols": 20, "task.min_tokens": 4, "task.max_tokens": 6,
        "task.hi_band": [0.75, 1.0], "task.lo_band": [0.0, 0.25]}
TEACHER_SEED = 3
# Batch 8 gives the most optimizer steps per second; the gentler fine-tune
# keeps what the base learned.
SETUP_BATCH = 8
BASE_LR = 1e-3
BASE_EPOCHS = 3
TEACHER_LR = 5e-4
TEACHER_EPOCHS = 1

SWEEP_RECIPES = ["exp2.0", "exp3.2"]
SWEEP_SEEDS = [0, 1]
SWEEP_EPOCHS = 2
FINETUNE_EPOCHS = 2

# Dev-accuracy floors are sized to the set-up teacher's dev accuracy t: a
# share f of its margin over chance (0.5 on this balanced task), less a slack
# for the sampling error of a 500-example dev set: acc >= 0.5 + f*(t-0.5) - 0.02.
FLOOR_SHARE = {"sweep-kd": 0.75, "finetune-b16": 0.8, "eval-b128": 0.9}
FLOOR_SLACK = 0.02
# The set-up teacher itself reaches 0.784; below this the program is broken.
TEACHER_MIN_DEV_ACC = 0.7


def sets(cfg: dict) -> list[str]:
    """`--set key=value` arguments for a flat config, values JSON-encoded."""
    out = []
    for key, value in cfg.items():
        out += ["--set", f"{key}={json.dumps(value) if not isinstance(value, str) else value}"]
    return out


@dataclass(frozen=True)
class Inputs:
    """Paths of the files set-up writes under one directory."""

    root: str

    def path(self, *parts: str) -> str:
        return os.path.join(self.root, *parts)

    @property
    def test(self) -> str:
        return self.path("corpus", "test.tsv")

    @property
    def vocab(self) -> str:
        return self.path("corpus", "vocab.txt")

    @property
    def base(self) -> str:
        return self.path("base", "base.mdkd")

    @property
    def teacher(self) -> str:
        return self.path("teacher", "teacher.mdkd")

    def data_sets(self, corpus: str = "corpus") -> list[str]:
        """`--set data.*` arguments naming the train/dev/vocab files of one corpus."""
        return sets({"data.train": self.path(corpus, "train.tsv"),
                     "data.dev": self.path(corpus, "dev.tsv"),
                     "data.vocab": self.path(corpus, "vocab.txt")})


def setup_steps(inputs: Inputs, seed: int) -> list[tuple[str, list[str]]]:
    """The four CLI calls of set-up, as (step, argv)."""
    train = sets({"train.batch_size": SETUP_BATCH, "train.max_seq_len": MAX_LEN})
    ts = str(TEACHER_SEED)
    return [
        ("gen", ["gen-synthetic", "--seed", str(seed), "--out", inputs.path("corpus")]
         + sets(TASK) + sets({"data.n_train": N_TRAIN, "data.n_dev": N_DEV,
                              "data.n_test": N_EVAL})),
        ("gen_teacher", ["gen-synthetic", "--seed", ts, "--out", inputs.path("teacher_corpus")]
         + sets(TASK) + sets({"data.n_train": N_TEACHER_TRAIN, "data.n_dev": N_DEV,
                              "data.n_test": 0})),
        ("base", ["train-base", "--seed", ts, "--out", inputs.path("base")]
         + sets(TEACHER) + inputs.data_sets("teacher_corpus") + train
         + sets({"train.epochs": BASE_EPOCHS, "train.lr": BASE_LR})),
        ("teacher", ["finetune-teacher", "--seed", ts, "--out", inputs.path("teacher")]
         + sets({"init.checkpoint": inputs.base}) + inputs.data_sets("teacher_corpus") + train
         + sets({"train.epochs": TEACHER_EPOCHS, "train.lr": TEACHER_LR})),
    ]


def sha256_tree(root: str) -> dict[str, str]:
    """sha256 of every file under root, keyed by path relative to root."""
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            full = os.path.join(dirpath, name)
            with open(full, "rb") as fh:
                out[os.path.relpath(full, root)] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(out.items()))


@dataclass(frozen=True)
class Outcome:
    """What one timed call produced, judged by its workload's checks."""

    ok: bool
    dev_acc: float
    reason: str = ""


def _last_json(stdout: str) -> dict:
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("call printed nothing")
    return json.loads(lines[-1])


def _floor(workload: str, teacher_acc: float) -> float:
    return 0.5 + FLOOR_SHARE[workload] * (teacher_acc - 0.5) - FLOOR_SLACK


def _check_sweep(stdout: str, out_dir: str, teacher_acc: float) -> Outcome:
    summary = _last_json(stdout)
    if summary.get("failures"):
        return Outcome(False, 0.0, f"sweep failures: {summary['failures']}")
    with open(os.path.join(out_dir, "sweep.csv"), encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split(",") for line in fh][1:]
    expected = len(SWEEP_RECIPES) * len(SWEEP_SEEDS)
    if len(rows) != expected or any(r[3] == "" for r in rows):
        return Outcome(False, 0.0, f"sweep.csv has {len(rows)} rows or failure rows")
    acc = sum(float(r[3]) for r in rows) / len(rows)
    return _judge("sweep-kd", acc, teacher_acc)


def _check_metrics(workload: str, expect_n: int):
    """Check for a call that prints {"accuracy", ..., "n"} as its last line."""
    def check(stdout: str, out_dir: str, teacher_acc: float) -> Outcome:
        metrics = _last_json(stdout)
        if metrics.get("n") != expect_n:
            return Outcome(False, 0.0, f"evaluated {metrics.get('n')} examples, not {expect_n}")
        return _judge(workload, float(metrics["accuracy"]), teacher_acc)
    return check


def _judge(workload: str, acc: float, teacher_acc: float) -> Outcome:
    floor = _floor(workload, teacher_acc)
    if acc < floor:
        return Outcome(False, acc, f"dev accuracy {acc:.4f} below floor {floor:.4f}")
    return Outcome(True, acc)


@dataclass(frozen=True)
class Workload:
    name: str
    argv: Callable[[Inputs, str, int], list[str]]   # (inputs, out_dir, seed) -> CLI argv
    examples: int                                   # per call, for ex_per_s
    check: Callable[[str, str, float], Outcome]     # (stdout, out_dir, teacher acc)


def _sweep_argv(inputs: Inputs, out_dir: str, seed: int) -> list[str]:
    return (["sweep", "--out", out_dir] + inputs.data_sets()
            + sets({"sweep.axis": "layers", "sweep.values": [2],
                    "sweep.recipes": SWEEP_RECIPES, "sweep.seeds": SWEEP_SEEDS,
                    "teacher.checkpoint": inputs.teacher, "base.checkpoint": inputs.base,
                    "train.epochs": SWEEP_EPOCHS, "train.batch_size": 64,
                    "train.max_seq_len": MAX_LEN, "train.lr": 1e-3}))


def _finetune_argv(inputs: Inputs, out_dir: str, seed: int) -> list[str]:
    return (["finetune-teacher", "--seed", str(seed), "--out", out_dir] + inputs.data_sets()
            + sets({"init.checkpoint": inputs.base, "train.epochs": FINETUNE_EPOCHS,
                    "train.batch_size": 16, "train.max_seq_len": MAX_LEN,
                    "train.lr": BASE_LR}))


def _eval_argv(inputs: Inputs, out_dir: str, seed: int) -> list[str]:
    return ["eval"] + sets({"checkpoint": inputs.teacher, "data.path": inputs.test,
                            "data.vocab": inputs.vocab, "data.batch_size": 128})


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("sweep-kd", _sweep_argv,
             N_TRAIN * SWEEP_EPOCHS * len(SWEEP_RECIPES) * len(SWEEP_SEEDS), _check_sweep),
    Workload("finetune-b16", _finetune_argv, N_TRAIN * FINETUNE_EPOCHS,
             _check_metrics("finetune-b16", N_DEV)),
    Workload("eval-b128", _eval_argv, N_EVAL, _check_metrics("eval-b128", N_EVAL)),
)}
