"""Benchmark of the CLOES cascade through the public API of ``cascade_ranker``.

Run from the repository root:

    python3 bench/run.py --workload train --seed 1 --seconds 50 --trace 0

One process runs one workload: it builds the inputs from ``--seed`` (the
set-up), repeats the workload's timed iteration for about ``--seconds``
seconds, checks every operation's output, and prints one JSON object as the
last line of standard output. With ``--trace 0`` it reports the end-to-end
metrics of BENCHMARK.json; with ``--trace 1`` it alternates untraced and
traced iterations and reports the per-layer metrics. Each run also writes a
result file (and, when traced, its spans) under ``.bench_results/``. See
bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

from tracing import Tracer, layer_metrics  # noqa: E402  (bench/tracing.py)

DEFAULT_SEED = 1
CONFIRM_SEED = 1706          # held back: confirm a claimed gain on it, never tune on it
SETUP_REPEATS = 3
MIN_ITERATIONS = 3           # untraced iterations per run; a traced run needs 2 of each kind
MAX_TIMED_SECONDS = 120.0    # stop starting iterations after this, whatever --seconds says
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Below the default 19500 so that the latency penalty binds on a sizeable
# share of the hot queries: frac_above_ceiling is then a steady fraction, not
# a count of a few stragglers that is zero on some seeds.
LATENCY_CEILING = 4000.0


class Aborted(Exception):
    """An operation failed; the rest of its iteration is skipped."""


class Run:
    """Counts operations and failures, times operations and keeps digests."""

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer
        self.traced = False
        self.attempted = 0
        self.failed_ops: set[tuple[str, str]] = set()
        self.errors: list[str] = []
        self.digests: dict[str, str] = {}
        self.label = "setup"
        self.op_seconds: dict[str, float] = {}

    def start(self, label: str, traced: bool) -> None:
        self.label, self.traced, self.op_seconds = label, traced, {}
        if traced:
            self.tracer.begin(label)

    def fail(self, name: str, problem: str) -> None:
        self.failed_ops.add((self.label, name))
        self.errors.append(f"{self.label} {name}: {problem}")
        print(f"FAILED {self.label} {name}: {problem}", file=sys.stderr)

    def op(self, name: str, fn, check=None):
        """Run one operation, timed (and traced in a traced iteration); its
        output check runs afterwards, untimed. Raises Aborted on failure."""
        self.attempted += 1
        if self.traced:
            self.tracer.install()
        try:
            start = time.perf_counter()
            result = fn()
            self.op_seconds[name] = time.perf_counter() - start
        except Exception as exc:  # an operation that raises counts as failed
            traceback.print_exc()
            self.fail(name, f"raised {type(exc).__name__}: {exc}")
            raise Aborted from exc
        finally:
            if self.traced:
                self.tracer.uninstall()
        try:
            problem = check(result) if check is not None else None
        except Exception as exc:  # a check that cannot read the output fails it
            problem = f"output check raised {type(exc).__name__}: {exc}"
        if problem:
            self.fail(name, problem)
            raise Aborted
        return result

    def digest(self, op_name: str, key: str, text: str) -> None:
        """Record sha256 of an output; a different value later means the
        output is not deterministic, which fails the operation."""
        value = hashlib.sha256(text.encode("utf-8")).hexdigest()
        first = self.digests.setdefault(key, value)
        if value != first:
            self.fail(op_name, f"{key} sha256 {value} differs from first {first}")


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _auc_problem(value) -> str | None:
    if not _finite(value) or not 0.0 <= value <= 1.0:
        return f"auc {value} is not a finite number in [0, 1]"
    return None


def _log_problem(records) -> str | None:
    """Loss and holdout AUC of every epoch finite, AUC in [0, 1]."""
    if not records:
        return "training log is empty"
    for r in records:
        if not _finite(r["total"], r["nll"]):
            return f"epoch {r['epoch']}: loss {r['total']} / nll {r['nll']} not finite"
        problem = _auc_problem(r["auc"])
        if problem:
            return f"epoch {r['epoch']}: {problem}"
    return None


def _sim_problem(report) -> str | None:
    """Each query's final count at most its recalled count."""
    for r in report.per_query:
        if not r.final_count <= r.recalled_count:
            return f"query {r.query_id}: final count {r.final_count} > recalled {r.recalled_count}"
    return None


def _plan_problem(cr, model, groups) -> str | None:
    """Keep counts within [1, group size] and never increasing by stage."""
    for g in groups:
        counts = cr.simulator.plan(model, g)
        if not (1 <= counts[0] <= g.size and all(b <= a for a, b in zip(counts, counts[1:]))):
            return f"query {g.query_id}: plan keep counts {counts} are not non-increasing"
    return None


def _packed_mismatch(a, b) -> str | None:
    """Which field of two PackedDatasets differs, if any (bit-exact)."""
    import numpy as np

    if a.query_ids != b.query_ids:
        return "query ids differ"
    for field in ("X", "labels", "prices", "G", "sizes", "mcounts"):
        x, y = getattr(a, field), getattr(b, field)
        if x.shape != y.shape or not np.array_equal(x, y):
            return f"{field} differs"
    return None


def _holdout_split(groups, fraction: float, seed: int):
    """Same rule as the CLI's train command (whose helper is private): a
    seeded permutation, with the input order kept on both sides."""
    import numpy as np

    order = np.random.default_rng([seed, 2]).permutation(len(groups))
    n_hold = max(1, int(round(fraction * len(groups))))
    hold = set(order[:n_hold].tolist())
    return ([g for i, g in enumerate(groups) if i not in hold],
            [g for i, g in enumerate(groups) if i in hold])


def _objective(cr):
    return cr.ObjectiveConfig(latency_ceiling=LATENCY_CEILING)


def _model_text(cr, model, path: Path) -> str:
    cr.trainer.save_model(model, path)
    return path.read_text(encoding="utf-8")


def _log_records(log) -> list[dict]:
    return [{"epoch": r.epoch, "total": r.total, "nll": r.nll, "auc": r.auc} for r in log.records]


class TrainWorkload:
    """SGD on the l3 objective over many small groups with a 20 % holdout."""

    name = "train"
    n_queries = 8000
    group_size_cap = 20
    holdout_fraction = 0.2
    epochs = 3
    batch_size = 32

    def __init__(self, cr, seed: int, work: Path):
        self.cr, self.seed, self.work = cr, seed, work
        self.schema = cr.datagen.default_schema()
        self.assignment = cr.datagen.default_assignment(self.schema)
        self.obj = _objective(cr)
        self.train_cfg = cr.TrainConfig(objective="l3", epochs=self.epochs,
                                        batch_size=self.batch_size, seed=seed)

    def setup(self, run: Run) -> None:
        cr = self.cr
        self.train_groups = self.holdout = None   # so a repeated set-up does not hold two copies
        groups = cr.datagen.generate(
            cr.GenConfig(n_queries=self.n_queries, group_size_cap=self.group_size_cap,
                         seed=self.seed),
            self.schema,
        )
        self.train_groups, self.holdout = _holdout_split(groups, self.holdout_fraction, self.seed)

    def queries_per_iteration(self) -> int:
        return len(self.train_groups) * self.epochs

    def iteration(self, run: Run) -> None:
        cr = self.cr
        self.model, self.log = run.op(
            "train",
            lambda: cr.trainer.train(self.train_groups, self.schema, self.assignment, self.obj,
                                     self.train_cfg, eval_data=self.holdout),
            check=lambda out: _log_problem(_log_records(out[1])),
        )
        run.digest("train", "model.txt", _model_text(cr, self.model, self.work / "model.txt"))

    def quality(self, run: Run) -> dict[str, float]:
        cr = self.cr
        base = sum(g.size for g in self.holdout) * float(self.schema.costs().sum())
        report = run.op(
            "evaluate",
            lambda: cr.evaluator.evaluate(self.model, self.holdout, self.obj, baseline_cost=base),
            check=lambda rep: _auc_problem(rep.auc),
        )
        run.digest("evaluate", "eval.txt", report.to_text())
        return {"auc": self.log.records[-1].auc, "cost_ratio": report.expected_cost_ratio,
                "frac_above_ceiling": report.fraction_above_latency_ceiling}


class ReplayWorkload:
    """Read a text dataset, evaluate a trained model on it and replay serving.

    The set-up runs the CLI's ``datagen`` and ``train`` commands in-process,
    so the ``cli`` layer is measured too."""

    name = "replay"
    n_queries = 3000
    group_size_cap = 20
    setup_epochs = 1

    def __init__(self, cr, seed: int, work: Path):
        self.cr, self.seed, self.work = cr, seed, work
        self.obj = _objective(cr)
        self.config = work / "config.json"
        self.dataset = work / "data" / "dataset.txt"
        self.model_path = work / "model" / "model.txt"

    def setup(self, run: Run) -> None:
        cr = self.cr
        config = {
            "datagen": {"n_queries": self.n_queries, "group_size_cap": self.group_size_cap,
                        "seed": self.seed},
            "train": {"objective": "l3", "epochs": self.setup_epochs, "seed": self.seed},
            "objective": {"latency_ceiling": LATENCY_CEILING},
        }
        self.config.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
        for argv in (["datagen", "--out", str(self.dataset.parent)],
                     ["train", "--dataset", str(self.dataset), "--out", str(self.model_path.parent)]):
            rc = cr.cli.main([*argv, "--config", str(self.config)])
            if rc != 0:
                raise RuntimeError(f"set-up command {argv[0]} exited with {rc}")
        self.schema = cr.cli.schema_from_config(cr.cli.load_config(str(self.config)))
        self.model = cr.trainer.load_model(self.model_path, self.schema)

    def after_setup(self, run: Run) -> None:
        cr = self.cr
        problem = _log_problem(_read_ndjson(self.model_path.parent / "trainlog.ndjson"))
        if problem:
            raise RuntimeError(f"set-up training: {problem}")
        run.digest("setup", "model.txt", self.model_path.read_text(encoding="utf-8"))
        config = cr.cli.load_config(str(self.config))
        self.expected = cr.core.pack_groups(
            cr.datagen.generate(cr.cli.gen_from_config(config), self.schema))

    def queries_per_iteration(self) -> int:
        return self.n_queries

    def _pack_and_evaluate(self):
        cr = self.cr
        packed = cr.core.pack_groups(self.groups)
        base = packed.n_instances * float(self.schema.costs().sum())
        return packed, cr.evaluator.evaluate(self.model, packed, self.obj, baseline_cost=base)

    def iteration(self, run: Run) -> None:
        cr = self.cr
        self.groups = None
        self.groups = run.op("read", lambda: cr.datagen.read_dataset(self.dataset, self.schema))
        packed, self.report = run.op("evaluate", self._pack_and_evaluate,
                                     check=lambda out: _auc_problem(out[1].auc))
        mismatch = _packed_mismatch(packed, self.expected)
        if mismatch:
            run.fail("read", f"read_dataset does not reproduce the generated groups: {mismatch}")
        run.digest("evaluate", "eval.txt", self.report.to_text())
        self.sim = run.op("simulate", lambda: cr.simulator.simulate(self.model, self.groups, self.obj),
                          check=_sim_problem)
        run.digest("simulate", "sim.txt", self.sim.to_text())

    def quality(self, run: Run) -> dict[str, float]:
        problem = _plan_problem(self.cr, self.model, self.groups)
        if problem:
            run.fail("simulate", problem)
        return {"auc": self.report.auc, "cost_ratio": self.report.expected_cost_ratio,
                "frac_above_ceiling": self.sim.fraction_above_latency_ceiling}


def _read_ndjson(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


WORKLOADS = {w.name: w for w in (TrainWorkload, ReplayWorkload)}


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "machine": platform.machine(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "CLOES_THREADS": os.environ.get("CLOES_THREADS"),
    }


def timed_phase(workload, run: Run, seconds: float, trace: bool):
    """Repeat the workload's iteration for about ``seconds``; in a traced run,
    every second iteration is traced. Returns the operation seconds
    ``{operation: seconds}`` of each untraced and each traced iteration whose
    operations all succeeded."""
    times = {False: [], True: []}
    kinds = (False, True) if trace else (False,)
    need = 2 if trace else MIN_ITERATIONS
    start = time.perf_counter()
    i = 0
    while True:
        traced = trace and i % 2 == 1
        run.start(f"iter{i}", traced)
        try:
            workload.iteration(run)
            times[traced].append(run.op_seconds)
        except Aborted:
            pass
        i += 1
        elapsed = time.perf_counter() - start
        enough = all(len(times[k]) >= need for k in kinds) or i >= 4 * MIN_ITERATIONS
        if (enough and elapsed * (i + 1) / i > seconds) or elapsed > MAX_TIMED_SECONDS:
            break
    run.start("after", False)
    return times[False], times[True]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}); seed {CONFIRM_SEED} is held "
                             "back for confirming a claimed gain")
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=".bench_results",
                        help="result directory, relative to the repository root")
    args = parser.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("CLOES_THREADS", None)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "cascade_ranker" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {SRC / 'cascade_ranker'} or {spec_path} is missing; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    results_dir = (ROOT / args.results).resolve()
    if ROOT not in results_dir.parents and results_dir != ROOT:
        print(f"error: --results must lie inside {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    sys.path.insert(0, str(SRC))
    import cascade_ranker as cr
    import cascade_ranker.cli  # noqa: F401  (the package does not import its CLI)

    if Path(cr.__file__).resolve().parent != SRC / "cascade_ranker":
        print(f"error: imported cascade_ranker from {cr.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(cr) if args.trace else None
    run = Run(tracer)
    try:
        workload = WORKLOADS[args.workload](cr, args.seed, work)
        setup_times = []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            run.start("setup", bool(args.trace))
            if args.trace:
                tracer.install()
            try:
                start = time.perf_counter()
                workload.setup(run)
                setup_times.append(time.perf_counter() - start)
            finally:
                if args.trace:
                    tracer.uninstall()
        if hasattr(workload, "after_setup"):
            workload.after_setup(run)
        plain, traced = timed_phase(workload, run, args.seconds, bool(args.trace))
        quality = workload.quality(run) if plain else {}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(run.failed_ops)
    attempted = max(run.attempted, failed, 1)
    if args.trace:
        metrics = layer_metrics(tracer.phases, [sum(it.values()) for it in plain],
                                [sum(it.values()) for it in traced])
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "qps": (workload.queries_per_iteration() * len(plain)
                    / sum(sum(it.values()) for it in plain)) if plain else None,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "success_rate": (attempted - failed) / attempted,
            **quality,
        }
    missing = [m["name"] for m in wanted if metrics.get(m["name"]) is None]
    correct = failed == 0 and not missing
    if missing:
        print(f"FAILED: no value for {missing}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"]), "unit": m["unit"]} for m in wanted},
    }

    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env,
        "setup_seconds": setup_times, "operation_seconds": plain, "traced_operation_seconds": traced,
        "queries_per_iteration": workload.queries_per_iteration(),
        "sha256": run.digests, "errors": run.errors, "result": result,
    }
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if tracer is not None:
        tracer.write(results_dir / f"{stem}.spans.tsv.gz")
    for key, value in sorted(run.digests.items()):
        print(f"sha256 {key} {value}")
    print(f"setup_s {setup_times}")
    print(f"iteration_s {[sum(it.values()) for it in plain]} traced {[sum(it.values()) for it in traced]}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
