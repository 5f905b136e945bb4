"""Seeded benchmark of fertaper's four CLI pipelines.

Usage (from the repository root):

    python3 perfbench/run.py --workload encode_taper --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 18

Each workload runs in this one process on a closed loop: one in-process
``fertaper.cli.main`` call at a time, on input files generated from the
seed.  Instances come in rounds of a fixed tier mix.  ``--seconds`` fixes
the amount of work: the run makes ``seconds / nominal_round_s`` rounds,
which took about ``--seconds`` when the benchmark was written, so two
commits always time the same instances.  ``--trace 0`` reports the
end-to-end metrics, every time scaled to a reference machine speed that
``calibrate()`` measures around each timed step.  ``--trace 1`` runs half as
many rounds untraced, replays them with every public fertaper function
wrapped in a span, and reports the per-layer metrics.  Outputs are
checked after each instance, outside the timed region.  The last stdout
line is one JSON object with the keys correct, attempted, failed and
metrics.
"""

from time import perf_counter

STARTED = perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import functools  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

# single-threaded BLAS, set before anything imports numpy
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("encode_taper", "codesim", "graphgen_decode", "firstq")
SETUP_SAMPLES = 5  # this process plus four set-up-only child processes
TIERS = ("small", "medium", "large")
# seconds calibrate() takes on the reference VM (2-core x86_64, the one the
# numbers in README.md come from) in a calm minute: its loop took 12 ms and
# its eigvalsh 1.7 ms.  Loaded minutes read 17-30 ms.
CAL_REF_S = 0.0140


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--corrupt", action="store_true",
                   help="self-test: damage one checked output copy; it must count as failed")
    p.add_argument("--setup-only", action="store_true",
                   help="do the set-up, print its seconds and exit (set-up samples)")
    return p.parse_args(argv)


def git_sha() -> str:
    try:
        ref = (ROOT / ".git" / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    def version(dist: str) -> str:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "missing"

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "networkx": version("networkx"), "git_sha": git_sha(), "seed": seed,
            "machine": platform.machine()}


def round_count(workload, args) -> int:
    """Rounds this run makes: a function of --seconds only, never of speed."""
    budget = args.seconds / 2 if args.trace else args.seconds
    return max(1, round(budget / workload.nominal_round_s))


class Setup:
    """Inputs of every round, written under one work directory.

    Construction ends with one untimed warm-up instance of the smallest
    tier, which calls each of the workload's subcommands once.
    """

    def __init__(self, workload, seed: int, rounds: int, work: Path):
        import numpy as np

        from workloads import Instance, Runner

        index = WORKLOAD_NAMES.index(workload.name)
        self.rounds = []
        for r in range(rounds + 1):  # the extra round holds the warm-up input
            row = []
            for slot, tier in enumerate(workload.round):
                if r == rounds and tier != "small":
                    continue
                d = work / f"r{r}s{slot}"
                d.mkdir(parents=True)
                rng = np.random.default_rng([seed, index, r, slot])
                params = workload.generate(rng, tier, d, r * len(workload.round) + slot)
                row.append(Instance(0, tier, d, params))
            self.rounds.append(row)
        warmup = self.rounds.pop()[0]
        digest = hashlib.sha256()
        for path in sorted(work.rglob("*")):
            if path.is_file() and warmup.directory not in path.parents:
                digest.update(str(path.relative_to(work)).encode())
                digest.update(path.read_bytes())
        self.digest = digest.hexdigest()
        workload.run(warmup, Runner())


def setup_samples(args, own: float) -> list[tuple[float, float]]:
    """(seconds, slowdown) of this run's set-up and of fresh processes repeating it.

    The slowdown comes from the calibration samples taken just after this
    process's set-up and on either side of each child process.
    """
    slowdowns = [machine_slowdown()]
    out = [(own, slowdowns[0])]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--setup-only"],
            capture_output=True, text=True, timeout=120, cwd=ROOT, check=True)
        slowdowns.append(machine_slowdown())
        out.append((float(proc.stdout.strip().splitlines()[-1]),
                    (slowdowns[-2] + slowdowns[-1]) / 2))
    return out


@functools.cache
def _cal_matrix():
    import numpy as np

    a = np.random.default_rng(0).standard_normal((96, 96))
    return a + a.T


def calibrate() -> float:
    """Seconds of a fixed kernel: a pure-Python loop plus four small eigvalsh.

    It mixes the interpreter and BLAS work the pipelines do.
    """
    import numpy as np

    a = _cal_matrix()
    start = perf_counter()
    s, d, out = 0, {}, []
    for i in range(80000):
        s += i * i % 7
        d[i & 1023] = s
        if i % 64 == 0:
            out.append(str(s)[-3:])
    for _ in range(4):
        np.linalg.eigvalsh(a)
    return perf_counter() - start


def machine_slowdown() -> float:
    """The shared machine's slowdown right now against the reference VM."""
    return calibrate() / CAL_REF_S


def run_rounds(workload, setup: Setup, runner):
    """Run and check every instance; returns (instances, round seconds, failures)."""
    done, round_secs, failures = [], [], []
    for row in setup.rounds:
        total = 0.0
        for template in row:
            inst = dataclasses.replace(template, ident=len(done), seconds=0.0, outputs={})
            if runner.tracer is not None:
                runner.tracer.instance, runner.tracer.tier = inst.ident, inst.tier
            gc.collect()  # every instance starts from a collected heap, untimed
            try:
                workload.run(inst, runner)
                problems = workload.check(inst)
            except Exception as exc:  # a crash is a failed instance, not a dead run
                problems = [f"{type(exc).__name__}: {exc}"]
            total += inst.seconds
            done.append(inst)
            failures.append(problems)
        round_secs.append(total)
    return done, round_secs, failures


def end_to_end(instances, setup_times, scaled=True) -> tuple[dict, dict]:
    """End-to-end metrics and the instance count behind each tier median.

    If ``scaled``, each time is divided by the slowdown measured around it,
    which gives seconds on the reference VM.
    """
    def secs(inst) -> float:
        return inst.ref_seconds if scaled else inst.seconds

    counts, metrics = {}, {"wall_s": {"value": sum(secs(i) for i in instances), "unit": "s"}}
    for tier in TIERS:
        times = [secs(i) for i in instances if i.tier == tier]
        counts[tier] = len(times)
        metrics[f"{tier}_p50_s"] = {"value": statistics.median(times), "unit": "s"}
    setup = [seconds / slow if scaled else seconds for seconds, slow in setup_times]
    metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    metrics["peak_rss_mib"] = {"value": peak, "unit": "MiB"}
    return metrics, counts


def per_layer(workload, setup: Setup, round_secs, out_dir: Path, args) -> tuple[dict, list, dict]:
    """Replay the untraced rounds with spans; returns (metrics, failures, extras)."""
    from tracer import Tracer
    from workloads import Runner

    tracer = Tracer()
    tracer.install()
    try:
        traced, traced_secs, failures = run_rounds(workload, setup, Runner(tracer))
    finally:
        tracer.uninstall()
    tiers = {i.ident: i.tier for i in traced}
    metrics = tracer.metrics(tiers)
    metrics["trace.overhead_ratio"] = {"value": sum(traced_secs) / sum(round_secs) - 1,
                                       "unit": "ratio"}
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"spans-{args.workload}-seed{args.seed}.json").write_text(json.dumps(
        {"fields": ["name", "start", "end", "parent", "instance"],
         "instance_tiers": tiers, "spans": tracer.spans}))
    return metrics, failures, {"missing_targets": tracer.missing,
                               "traced_round_seconds": traced_secs}


def self_test(workload, instances, work: Path) -> list[str]:
    """Corrupt a copy of the first instance's outputs; return what the check says."""
    from workloads import copy_instance

    bad = copy_instance(instances[0], work / "corrupted")
    workload.corrupt(bad)
    return workload.check(bad) or ["corrupted output passed its check"]


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "fertaper" / "cli.py").is_file():
        print(f"error: no fertaper sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fertaper.cli  # noqa: F401  (import time is part of set-up)

    if not Path(fertaper.cli.__file__).resolve().is_relative_to(SRC):
        print("error: fertaper was imported from outside this checkout", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Runner

    workload = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir = ROOT / ".perfbench_out"
    extra = {}
    try:
        setup = Setup(workload, args.seed, round_count(workload, args), work)
        setup_own = perf_counter() - STARTED
        if args.setup_only:
            print(f"{setup_own:.6f}")
            return 0
        setup_times = setup_samples(args, setup_own)
        runner = Runner() if args.trace else Runner(slowdown=machine_slowdown)
        instances, round_secs, failures = run_rounds(workload, setup, runner)
        if args.trace:
            metrics, traced_failures, traced_extra = per_layer(workload, setup, round_secs,
                                                               out_dir, args)
            failures += traced_failures
            extra.update(traced_extra)
        else:
            metrics, extra["instances"] = end_to_end(instances, setup_times)
            extra["raw_metrics"], _ = end_to_end(instances, setup_times, scaled=False)
            extra["mean_slowdown"] = (sum(i.seconds for i in instances)
                                   / sum(i.ref_seconds for i in instances))
            extra["instance_seconds"] = [(i.tier, i.seconds, i.ref_seconds) for i in instances]
        if args.corrupt:
            failures.append(self_test(workload, instances, work))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(failures)
    failed = sum(1 for f in failures if f)
    record = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "input_digest": setup.digest, "environment": environment(args.seed),
        "rounds": len(round_secs), "fail_ratio": failed / attempted, **extra,
        "round_seconds": round_secs, "setup_seconds": setup_times,
        "failures": [f for f in failures if f][:20],
    }
    out_dir.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps({**record, "metrics": metrics}, indent=1))
    print_report(record, metrics, failed, attempted)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def print_report(record: dict, metrics: dict, failed: int, attempted: int) -> None:
    """Human-readable lines, each prefixed with '#', ahead of the result line."""
    for key, value in record.items():
        if key not in ("failures", "round_seconds", "setup_seconds", "traced_round_seconds",
                       "instance_seconds"):
            print(f"# {key}: {json.dumps(value)}")
    for problems in record["failures"]:
        print(f"# FAILED: {'; '.join(problems)}")
    print(f"# fail_ratio {failed / attempted:.4f} ratio ({failed}/{attempted} instances)")
    counts = record.get("instances", {})
    for key, m in metrics.items():
        n = counts.get(key.split("_")[0])
        print(f"# {key} {m['value']:.6g} {m['unit']}" + (f" (n={n})" if n else ""))


def run_all(args) -> int:
    """Print every metric of every workload, each workload in its own process."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--corrupt"] if args.corrupt else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            print(f"{name}: exit code {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        print(f"== {name}")
        print("\n".join(line for line in lines[:-1] if not line.startswith("# environment")))
    return status


if __name__ == "__main__":
    sys.exit(main())
