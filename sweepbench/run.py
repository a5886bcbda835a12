"""One repeatable benchmark of the sweep stack.

One run of one workload (the form ``BENCHMARK.json`` names)::

    python3 sweepbench/run.py --workload paper_grid --seed 0 --seconds 25 --trace 0

prints each end-to-end metric (``--trace 0``) or each per-layer metric of
the traced pass (``--trace 1``), then, as the last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  It exits non-zero when
an output is wrong or the checkout has no program to measure.

Interleaved trials of every workload, the traced split, and verdicts
against the recorded baseline::

    python3 sweepbench/run.py --trials 3 [--seed 0] [--compare sweepbench/baseline.json]
    python3 sweepbench/run.py --trials 5 --seed 0 --record sweepbench/baseline.json

Run from the root of a checkout; everything a run writes stays under
``sweepbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from harness.hostspeed import normalised, reference_s
from harness.stats import percentile, summarize, verdict
from harness.workloads import WORKERS, WORKLOADS, load_golden

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WHY = {workload["name"]: workload["why"] for workload in SPEC["workloads"]}

#: Set-up is timed this many times per run; the median is reported.
#: Each daemon or robustness set-up costs 1-1.5 s of a run's time budget.
SETUP_SAMPLES = 3

#: Every process of a run is killed after this long (the run limit is 180 s).
RUN_LIMIT_S = 170.0

#: Speed knobs removed from the measured processes' environment, so the
#: program runs its own defaults; their values are printed with the run.
KNOB_VARIABLES = ("REPRO_KERNEL_BACKEND", "REPRO_KERNEL_THREADS")

#: The measured processes always keep a bytecode cache, under ``OUT``: a
#: caller's ``PYTHONDONTWRITEBYTECODE`` would otherwise make every set-up
#: in a fresh checkout recompile the program (30% slower), while one with
#: stale ``__pycache__`` directories would not.
PYCACHE = OUT / "pycache"

#: Golden digests kept per workload and seed.
GOLDEN_REQUESTS = 64


class Children:
    """The processes of one run: spawned in their own session, always reaped."""

    def __init__(self, state: Path) -> None:
        self.state = state
        self.live: list[subprocess.Popen] = []
        removed = (*KNOB_VARIABLES, "PYTHONDONTWRITEBYTECODE")
        self.env = {key: value for key, value in os.environ.items() if key not in removed}
        self.env.update(
            PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH)]),
            PYTHONPYCACHEPREFIX=str(PYCACHE),
            TMPDIR=str(state),
            REPRO_KERNEL_CACHE=str(OUT / "kernel-cache"),
        )

    def spawn(self, argv: list[str], tag: str) -> subprocess.Popen:
        with open(self.state / f"{tag}.log", "w") as log:
            process = subprocess.Popen(
                argv,
                cwd=ROOT,
                env=self.env,
                stdout=subprocess.PIPE,
                stderr=log,
                text=True,
                start_new_session=True,
            )
        self.live.append(process)
        return process

    def read_until(self, process: subprocess.Popen, marker: str) -> str:
        for line in process.stdout:
            if marker in line:
                return line
        raise RuntimeError(f"process {process.args[2:4]} exited before {marker!r}")

    def output(self, process: subprocess.Popen) -> tuple[list[str], float]:
        """The rest of a successful process's stdout, and its peak RSS."""
        lines = process.stdout.read().splitlines()
        status, peak_rss = self.reap(process)
        if status != 0 or not lines:
            raise RuntimeError(f"process {process.args[2:4]} exited with status {status}")
        return lines, peak_rss

    def terminate(self, process: subprocess.Popen) -> None:
        try:
            os.kill(process.pid, signal.SIGTERM)
        except ProcessLookupError:
            pass

    def reap(self, process: subprocess.Popen) -> tuple[int, float]:
        """Wait for ``process``: exit status and peak RSS in MiB.

        ``wait4`` reports the largest resident set of the process and of
        every descendant it reaped (its pool workers).
        """
        _, status, usage = os.wait4(process.pid, 0)
        process.returncode = os.waitstatus_to_exitcode(status)
        process.stdout.close()
        self.live.remove(process)
        return process.returncode, usage.ru_maxrss / 1024.0

    def kill_all(self) -> None:
        for process in list(self.live):
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass


def trial_argv(name: str, seed: int, seconds: float, state: Path) -> list[str]:
    return [
        sys.executable, "-m", "harness.trial", "--workload", name, "--seed", str(seed),
        "--seconds", repr(seconds), "--state", str(state),
    ]  # fmt: skip


def timed_setup(children: Children, argv: list[str], tag: str, marker: str):
    """Spawn ``argv`` and wait for ``marker``: the process, its marker line,
    and the set-up time, wall and normalised by the host's speed measured
    just before the spawn."""
    reference = reference_s()
    start = time.perf_counter()
    process = children.spawn(argv, tag)
    line = children.read_until(process, marker)
    wall = time.perf_counter() - start
    return process, line, {"wall": wall, "normalised": normalised(wall, reference)}


def latencies(outcomes: list[dict], key: str = "latency_s") -> list[float]:
    """Normalised ``key`` timings of the requests that checked out."""
    return [normalised(o[key], o["reference_s"]) for o in outcomes if not o["problems"]]


def end_to_end(setups: list[dict], outcomes: list[dict], peak_rss: float) -> dict:
    """The end-to-end metrics, and the wall times behind the normalised ones."""
    ok = [outcome for outcome in outcomes if not outcome["problems"]]
    return {
        "metrics": {
            "setup_s": statistics.median(setup["normalised"] for setup in setups),
            "latency_p50_s": statistics.median(latencies(outcomes)) if ok else None,
            "peak_rss_mib": peak_rss,
        },
        "extras": {
            "wall setup_s": statistics.median(setup["wall"] for setup in setups),
            "wall latency_p50_s": statistics.median(o["latency_s"] for o in ok) if ok else None,
            "host reference_s (median)": (
                statistics.median(o["reference_s"] for o in ok) if ok else None
            ),
        },
    }


def measure_sweep(children: Children, name: str, seed: int, seconds: float) -> dict:
    setups = []
    argv = trial_argv(name, seed, seconds, children.state)
    for index in range(SETUP_SAMPLES):
        probe = index < SETUP_SAMPLES - 1
        process, _, setup = timed_setup(
            children, argv + (["--probe"] if probe else []), f"trial{index}", "READY"
        )
        setups.append(setup)
        if probe:
            children.reap(process)
    lines, peak_rss = children.output(process)
    outcomes = json.loads(lines[-1])["outcomes"]
    return {"outcomes": outcomes, **end_to_end(setups, outcomes, peak_rss)}


def measure_daemon(children: Children, seed: int, seconds: float) -> dict:
    sys.path.insert(0, str(SRC))
    from harness.load import closed_loop  # imports the client before set-up is timed

    setups = []
    for index in range(SETUP_SAMPLES):
        argv = [
            sys.executable, "-m", "repro", "serve", "--store",
            str(children.state / f"store{index}"), "--workers", str(WORKERS), "--port", "0",
        ]  # fmt: skip
        process, line, setup = timed_setup(children, argv, f"daemon{index}", "listening on ")
        setups.append(setup)
        if index < SETUP_SAMPLES - 1:
            children.terminate(process)
            children.reap(process)
    url = re.search(r"listening on (http://\S+)", line).group(1)
    outcomes = closed_loop(url, seed, seconds, load_golden(seed))
    children.terminate(process)
    status, peak_rss = children.reap(process)
    if status != 0:
        outcomes.append({"request": -1, "problems": [f"daemon exited with status {status}"]})
    measured = {"outcomes": outcomes, **end_to_end(setups, outcomes, peak_rss)}
    measured["extras"].update(
        {
            "latency_p90_s": percentile(latencies(outcomes), 0.9),
            **{
                f"{kind}_{label}_s": percentile(latencies(outcomes, f"{kind}_s"), q)
                for kind in ("miss", "hit")
                for label, q in (("p50", 0.5), ("p90", 0.9))
            },
        }
    )
    return measured


def measure_traced(children: Children, name: str, seed: int, seconds: float) -> dict:
    argv = trial_argv(name, seed, seconds, children.state) + ["--trace", "1"]
    lines, _ = children.output(children.spawn(argv, "traced"))
    return json.loads(lines[-1])


def fingerprint(children: Children) -> dict:
    """Host fingerprint, from an untimed warm-up process that imports the
    program and resolves its backend (filling page and compile caches)."""
    process = children.spawn([sys.executable, "-m", "harness.trial", "--fingerprint"], "warmup")
    lines, _ = children.output(process)
    found = json.loads(lines[-1])
    found["loadavg_1m"] = os.getloadavg()[0]
    found["removed_environment"] = {key: os.environ.get(key) for key in KNOB_VARIABLES}
    return found


def print_run(args, found: dict, measured: dict, catalogue: list, metrics: dict) -> None:
    print(
        f"workload {args.workload}  seed {args.seed}  "
        f"seconds {args.seconds:g}  trace {args.trace}"
    )
    print("#fingerprint " + json.dumps(found, sort_keys=True))
    requests = len(measured["outcomes"])
    print(f"  {'metric':40s} {'value':>14s}  unit   (per request; n={requests})")
    for metric in catalogue:
        value = metrics[metric["name"]]
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {metric['name']:40s} {shown:>14s}  {metric['unit']}")
    for label, value in measured.get("extras", {}).items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {label:40s} {shown:>14s}  s")
    if args.trace:
        request_s = metrics["trace.request_s"] or 1.0
        attributed = 1.0 - metrics["trace.unattributed_s"] / request_s
        print(f"  spans (self time per request; {attributed:.1%} of traced wall attributed)")
        for row in measured["spans"]:
            share = row["self_s"] / request_s
            print(
                f"    {row['span']:36s} {row['self_s']:12.6f} s {share:7.1%} "
                f"{row['calls']:12.1f} calls"
            )
    for outcome in measured["outcomes"]:
        for problem in outcome["problems"]:
            print(f"  FAILED request {outcome['request']}: {problem}")


def single_run(args) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program under {SRC}; run from a full checkout's root", file=sys.stderr)
        return 2
    name = args.workload
    OUT.mkdir(parents=True, exist_ok=True)
    state = OUT / f"run-{os.getpid()}"
    state.mkdir(parents=True, exist_ok=True)
    children = Children(state)
    watchdog = threading.Timer(RUN_LIMIT_S, children.kill_all)
    watchdog.daemon = True
    watchdog.start()
    try:
        found = fingerprint(children)
        if args.trace:
            measured = measure_traced(children, name, args.seed, args.seconds)
        elif name == "daemon_mixed":
            measured = measure_daemon(children, args.seed, args.seconds)
        else:
            measured = measure_sweep(children, name, args.seed, args.seconds)
    finally:
        watchdog.cancel()
        children.kill_all()
        shutil.rmtree(state, ignore_errors=True)
    catalogue = SPEC["per_layer"] if args.trace else SPEC["end_to_end"]
    metrics = {metric["name"]: measured["metrics"][metric["name"]] for metric in catalogue}
    outcomes = measured["outcomes"]
    failed = sum(1 for outcome in outcomes if outcome["problems"])
    correct = bool(outcomes) and failed == 0 and None not in metrics.values()
    print_run(args, found, measured, catalogue, metrics)
    digests = {o["request"]: o["digest"] for o in outcomes if "digest" in o}
    print("#digests " + json.dumps(digests))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(outcomes),
                "failed": failed,
                "metrics": {
                    metric["name"]: {"value": metrics[metric["name"]], "unit": metric["unit"]}
                    for metric in catalogue
                },
            }
        )
    )
    return 0 if correct else 1


def child_run(name: str, seed: int, seconds: float, trace: int) -> dict:
    """One single run in a fresh process: its result, digests and printout."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )  # fmt: skip
    lines = done.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{name} run failed:\n{done.stdout}\n{done.stderr}")
    tagged = dict(line.split(" ", 1) for line in lines if line.startswith("#"))
    return {
        "result": json.loads(lines[-1]),
        "digests": {int(key): value for key, value in json.loads(tagged["#digests"]).items()},
        "fingerprint": json.loads(tagged["#fingerprint"]),
        "printout": [line for line in lines[:-1] if not line.startswith("#")],
    }


def trials_run(args) -> int:
    names = list(WORKLOADS)
    loadavg = os.getloadavg()[0]
    runs: dict[str, list[dict]] = {name: [] for name in names}
    for trial in range(args.trials):
        for name in names:  # interleaved: A B C D A B C D ...
            runs[name].append(child_run(name, args.seed, args.seconds, 0))
            print(f"trial {trial + 1}/{args.trials} {name} done", flush=True)
    traced = {name: child_run(name, args.seed, args.seconds, 1) for name in names}
    found = next(iter(traced.values()))["fingerprint"]
    found["loadavg_1m"] = loadavg
    print("#fingerprint " + json.dumps(found, sort_keys=True))

    baseline = {}
    if args.compare:
        baseline = json.loads(Path(args.compare).read_text())["runs"].get(str(args.seed), {})
    summaries: dict[str, dict] = {}
    verdicts = []
    correct = True
    for name in names:
        correct &= all(run["result"]["correct"] for run in runs[name] + [traced[name]])
        summaries[name] = {}
        print(f"\n== {name}: {WHY[name]}")
        print(f"  {'metric':24s} {'unit':6s} {'median':>12s} {'IQR':>12s}  n  verdict")
        for metric in SPEC["end_to_end"]:
            values = [run["result"]["metrics"][metric["name"]]["value"] for run in runs[name]]
            summary = summarize(values)
            summaries[name][metric["name"]] = summary
            reference = baseline.get("metrics", {}).get(name, {}).get(metric["name"])
            result = verdict(metric, reference, values) if reference else "-"
            verdicts.append(result)
            print(
                f"  {metric['name']:24s} {metric['unit']:6s} {summary['median']:12.6g} "
                f"{summary['iqr']:12.6g} {summary['n']:2d}  {result}"
            )
        print("  traced pass (serial, in one process):")
        print("\n".join(traced[name]["printout"][1:]))

    digests: dict[str, list[str]] = {}
    for name in names:
        merged: dict[int, str] = {}
        for run in runs[name]:
            for request, digest in run["digests"].items():
                if merged.setdefault(request, digest) != digest:
                    print(f"error: {name} request {request} is not deterministic")
                    correct = False
        digests[name] = []
        while len(digests[name]) in merged and len(digests[name]) < GOLDEN_REQUESTS:
            digests[name].append(merged[len(digests[name])])

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    raw = out / f"trials-seed{args.seed}-{time.strftime('%Y%m%d-%H%M%S')}.json"
    raw.write_text(json.dumps({"fingerprint": found, "runs": runs, "traced": traced}, indent=1))
    print(f"\nraw trials: {raw}")
    if args.record and correct:
        record = Path(args.record)
        document = json.loads(record.read_text()) if record.is_file() else {"runs": {}}
        document["runs"][str(args.seed)] = {
            "fingerprint": found,
            "trials": args.trials,
            "seconds": args.seconds,
            "metrics": summaries,
            "golden": digests,
        }
        Path(args.record).write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
        print(f"recorded baseline for seed {args.seed}: {args.record}")
    if not correct:
        print("FAILED: some run produced wrong output")
        return 1
    if baseline:
        reference = baseline["fingerprint"]
        if found["cpu_count"] != reference["cpu_count"] or loadavg > found["cpu_count"]:
            print("host differs from the baseline's (cores or load): verdicts are advisory")
            return 0
        if "worse" in verdicts:
            return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="one run of one workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trials", type=int, help="interleaved trials of every workload")
    parser.add_argument("--compare", help="baseline file for verdicts (with --trials)")
    parser.add_argument("--record", help="write the baseline of --seed here (with --trials)")
    parser.add_argument("--out", default=str(OUT), help="where --trials writes raw numbers")
    args = parser.parse_args(argv)
    if args.trials:
        return trials_run(args)
    if args.workload is None:
        parser.error("give --workload (one run) or --trials N")
    return single_run(args)


if __name__ == "__main__":
    sys.exit(main())
