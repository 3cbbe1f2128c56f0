#!/usr/bin/env python3
"""Runs the benchmark: builds largeea_cli and perfbench_tool from this
checkout, runs one workload on inputs generated from --seed, checks every
output, and prints one JSON result as its last stdout line.

    python3 perfbench/run.py --workload dbp1m_run --seed 1 --seconds 10 \
        --trace 0

--trace 0 runs the CLI as a black box and reports the end-to-end metrics
of BENCHMARK.json; --trace 1 adds the in-process traced run and reports
the per-layer metrics. See perfbench/README.md for the workloads."""

import argparse
import filecmp
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

ROOT = Path.cwd()
BUILD = ROOT / ".bench_build"
CLI = BUILD / "largeea" / "examples" / "largeea_cli"
TOOL = BUILD / "perfbench_tool"
# A run, every subprocess included, must end within 180 s.
DEADLINE_S = 170.0
# Config keys that name a run's own files; the traced run sets its own.
IO_KEYS = {"report-out", "trace-out", "out", "checkpoint-dir", "resume"}
# The layers whose spans get pool utilization / idle metrics.
PAR_LAYERS = ("kg", "name", "sim", "partition", "structure", "rt", "fusion",
              "eval", "serve")
RETRAIN_EPOCHS = "40"
MIN_REPS = 3
# Dataset generations per run; set-up time takes their median.
GEN_REPS = 3


class CheckFailed(Exception):
    pass


class Run:
    """One workload run: its scratch directory, clock and bookkeeping."""

    def __init__(self, workload, seed, seconds):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.started = time.monotonic()
        self.work = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.data = self.work / "data"
        self.data.mkdir()
        self.errors = []
        self.shape = {}

    def remaining(self):
        return DEADLINE_S - (time.monotonic() - self.started)

    def check(self, ok, message):
        if not ok:
            self.errors.append(message)

    def spawn(self, args, log_name):
        """Runs a process to completion; (wall s, peak RSS MB, exit)."""
        with open(self.work / log_name, "ab") as log:
            start = time.monotonic()
            proc = subprocess.Popen([str(a) for a in args], stdout=log,
                                    stderr=subprocess.STDOUT)
            # wait4 reaps the child itself, for its rusage; the timer
            # only fires if the child outlives the run's deadline.
            timer = threading.Timer(max(1.0, self.remaining()), proc.kill)
            timer.start()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.monotonic() - start
            timer.cancel()
        code = os.waitstatus_to_exitcode(status)
        proc.returncode = code
        return wall, usage.ru_maxrss / 1024.0, code

    def data_args(self):
        return ["--source", self.data / "source.tsv",
                "--target", self.data / "target.tsv",
                "--seeds", self.data / "train.tsv",
                "--test", self.data / "test.tsv"]

    def generate(self):
        """Generates the seed's dataset GEN_REPS times (the same files
        each time); returns the median generation time."""
        times = []
        for _ in range(GEN_REPS):
            start = time.monotonic()
            out = subprocess.run([str(TOOL), "gen", "--out", str(self.data),
                                  "--seed", str(self.seed)],
                                 capture_output=True, text=True,
                                 timeout=self.remaining(), check=True)
            times.append(time.monotonic() - start)
        self.shape = json.loads(out.stdout.strip().splitlines()[-1])
        return statistics.median(times)

    def cli_run(self, extra, report_name):
        """One `largeea_cli run`; returns a dict with wall, rss, exit,
        report, batches and dropped."""
        report_path = self.work / report_name
        wall, rss, code = self.spawn(
            [CLI, "run", *self.data_args(), *extra,
             "--report-out", report_path], "cli.log")
        run = {"wall": wall, "rss": rss, "exit": code, "report": None,
               "batches": 0, "dropped": 0}
        self.check(code == 0, f"largeea_cli run {extra} exited {code}")
        if code == 0 and report_path.exists():
            report = json.loads(report_path.read_text())
            run["report"] = report
            run["batches"] = int(report["config"]["batches"])
            run["dropped"] = int(
                report["metrics"]["gauges"].get("pipeline.batches_dropped", 0))
            self.check("eval" in report, f"{report_name} has no eval section")
        return run

    def index_build(self, index):
        wall, _, code = self.spawn(
            [CLI, "index-build", *self.data_args(), "--index-out", index],
            "cli.log")
        self.check(code == 0 and index.exists(),
                   f"largeea_cli index-build exited {code}")
        return wall, code

    def load(self, index, out_name):
        out = self.work / out_name
        _, _, code = self.spawn(
            [TOOL, "load", "--cli", CLI, "--index", index,
             "--dataset", self.data, "--seed", self.seed,
             "--seconds", self.seconds,
             "--serve-log", self.work / "serve.log",
             "--serve-report", self.work / "serve.json", "--out", out],
            "load.log")
        if code != 0 or not out.exists():
            raise CheckFailed(f"load generator exited {code}")
        result = json.loads(out.read_text())
        # The serve process's own report (the last one spawned writes it
        # last): how many request lines each executed batch held.
        serve = json.loads((self.work / "serve.json").read_text())["serve"]
        result["cli_batch_size"] = serve["queries"] / max(1, serve["batches"])
        self.check(result["complete"], "serve session did not complete")
        self.check(result["exit_status"] == 0,
                   f"serve exited with wait status {result['exit_status']}")
        self.check(result["mismatches"] == 0,
                   f"{result['mismatches']} served answers differ from the "
                   f"in-process engine, first: {result['first_mismatch']}")
        self.check(result["version_errors"] == 0,
                   f"{result['version_errors']} responses broke the version "
                   "order around swaps")
        self.check(result["swaps"] >= 1, "no swap was answered")
        return result

    def trace(self, mode, config_report, extra):
        """The in-process traced run with options from `config_report`."""
        args_file = self.work / f"{mode}.config.args"
        write_config_args(config_report, args_file)
        out = self.work / f"{mode}.trace.json"
        _, _, code = self.spawn(
            [TOOL, "trace", "--mode", mode, "--config", args_file,
             "--dataset", self.data, "--out", out, *extra], "trace.log")
        if code != 0 or not out.exists():
            raise CheckFailed(f"traced run exited {code}")
        return json.loads(out.read_text())


def write_config_args(report, path):
    lines = [f"--{key}={value}" for key, value in report["config"].items()
             if key not in IO_KEYS]
    path.write_text("\n".join(lines) + "\n")


def repeat_for(seconds, body):
    """Calls body() until `seconds` have passed and MIN_REPS calls were
    made, so the reported median is a median of at least three."""
    results = []
    start = time.monotonic()
    while len(results) < MIN_REPS or time.monotonic() - start < seconds:
        results.append(body())
    return results


def check_same_quality(run, runs, what):
    reports = [r["report"] for r in runs if r["report"]]
    evals = {(r["eval"]["hits_at_1"], r["eval"]["mrr"]) for r in reports}
    run.check(len(evals) == 1, f"{what}: H@1/MRR differ across repeats {evals}")
    for h1, mrr in evals:
        run.check(0 < h1 <= 1 and 0 < mrr <= 1, f"{what}: H@1 {h1} MRR {mrr}")


def cli_metrics(runs, setup_s):
    ok = [r for r in runs if r["report"]]
    if not ok:
        raise CheckFailed("no CLI run produced a report")
    return {
        "wall_s": statistics.median([r["wall"] for r in ok]),
        "peak_rss_mb": statistics.median([r["rss"] for r in ok]),
        "hits_at_1": ok[0]["report"]["eval"]["hits_at_1"],
        "mrr": ok[0]["report"]["eval"]["mrr"],
        "setup_s": setup_s,
    }


def checkpoint_dirs_equal(a, b):
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return False
    _, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    return not mismatch and not errors


# --- workloads ---------------------------------------------------------
#
# Each returns (metrics, attempted, failed, trace_facts); trace_facts is
# None with --trace 0.

def workload_run(run, trace):
    setup_s = run.generate()
    if not trace:
        runs = repeat_for(run.seconds, lambda: run.cli_run([], "run.json"))
        check_same_quality(run, runs, "run")
        attempted, failed = stats.count_cli_failures(runs)
        return cli_metrics(runs, setup_s), attempted, failed, None
    cli = run.cli_run([], "run.json")
    if not cli["report"]:
        raise CheckFailed("run produced no report")
    traced = run.trace("run", cli["report"], [])
    compose(run, traced["main"], cli["report"], "run")
    attempted, failed = stats.count_cli_failures([cli])
    return {}, attempted, failed, {"traced": traced, "cli_wall": cli["wall"]}


def workload_retrain(run, trace):
    gen_s = run.generate()
    # One priming run: at ~13 s it is most of the run's time budget.
    prime = run.cli_run(["--checkpoint-dir", run.work / "prime"],
                        "prime.json")
    setup_s = gen_s + prime["wall"]

    def retrain():
        ck = run.work / "ck"
        shutil.rmtree(ck, ignore_errors=True)
        # Hard links instead of copies: the resume replaces every file it
        # rewrites by rename, so the primed files stay intact, and no
        # 125 MB copy is left for writeback to flush during the next rep.
        shutil.copytree(run.work / "prime", ck, copy_function=os.link)
        return run.cli_run(["--checkpoint-dir", ck, "--resume",
                            "--epochs", RETRAIN_EPOCHS], "retrain.json")

    if not trace:
        runs = repeat_for(run.seconds, retrain)
        check_same_quality(run, runs, "retrain")
        attempted, failed = stats.count_cli_failures([prime] + runs)
        return cli_metrics(runs, setup_s), attempted, failed, None
    cli = retrain()
    if not cli["report"] or not prime["report"]:
        raise CheckFailed("retrain produced no report")
    prime_args = run.work / "prime.config.args"
    write_config_args(prime["report"], prime_args)
    traced = run.trace("retrain", cli["report"],
                       ["--prime-config", prime_args,
                        "--work", run.work / "traced"])
    compose(run, traced["prime"], prime["report"], "retrain priming")
    compose(run, traced["main"], cli["report"], "retrain")
    run.check(traced["main"]["name_resumed"],
              "the traced resume recomputed the name channel")
    run.check(checkpoint_dirs_equal(run.work / "ck",
                                    run.work / "traced" / "checkpoints"),
              "traced checkpoints differ from the CLI's")
    attempted, failed = stats.count_cli_failures([prime, cli])
    return {}, attempted, failed, {
        "traced": traced,
        "cli_wall": prime["wall"] + cli["wall"]}


def workload_serve(run, trace):
    gen_s = run.generate()
    index = run.work / "index.lea"
    build_s, build_code = run.index_build(index)
    if build_code != 0:
        raise CheckFailed("index-build failed")
    load = run.load(index, "load.json")
    setup_s = gen_s + build_s + statistics.median(load["startup_s"])
    attempted = 1 + load["attempted"]
    failed = load["failed"]
    if not trace:
        metrics = {
            "wall_s": statistics.median(load["burst_s"][1:]),
            "peak_rss_mb": load["peak_rss_mb"],
            "hits_at_1": load["hits_at_1"],
            "mrr": load["mrr"],
            "setup_s": setup_s,
        }
        return metrics, attempted, failed, None
    cli = run.cli_run([], "run.json")
    if not cli["report"]:
        raise CheckFailed("run produced no report")
    traced = run.trace("serve", cli["report"],
                       ["--index", index, "--index-out", run.work / "own.lea",
                        "--seed", run.seed])
    compose(run, traced["main"], cli["report"], "serve")
    run.check(filecmp.cmp(index, run.work / "own.lea", shallow=False),
              "the traced index artifact differs from index-build's")
    run.check(load["hits_at_1"] == traced["main"]["hits_at_1"],
              f"served H@1 {load['hits_at_1']} != batch H@1 "
              f"{traced['main']['hits_at_1']}")
    attempted += 1
    failed += 0 if cli["exit"] == 0 else 1
    return {}, attempted, failed, {"traced": traced,
                                   "cli_wall": cli["wall"], "load": load}


def compose(run, traced_pass, report, what):
    for problem in stats.composition_mismatches(traced_pass, report):
        run.check(False, f"composition ({what}): {problem}")


WORKLOADS = {
    "dbp1m_run": workload_run,
    "dbp1m_retrain": workload_retrain,
    "dbp1m_serve": workload_serve,
}


# --- per-layer metrics --------------------------------------------------

SPAN_METRICS = {
    "kg.load_s": "kg",
    "name.encode_s": "name.encode",
    "sim.build_s": "sim.build",
    "sim.search_s": "sim.search",
    "name.string_s": "name.string",
    "name.fuse_s": "name.fuse",
    "name.augment_s": "name.augment",
    "partition.build_s": "partition",
    "structure.train_s": "structure.train",
    "rt.restore_s": "rt.restore",
    "rt.save_s": "rt.save",
    "fusion.fuse_s": "fusion",
    "eval.evaluate_s": "eval",
    "serve.build_s": "serve.build",
    "serve.save_s": "serve.save",
    "serve.load_s": "serve.load",
    "serve.swap_s": "serve.swap",
}
VALUE_METRICS = (
    "kg.lines_skipped", "name.encoded_names", "sim.rows",
    "sim.candidates_scanned", "name.string_nnz", "name.pseudo_seeds",
    "partition.batches", "structure.batches_trained",
    "structure.batches_retried", "structure.batches_dropped",
    "rt.bytes_read", "rt.bytes_written", "serve.artifact_mb",
    "serve.parse_us", "serve.entity_exec_us", "serve.name_exec_us",
    "serve.name_exact_exec_us", "serve.shortlist_ids", "serve.batch_size",
    "proc.cpu_s",
)


def layer_metrics(facts):
    traced = facts["traced"]
    spans = traced["spans"]
    values = traced["values"]
    root = next(s for s in spans if s["parent"] == -1)
    root_id = spans.index(root)
    layers = [s for s in spans if s["parent"] == root_id]
    m = {}
    for metric, name in SPAN_METRICS.items():
        m[metric] = sum(s["end"] - s["start"] for s in layers
                        if s["name"] == name)
    for metric in VALUE_METRICS:
        m[metric] = values.get(metric, 0.0)
    scanned = values.get("sim.candidates_scanned", 0.0)
    m["sim.kept_ratio"] = (values.get("sim.kept_entries", 0.0) / scanned
                           if scanned else 0.0)
    for layer in PAR_LAYERS:
        mine = [s for s in layers if s["name"].split(".")[0] == layer]
        busy = sum(s["busy_us"] for s in mine)
        capacity = sum(s["capacity_us"] for s in mine)
        m[f"par.util.{layer}"] = busy / capacity if capacity else 0.0
        m[f"par.idle_s.{layer}"] = (capacity - busy) / 1e6
    m["pipeline.unattributed_s"] = stats.self_time(root, layers)
    # Traced wall of the CLI-equivalent work (up to the last evaluation)
    # minus the untraced CLI wall of the same work.
    last_eval = max(s["end"] for s in layers if s["name"] == "eval")
    m["trace.overhead_s"] = (last_eval - root["start"]) - facts["cli_wall"]

    load = facts.get("load")
    serve_keys = ("entity_p50_us", "name_p50_us", "query_p99_us",
                  "query_tail_us", "query_tail_q", "query_samples", "swap_s",
                  "serve_qps", "recall_at_10", "gen.late_ms",
                  "serve.queue_wait_us", "serve.cli_batch_size")
    m.update({k: 0.0 for k in serve_keys})
    if load:
        queries = load["entity_us"] + load["name_us"]
        q, tail_value, n = stats.tail(queries)
        m["entity_p50_us"] = statistics.median(load["entity_us"])
        m["name_p50_us"] = statistics.median(load["name_us"])
        m["query_p99_us"] = stats.percentile(queries, 0.99)
        m["query_tail_us"] = tail_value or 0.0
        m["query_tail_q"] = q or 0.0
        m["query_samples"] = n
        m["swap_s"] = statistics.median(load["swap_s"])
        m["serve_qps"] = (load["burst_requests"]
                          / statistics.median(load["burst_s"][1:]))
        m["recall_at_10"] = load["recall_at_10"]
        m["gen.late_ms"] = load["late_max_ms"]
        m["serve.cli_batch_size"] = load["cli_batch_size"]
        m["serve.queue_wait_us"] = (m["entity_p50_us"]
                                    - m["serve.entity_exec_us"])
    return m


# --- entry point --------------------------------------------------------

def build():
    """Builds both binaries; False (with the reason on stderr) when this
    checkout cannot be built."""
    if not (ROOT / "CMakeLists.txt").exists() or not (ROOT / "src").is_dir():
        print("run.py: run from the repository root (no CMakeLists.txt/src)",
              file=sys.stderr)
        return False
    BUILD.mkdir(exist_ok=True)
    with open(BUILD / "build.log", "ab") as log:
        steps = []
        if not (BUILD / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", "perfbench", "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "-j",
                      str(os.cpu_count() or 1), "--target", "largeea_cli",
                      "perfbench_tool"])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                print(f"run.py: build step failed: {' '.join(step)} "
                      f"(see {BUILD / 'build.log'})", file=sys.stderr)
                return False
    return True


def metadata(run):
    meta = json.loads(subprocess.run([str(TOOL), "meta"], capture_output=True,
                                     text=True, check=True).stdout)
    build_type = ""
    for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            build_type = line.split("=", 1)[1]
    meta.update({"workload": run.workload, "seed": run.seed,
                 "nproc": os.cpu_count(), "build_type": build_type,
                 "dataset": run.shape})
    return meta


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists() or not build():
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    run = Run(args.workload, args.seed, args.seconds)
    try:
        metrics, attempted, failed, facts = WORKLOADS[args.workload](
            run, bool(args.trace))
        if args.trace:
            metrics = layer_metrics(facts)
        meta = metadata(run)
    except (CheckFailed, subprocess.SubprocessError, OSError,
            KeyError, ValueError) as e:
        print(f"run.py: {args.workload}: {e}", file=sys.stderr)
        for log in sorted(run.work.glob("*.log")):
            tail = log.read_text(errors="replace").splitlines()[-20:]
            print(f"--- {log.name}\n" + "\n".join(tail), file=sys.stderr)
        shutil.rmtree(run.work, ignore_errors=True)
        return 1
    shutil.rmtree(run.work, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    run.check(not missing, f"metrics not measured: {missing}")
    for problem in run.errors:
        print(f"run.py: check failed: {problem}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    result = {
        "correct": not run.errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0),
                                "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0 if not run.errors else 1


if __name__ == "__main__":
    sys.exit(main())
