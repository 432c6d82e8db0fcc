"""End-to-end benchmark of the SMP prefilter: one run of one workload.

    python3 perfbench/run.py --workload medline-search --seed 1 \
        --seconds 20 --trace 0

Run from the root of a checkout.  The steps, each but the last in its own
process:

1. build ``src/repro`` with its C extension into ``.bench_build/``;
2. generate the seeded inputs and their reference digests (``gen.py``);
3. cold-start the program several times (``worker.py --cold``) and time
   each start from a fresh interpreter to ready, between two probes;
4. measure passes for ``--seconds`` in one process (``worker.py``),
   checking every output against the digests.

Workloads:

* ``medline-search`` -- a 32 MB MEDLINE file; one pass runs M1-M5, each as
  its own search-mode ``Engine.run(Source.from_file(...))``.
* ``xmark-shared`` -- a 32 MB XMark file through one shared-scan session
  over the 18 XM queries; output-heavy (copy-out and sinks dominate).
* ``medline-feed`` -- one closed-loop client over loopback against
  ``aio.serve_records`` with shared M2-M5: ~230 KB records, each sent after
  the previous one's durable ack.  (With ~15 KB records the syscalls and
  the fsync of each record's checkpoint were about half the latency, and
  on a shared VM their cost moved the feed's figures by up to 2x between
  runs of the same code; no CPU probe corrects that.)

End-to-end metrics (``--trace 0``): ``setup_s`` (median cold start),
``throughput_mbps`` (input MB over the median pass time), ``peak_rss_mb``
(``ru_maxrss`` of the measuring process) and ``p50_ms`` -- the latency from
a record's send to its ack on the feed, and from a chunk's read to the
consumer asking for the next one on the scan workloads.  Every time is
probe-normalized (see ``probe.py``).  ``--trace 1`` instead runs traced and
untraced passes alternately and prints the per-layer metrics, with the
99th percentile of the same latency as ``latency.p99_ms``; it carries no
bound because on a shared VM the host's load moves it far more than any
probe corrects (the feed's p99 ranged 1.6-6.6 ms over runs of the same
code).  The spans go to ``.bench_out/trace-<workload>.jsonl.gz``.

The last line of standard output is the result as JSON; the full record,
with the environment block and the un-normalized figures, is kept under
``.bench_out/results/<workload>/``, which ``compare.py`` reads.
``--plant-byte`` flips one output byte to prove that the checking bites:
the run then reports ``correct: false`` and exits with 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from probe import PROBE_REF_MS, ProbeError, probe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("medline-search", "xmark-shared", "medline-feed")
COLD_STARTS = 7
TIMEOUT_S = 120


class BenchError(Exception):
    pass


def _env(lib: str | None = None) -> dict:
    """Child environment: temporary files stay inside the checkout."""
    env = dict(os.environ)
    env["TMPDIR"] = os.path.join(OUT, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if lib is not None:
        env["PYTHONPATH"] = lib
        env["PYTHONHASHSEED"] = "0"
    return env


def _run(command: list[str], env: dict | None = None, timeout=TIMEOUT_S) -> str:
    completed = subprocess.run(command, env=env, stdout=subprocess.PIPE,
                               text=True, timeout=timeout, cwd=ROOT)
    if completed.returncode != 0:
        raise BenchError(f"{os.path.basename(command[1])} exited with "
                         f"{completed.returncode}")
    return completed.stdout


def git_revision() -> str:
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            capture_output=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES":
                 os.path.dirname(ROOT)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return completed.stdout.strip() if completed.returncode == 0 else "unknown"


def cold_start(env: dict, workload: str, data: str) -> tuple[float, dict]:
    """One cold start; returns its normalized seconds and its step times."""
    before = probe()
    started = time.perf_counter_ns()
    process = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), "--cold",
         "--workload", workload, "--data", data],
        env=env, stdout=subprocess.PIPE, bufsize=0, cwd=ROOT,
    )  # unbuffered: readline must not swallow what communicate reads
    try:
        ready = process.stdout.readline()
        elapsed = time.perf_counter_ns() - started
        rest, _ = process.communicate(timeout=TIMEOUT_S)
    finally:
        if process.poll() is None:
            process.kill()
        process.wait()
    after = probe()
    if ready.strip() != b"ready" or process.returncode != 0:
        raise BenchError(f"cold start of {workload} failed")
    factor = PROBE_REF_MS / ((before + after) / 2.0)
    steps = json.loads(rest.strip().splitlines()[-1])
    return elapsed / 1e9 * factor, {
        name: value if name == "compile.plans" else value * factor
        for name, value in steps.items()
    }


def measure(args) -> dict:
    for variable in ("REPRO_PURE", "REPRO_DELIVERY"):
        if os.environ.get(variable):
            raise BenchError(f"{variable} is set; the benchmark measures the "
                             "default accelerated tier only")
    lib = _run([sys.executable, os.path.join(HERE, "build.py"), ROOT],
               _env(), timeout=600).strip().splitlines()[-1]
    env = _env(lib)
    data = os.path.join(OUT, "data", args.workload)
    shutil.rmtree(data, ignore_errors=True)
    os.makedirs(data)
    try:
        _run([sys.executable, os.path.join(HERE, "gen.py"), "--workload",
              args.workload, "--seed", str(args.seed), "--out", data], env)
        # Write back what earlier steps and runs left dirty, so that the
        # feed's fsynced checkpoints do not wait behind it.
        os.sync()
        cold_start(env, args.workload, data)  # warms the page cache
        starts = [cold_start(env, args.workload, data)
                  for _ in range(COLD_STARTS)]
        command = [sys.executable, os.path.join(HERE, "worker.py"),
                   "--workload", args.workload, "--data", data,
                   "--seconds", str(args.seconds)]
        if args.trace:
            command += ["--trace-out",
                        os.path.join(OUT, f"trace-{args.workload}.jsonl.gz")]
        if args.plant_byte:
            command.append("--plant-byte")
        lines = _run(command, env, timeout=args.seconds + TIMEOUT_S)
    finally:
        shutil.rmtree(data, ignore_errors=True)
    result = json.loads(lines.strip().splitlines()[-1])
    if "throughput_mbps" not in result:
        raise BenchError(f"no pass completed: {result['failed']} of "
                         f"{result['attempted']} operations failed")
    result["setup_s"] = statistics.median(seconds for seconds, _ in starts)
    result["setup_steps"] = {
        name: statistics.median(steps[name] for _, steps in starts)
        for name in starts[0][1]
    }
    return result


def metrics(result: dict, trace: bool) -> dict:
    def metric(value, unit):
        return {"value": value, "unit": unit}

    if not trace:
        return {
            "setup_s": metric(result["setup_s"], "s"),
            "throughput_mbps": metric(result["throughput_mbps"], "MB/s"),
            "peak_rss_mb": metric(result["peak_rss_mb"], "MB"),
            "p50_ms": metric(result["p50_ms"], "ms"),
        }
    layers = dict(result["layers"])
    steps = result["setup_steps"]
    layers.update({
        "latency.p99_ms": result["p99_ms"],
        "import.repro_s": steps["import.repro_s"],
        "compile.plans_s": steps["compile.plans_s"],
        "compile.plans": steps["compile.plans"],
        "compile.shared_s": steps["compile.shared_s"],
        "machine.probe_ms": result["probe_ms"],
        "machine.raw_throughput_mbps": result["raw_throughput_mbps"],
    })
    units = load_benchmark()["per_layer"]
    return {entry["name"]: metric(layers[entry["name"]], entry["unit"])
            for entry in units}


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--plant-byte", action="store_true")
    args = parser.parse_args(argv)
    # One CPU for the runner and every process it starts: a probe only
    # speaks for the CPU it ran on.
    with open("/proc/self/stat") as handle:
        cpu = int(handle.read().rsplit(")", 1)[1].split()[36])
    os.sched_setaffinity(0, {cpu})
    try:
        result = measure(args)
    except (BenchError, ProbeError, subprocess.TimeoutExpired) as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 2
    correct = result["failed"] == 0 and result["attempted"] > 0
    output = {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics(result, bool(args.trace)),
    }
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "git": git_revision(),
        "env": result["env"], **output,
        "details": {key: result[key] for key in (
            "raw_throughput_mbps", "probe_ms", "samples", "passes",
            "setup_steps") if key in result},
    }
    folder = os.path.join(OUT, "results", args.workload)
    os.makedirs(folder, exist_ok=True)
    name = f"seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    with open(os.path.join(folder, name), "w") as handle:
        json.dump(record, handle, indent=1)
    print(json.dumps({"env": record["env"], "git": record["git"],
                      **record["details"]}), file=sys.stderr)
    print(json.dumps(output))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
