#!/usr/bin/env python3
"""End-to-end benchmark of the real wintermuted (see README.md here).

Run from the repository root:

  python3 perfbench/run.py --workload ingest_wire|ingest_durable|query_mix \\
      --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --self-check [--seed N]

It builds wintermuted and the load generator (wm_benchgen) into
.bench_build/, runs the workload against a freshly spawned daemon, checks
the daemon's outputs, and prints report lines followed by one JSON line:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer
metrics. --self-check arms the daemon's own loss fault and exits 0 only if
the oracle reports the loss.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
DAEMON = os.path.join(CMAKE_DIR, "wintermute", "src", "apps", "wintermuted")
GENERATOR = os.path.join(CMAKE_DIR, "wm_benchgen")

# Set-up is repeated and its median reported, so one slow start-up does not
# decide setup_s; recovery likewise.
SETUP_REPEATS = 5
RESTARTS = 9
POLL_SEC = 0.0002
START_BUDGET_SEC = 30.0
# Every REST request leaves a TIME_WAIT entry behind on the daemon's side
# for 60 s. A query_mix window that starts among the ~28k entries of a
# previous query_mix window completes fewer queries, so each query_mix pass
# waits, bounded, until they have drained before it starts the daemon it
# measures.
TIME_WAIT_MAX = 1000
TIME_WAIT_BUDGET_SEC = 62.0
PORT_PATTERNS = {
    "rest": re.compile(rb"HTTP server listening on 127\.0\.0\.1:(\d+)"),
    "transport": re.compile(rb"transport listening on 127\.0\.0\.1:(\d+)"),
}


class BenchError(Exception):
    pass


def require_checkout():
    """The benchmark builds the repository it sits in; without one it fails
    before printing any result."""
    for path in ("CMakeLists.txt", "src", os.path.join("tools", "procutil.py"),
                 "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, path)):
            raise BenchError(f"not a wintermute checkout: {path} is missing "
                             f"under {ROOT}")


def build():
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(BUILD, "build.log"), "ab") as log:
        if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                           stdout=log, stderr=log, check=True)
        subprocess.run(["cmake", "--build", CMAKE_DIR, "--target", "wintermuted",
                        "wm_benchgen", "-j", jobs],
                       stdout=log, stderr=log, check=True)


class Daemon:
    """One wintermuted incarnation on ephemeral ports, up and answering."""

    def __init__(self, config: str, log_path: str):
        self.spawned = time.monotonic()
        self.proc = procutil.spawn("wintermuted",
                                   [DAEMON, "--config", config, "--port", "0"],
                                   log_path=log_path)
        deadline = self.spawned + START_BUDGET_SEC
        ports: dict[str, int] = {}
        while len(ports) < len(PORT_PATTERNS):
            if time.monotonic() > deadline or not self.proc.alive():
                raise BenchError(f"wintermuted did not start; see {log_path}")
            with open(log_path, "rb") as log:
                text = log.read()
            for name, pattern in PORT_PATTERNS.items():
                match = pattern.search(text)
                if match:
                    ports[name] = int(match.group(1))
            time.sleep(POLL_SEC)
        self.rest_port = ports["rest"]
        self.transport_port = ports["transport"]
        while procutil.fetch_status(self.rest_port) is None:
            if time.monotonic() > deadline:
                raise BenchError(f"wintermuted /status never answered; see {log_path}")
            time.sleep(POLL_SEC)
        self.ready = time.monotonic()


def run_generator(argv: list[str], log_path: str, budget_sec: float):
    proc = procutil.spawn("wm_benchgen", [GENERATOR] + argv, log_path=log_path)
    try:
        code = proc.popen.wait(timeout=budget_sec)
    except subprocess.TimeoutExpired:
        proc.terminate()
        raise BenchError(f"wm_benchgen overran {budget_sec}s; see {log_path}")
    proc.terminate()
    if code != 0:
        raise BenchError(f"wm_benchgen exited with {code}; see {log_path}")


def daemon_config(workload: str, seed: int, persist_dir: str, path: str,
                  inject_loss: bool) -> str:
    argv = [GENERATOR, "config", "--workload", workload, "--seed", str(seed),
            "--persist-dir", persist_dir]
    if inject_loss:
        argv.append("--inject-loss")
    text = subprocess.run(argv, check=True, capture_output=True, text=True).stdout
    with open(path, "w", encoding="utf-8") as out:
        out.write(text)
    return text


def time_wait_count(own_ports: set[int]) -> int:
    """TCP connections in TIME_WAIT (state 06) in this network namespace,
    except those on `own_ports`, the REST ports of this pass's daemons."""
    count = 0
    for path in ("/proc/net/tcp", "/proc/net/tcp6"):
        try:
            with open(path, encoding="ascii") as table:
                next(table, None)
                for line in table:
                    fields = line.split()
                    port = int(fields[1].rsplit(":", 1)[1], 16)
                    count += fields[3] == "06" and port not in own_ports
        except OSError:
            pass
    return count


def drain_time_wait(own_ports: set[int]) -> tuple[float, int]:
    """Waits until at most TIME_WAIT_MAX entries of earlier runs are left,
    or the budget ends. Returns the seconds waited and the entries left."""
    start = time.monotonic()
    left = time_wait_count(own_ports)
    while left > TIME_WAIT_MAX and time.monotonic() - start < TIME_WAIT_BUDGET_SEC:
        time.sleep(0.5)
        left = time_wait_count(own_ports)
    return time.monotonic() - start, left


def status_number(status: dict | None, *keys: str) -> float:
    """A nested /status value; -1 when the key is absent."""
    value = status
    for key in keys:
        if not isinstance(value, dict) or key not in value:
            return -1.0
        value = value[key]
    return float(value) if isinstance(value, (int, float)) else -1.0


def measure(workload: str, seed: int, seconds: int, traced: bool, setups: int,
            inject_loss: bool = False, drain: bool = True) -> dict:
    """One pass: `setups` daemon spawns (the last one measured), the timed
    window, the oracle, then SIGKILL/restart cycles for recovery_s."""
    work = os.path.join(BUILD, "work", f"{workload}-{'traced' if traced else 'plain'}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    drained = None
    own_ports: set[int] = set()
    procs = []
    setup_s = []
    try:
        for rep in range(setups):
            final = rep == setups - 1
            persist = os.path.join(work, f"persist{rep}")
            config = os.path.join(work, f"daemon{rep}.cfg")
            config_text = daemon_config(workload, seed, persist, config, inject_loss)
            if final and drain and workload == "query_mix":
                # The unmeasured set-ups ran while earlier runs' entries aged.
                drained = drain_time_wait(own_ports)
            daemon = Daemon(config, os.path.join(work, f"daemon{rep}.log"))
            own_ports.add(daemon.rest_port)
            procs.append(daemon.proc)
            out = os.path.join(work, f"gen{rep}.json")
            argv = ["run", "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", "1" if traced else "0",
                    "--rest-port", str(daemon.rest_port),
                    "--transport-port", str(daemon.transport_port),
                    "--daemon-pid", str(daemon.proc.pid), "--out", out]
            if final:
                argv += ["--truth", os.path.join(work, "truth.txt")]
                if traced:
                    argv += ["--spans", os.path.join(work, "spans.txt")]
            else:
                argv.append("--setup-only")
            run_generator(argv, os.path.join(work, f"gen{rep}.log"), seconds + 150)
            with open(out, encoding="utf-8") as f:
                result = json.load(f)
            setup_s.append(result["window_start_ns"] / 1e9 - daemon.spawned)
            if not final:
                daemon.proc.terminate()

        durable = "persistence" in config_text
        snapshot = os.path.join(persist, "storage.snap")
        snapshot_mb = (os.path.getsize(snapshot) / 2**20
                       if os.path.exists(snapshot) else -1.0)
        recovery_s = []
        for i in range(RESTARTS):
            daemon.proc.sigkill()
            daemon = Daemon(config, os.path.join(work, f"restart{i}.log"))
            procs.append(daemon.proc)
            recovery_s.append(daemon.ready - daemon.spawned)
        status = procutil.fetch_status(daemon.rest_port)
        restored = None
        if durable:
            out = os.path.join(work, "verify.json")
            run_generator(["verify", "--rest-port", str(daemon.rest_port),
                           "--truth", os.path.join(work, "truth.txt"), "--out", out],
                          os.path.join(work, "verify.log"), 120)
            with open(out, encoding="utf-8") as f:
                restored = json.load(f)
    finally:
        procutil.reap_all(procs)

    result["setups"] = setups
    result["setup_s"] = statistics.median(setup_s)
    result["recovery_s"] = statistics.median(recovery_s)
    result["snapshot_mb"] = snapshot_mb
    result["replayed"] = status_number(status, "durability", "walRecordsReplayed")
    result["restored"] = restored
    if drained is not None:
        result["report"].append(f"waited {drained[0]:.1f} s for TIME_WAIT entries to drain; "
                                f"{drained[1]} left")
    if restored is not None:
        result["attempted"] += restored["expected"]
        result["failed"] += (restored["missing"] + restored["duplicates"] +
                             restored["extra"])
        result["report"].append(
            f"after SIGKILL and restart: {restored['expected']} acked readings, "
            f"{restored['missing']} missing, {restored['duplicates']} duplicated, "
            f"{restored['extra']} extra")
    return result


def e2e_values(result: dict) -> dict[str, tuple[float, int]]:
    values = {name: (m["value"], m["samples"]) for name, m in result["e2e"].items()}
    values["setup_s"] = (result["setup_s"], result["setups"])
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()

    require_checkout()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    if not args.self_check and args.workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchError(f"unknown workload {args.workload!r}")
    build()

    if args.self_check:
        result = measure("ingest_wire", args.seed, 3, False, 1, inject_loss=True)
        for line in result["report"]:
            print(line)
        ratio = result["failed"] / max(1, result["attempted"])
        print(f"self-check: collectagent.ingest drop prob=0.01 armed; "
              f"ops_failed_ratio {ratio:.6f}")
        print(json.dumps({"correct": result["failed"] == 0,
                          "attempted": result["attempted"], "failed": result["failed"],
                          "metrics": {}}))
        return 0 if result["failed"] > 0 else 1

    if args.trace:
        # The traced pass gives every per-layer number; the untraced pass
        # after it is the baseline the tracing overhead is measured against.
        # Only the traced pass waits for TIME_WAIT entries to drain, so that
        # the run ends within three minutes.
        result = measure(args.workload, args.seed, args.seconds, True, 1)
        plain = measure(args.workload, args.seed, args.seconds, False, 1, drain=False)
    else:
        result = measure(args.workload, args.seed, args.seconds, False, SETUP_REPEATS)

    for line in result["report"]:
        print(line)
    for line in result["violations"]:
        print(f"INVALID: {line}")
    values = e2e_values(result)
    for name, (value, samples) in values.items():
        print(f"{'traced ' if args.trace else ''}{name} = {value:.6g} (n={samples})")
    ratio = result["failed"] / max(1, result["attempted"])
    print(f"ops_failed_ratio = {ratio:.6g} ({result['failed']} of {result['attempted']})")
    print(f"recovery_s = {result['recovery_s']:.6g} (n={RESTARTS})")

    if args.trace:
        # Tick and query timings that did not repeat within a tenth are
        # listed per layer; the traced pass gives them like the rest.
        layers = {name: value for name, (value, _samples) in values.items()}
        layers.update({name: m["value"] for name, m in result["layers"].items()})
        layers["persist.snapshot_mb"] = result["snapshot_mb"]
        layers["persist.replayed"] = result["replayed"]
        layers["recovery_s"] = result["recovery_s"]
        layers["ops_failed_ratio"] = ratio
        base = e2e_values(plain)
        for name, (value, _samples) in values.items():
            layers[f"trace.overhead.{name}"] = value - base[name][0]
            print(f"tracing overhead {name}: untraced {base[name][0]:.6g}, "
                  f"traced {value:.6g}")
        samples = {name: samples for name, (_value, samples) in values.items()}
        samples.update({name: m["samples"] for name, m in result["layers"].items()})
        samples["recovery_s"] = RESTARTS
        wanted = spec["per_layer"]
    else:
        layers = {name: value for name, (value, _samples) in values.items()}
        samples = {name: samples for name, (_value, samples) in values.items()}
        wanted = spec["end_to_end"]

    metrics = {}
    for metric in wanted:
        name = metric["name"]
        if name not in layers:
            raise BenchError(f"metric {name} was not measured")
        metrics[name] = {"value": layers[name], "unit": metric["unit"]}
        if args.trace:
            print(f"layer {name} = {layers[name]:.6g} {metric['unit']} "
                  f"(n={samples.get(name, 1)})")
    correct = result["failed"] == 0 and not result["violations"]
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        require_checkout()
        sys.path.insert(0, os.path.join(ROOT, "tools"))
        import procutil  # noqa: E402  (the repository's spawn/reap helpers)
        sys.exit(main())
    except (BenchError, subprocess.CalledProcessError, OSError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        sys.exit(2)
