#!/usr/bin/env python3
"""gridvc benchmark: one command for the four workloads, with output checks.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--toy] [--sabotage] [--pass-timeout S]

Run it from the root of a gridvc checkout. It builds gridvc from source
into .bench_build/ (Release), then runs the workload for about S seconds:

  paper-pipeline  Table IV over the synthetic NCAR-NICS and SLAC-BNL logs
                  (1 exec lane; trace runs add 4-lane passes)
  anl-nersc       the ANL-NERSC 334-test matrix over twelve weeks
  federation      24 sites, 50k users, 100k transfers (1 lane; trace runs
                  add 4-lane passes)
  serve           gridvc-serve --test-clock --tenants 3, closed loop over
                  a unix socket, one connection per tenant

The in-process workloads run one perfbench-driver process per pass, each
under a wall-clock timeout (--pass-timeout); a pass that times out is
recorded as failed, not hidden. With --trace 0 the last line of stdout is
a JSON object carrying every end-to-end metric of BENCHMARK.json; with
--trace 1 it carries every per-layer metric, taken from traced passes
interleaved with untraced ones (their difference is the tracing
overhead). Every output check that fails makes the run fail: the result
says "correct": false and the exit code is 1. --toy shrinks every
workload for the self-test, and --sabotage makes one output check expect
a wrong value. perfbench/README.md describes the workloads, the metrics
and the layer ledger.
"""
import argparse
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
GRIDVC_BUILD = os.path.join(BUILD, "gridvc")
DRIVER_BUILD = os.path.join(BUILD, "driver")
OUT = os.path.join(BUILD, "out")
DRIVER = os.path.join(DRIVER_BUILD, "perfbench-driver")
SERVE = os.path.join(GRIDVC_BUILD, "tools", "gridvc-serve")

# Driver sub-command of each in-process workload; serve runs a daemon.
IN_PROCESS = {"paper-pipeline": "pipeline", "anl-nersc": "anl-nersc",
              "federation": "federation"}
WORKLOADS = list(IN_PROCESS) + ["serve"]

RUN_LIMIT_S = 170.0       # a run ends well inside the 180 s budget
# End-to-end passes run the program on one executor lane. On a shared
# 4-vCPU host, 4-lane passes wait at every join for the vCPU the hypervisor
# descheduled last: federation passes swung 5-15 s between runs where
# 1-lane passes stayed within about 10%, and 10-seed spreads of 4-lane
# paper-pipeline runs reached 0.27. Trace runs add passes on
# PARALLEL_LANES lanes, whose speed-up and CPU cost are per-layer metrics
# (exec.synth_cpu_per_wall, shard.*_4_lanes; ROADMAP item 3).
LANES = 1
PARALLEL_LANES = 4
LANED = ("pipeline", "federation")
SERVE_TENANTS = 3
# Jobs per tenant in one daemon lifetime (one to two seconds of load). Each
# lifetime does the same work, so the daemon's peak RSS, which grows with
# the tickets it has seen, is comparable across lifetimes and runs.
SERVE_ITERATIONS = 6000
SERVE_TOY_ITERATIONS = 200
SERVE_DRAIN_S = 30.0  # SIGTERM to exit, then the daemon is killed


class BenchError(Exception):
    """The benchmark cannot run here (no sources, build failure)."""


# ------------------------------------------------------------------ build

def build():
    """Build gridvc and the driver from source; incremental after the first."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("no gridvc sources at %s (CMakeLists.txt and src/ needed)" % ROOT)
    os.makedirs(OUT, exist_ok=True)
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", ROOT, "-B", GRIDVC_BUILD, *gen, "-DCMAKE_BUILD_TYPE=Release",
         "-DGRIDVC_BUILD_TESTS=OFF", "-DGRIDVC_BUILD_BENCH=OFF",
         "-DGRIDVC_BUILD_EXAMPLES=OFF", "-DGRIDVC_BUILD_TOOLS=ON"],
        ["cmake", "--build", GRIDVC_BUILD, "-j", jobs],
        ["cmake", "-S", os.path.join(HERE, "driver"), "-B", DRIVER_BUILD, *gen,
         "-DCMAKE_BUILD_TYPE=Release", "-DGRIDVC_ROOT=" + ROOT,
         "-DGRIDVC_BUILD_DIR=" + GRIDVC_BUILD],
        ["cmake", "--build", DRIVER_BUILD, "-j", jobs],
    ]
    build_log = os.path.join(BUILD, "build.log")
    with open(build_log, "w") as out:
        for step in steps:
            try:
                rc = subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                                    cwd=ROOT, timeout=850).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                raise BenchError("build step %s failed: %s" % (step[:3], e))
            if rc != 0:
                out.flush()
                with open(build_log) as f:
                    tail = f.read()[-3000:]
                raise BenchError("build step %s failed (rc %d):\n%s" % (step[:3], rc, tail))


# ------------------------------------------------------- in-process passes

def run_pass(args, role, index, timeout):
    """One driver process; returns its JSON (plus setup_s) or a failure.

    role is "plain" (end-to-end), "traced" (per-layer) or "parallel" (an
    untraced pass on PARALLEL_LANES lanes).
    """
    kind = IN_PROCESS[args.workload]
    cmd = [DRIVER, kind, "--seed", str(args.seed)]
    if kind in LANED:
        lanes = PARALLEL_LANES if role == "parallel" else LANES
        cmd += ["--lanes", str(lanes)]
    if args.toy:
        cmd.append("--toy")
    if args.sabotage:
        cmd.append("--sabotage")
    if role == "traced":
        cmd += ["--trace", "--spans-out",
                os.path.join(OUT, "%s-pass%d.spans.jsonl" % (args.workload, index))]
    spawn = time.monotonic()
    try:
        p = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"failure": "pass %d timed out after %.3g s" % (index, timeout), "role": role}
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        return {"failure": "pass %d exited %d: %s" % (index, p.returncode, p.stderr.strip()[-300:]),
                "role": role}
    r = json.loads(lines[-1])
    r["setup_s"] = r["ready_s"] - spawn
    r["role"] = role
    return r


def run_in_process(args):
    # Trace runs interleave the roles, so all of them see the same machine
    # conditions.
    if not args.trace:
        cycle = ["plain"]
    elif IN_PROCESS[args.workload] in LANED:
        cycle = ["plain", "traced", "parallel"]
    else:
        cycle = ["plain", "traced"]
    start = time.monotonic()
    passes = []
    while True:
        left = RUN_LIMIT_S - (time.monotonic() - start)
        r = run_pass(args, cycle[len(passes) % len(cycle)], len(passes),
                     min(args.pass_timeout, max(1.0, left)))
        passes.append(r)
        if "failure" in r:
            break
        elapsed = time.monotonic() - start
        if elapsed >= args.seconds and len(passes) >= max(2, len(cycle)):
            break
        if elapsed >= RUN_LIMIT_S - args.pass_timeout:
            break
    return passes


# ------------------------------------------------------------------ serve

def read_until(fd, buf, needle, deadline):
    """Read a pipe into buf until needle appears, EOF, or the deadline."""
    while needle is None or needle not in buf:
        left = deadline - time.monotonic()
        if left <= 0:
            return buf, False
        ready, _, _ = select.select([fd], [], [], left)
        if not ready:
            continue
        chunk = os.read(fd, 4096)
        if not chunk:
            return buf, needle is None
        buf += chunk
    return buf, True


def reap(proc, deadline):
    """wait4 the process (killing it at the deadline); returns (rc, rusage)."""
    while True:
        pid, status, ru = os.wait4(proc.pid, os.WNOHANG)
        if pid == proc.pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, ru
        if time.monotonic() >= deadline:
            proc.kill()
            _, status, ru = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            return None, ru
        time.sleep(0.002)


def parse_prometheus(path):
    values = {}
    try:
        with open(path) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and not line.startswith("#"):
                    try:
                        values[parts[0]] = float(parts[1])
                    except ValueError:
                        pass
    except OSError:
        pass
    return values


def serve_cpu():
    """One CPU for the daemon and the clients together.

    The daemon's handler thread owns all its state, and its reader threads
    only hand lines over, so one CPU turns every hand-off of a round trip
    into a plain context switch instead of a cross-CPU wake-up. On a shared
    VM a wake-up waits until the hypervisor runs the target vCPU again, so
    a layout over two or more CPUs measures the host: with the daemon on
    one CPU and the clients on another, 10-seed spreads reached 0.44 for
    requests_per_s and 2.7 for latency_p99_us while the host was busy. On one
    CPU the closed loop never idles the vCPU, and a stolen slice only
    stalls the requests in flight at that moment.
    """
    return {max(os.sched_getaffinity(0))}


def pinned(cpus):
    return lambda: os.sched_setaffinity(0, cpus)


def serve_lifetime(args, index, traced, timeout):
    """Launch gridvc-serve, drive it with one fixed batch of jobs, SIGTERM it."""
    sock = "@perfbench-%d-%d" % (os.getpid(), index)
    metrics_path = os.path.join(OUT, "serve-%d.prom" % index)
    if os.path.exists(metrics_path):
        os.remove(metrics_path)
    res = {"checks": [], "traced": traced}
    cpu = serve_cpu()
    spawn = time.monotonic()
    daemon = subprocess.Popen(
        [SERVE, "--socket", sock, "--test-clock", "--tenants", str(SERVE_TENANTS),
         "--metrics-out", metrics_path],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, cwd=ROOT,
        preexec_fn=pinned(cpu))
    fd = daemon.stderr.fileno()
    err = b""
    try:
        err, ok = read_until(fd, err, b"listening", spawn + 30)
        res["setup_s"] = time.monotonic() - spawn
        if not ok:
            res["failure"] = "daemon never reported listening"
        else:
            iterations = SERVE_TOY_ITERATIONS if args.toy else SERVE_ITERATIONS
            cmd = [DRIVER, "serve", "--seed", str(args.seed), "--socket", sock,
                   "--iterations", str(iterations), "--seconds", repr(timeout),
                   "--tenants", str(SERVE_TENANTS)]
            if args.sabotage:
                cmd.append("--sabotage")
            if traced:
                cmd += ["--trace", "--spans-out",
                        os.path.join(OUT, "serve-lifetime%d.spans.jsonl" % index)]
            try:
                p = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                                   timeout=timeout + 5, preexec_fn=pinned(cpu))
                lines = p.stdout.strip().splitlines()
                if p.returncode != 0 or not lines:
                    res["failure"] = "client exited %d: %s" % (p.returncode, p.stderr[-300:])
                else:
                    res["client"] = json.loads(lines[-1])
            except subprocess.TimeoutExpired:
                res["failure"] = "client timed out"
            if "client" in res and res["client"]["wall_s"] >= timeout:
                res["failure"] = "daemon lifetime %d timed out after %.3g s" % (index, timeout)
    finally:
        # os.kill, not Popen.send_signal: the latter polls, and a poll that
        # reaps the daemon would lose its rusage to wait4.
        os.kill(daemon.pid, signal.SIGTERM)
        err, _ = read_until(fd, err, None, time.monotonic() + SERVE_DRAIN_S)
        rc, ru = reap(daemon, time.monotonic() + SERVE_DRAIN_S)
        daemon.stderr.close()
    text = err.decode(errors="replace")
    res["daemon_cpu_s"] = ru.ru_utime + ru.ru_stime
    res["daemon_rss_kb"] = ru.ru_maxrss
    res["metrics"] = parse_prometheus(metrics_path)
    handled = None
    for line in text.splitlines():
        if "drained after" in line:
            handled = int(line.split("drained after")[1].split()[0])
    res["handled"] = handled
    if rc != 0:
        res["checks"].append("daemon exited %s (expected 0 after a clean drain)" % rc)
    if "quiescent=1" not in text:
        res["checks"].append("daemon did not report quiescent=1: %s" % text.strip()[-200:])
    client = res.get("client")
    if client is not None:
        res["checks"] += client["checks"]
        if handled != client["requests"]:
            res["checks"].append("daemon handled %s requests, client sent %d"
                                 % (handled, client["requests"]))
    return res


def run_serve(args):
    """Daemon lifetimes, one fixed batch of jobs each, until the time is up."""
    start = time.monotonic()
    lifetimes = []
    while True:
        traced = bool(args.trace) and len(lifetimes) % 2 == 1
        # Leave room for the client's grace and the daemon's drain.
        left = RUN_LIMIT_S - 2 * SERVE_DRAIN_S - 5 - (time.monotonic() - start)
        s = serve_lifetime(args, len(lifetimes), traced, min(args.pass_timeout, max(1.0, left)))
        lifetimes.append(s)
        if "failure" in s:
            break
        elapsed = time.monotonic() - start
        if elapsed >= args.seconds and len(lifetimes) >= 2:
            break
        if elapsed + args.pass_timeout >= RUN_LIMIT_S - 2 * SERVE_DRAIN_S - 5:
            break
    return lifetimes


# ---------------------------------------------------------------- metrics

def median(values):
    return statistics.median(values) if values else 0.0


def nearest_rank(values, q):
    """The smallest value with at least a share q of the values at or below it."""
    if not values:
        return 0.0
    k = math.ceil(round(q * len(values), 9))  # round: 0.99 * 100 is 99, not 99.00...01
    return sorted(values)[max(k, 1) - 1]


def tail(values):
    """The p99, or over fewer than 100 values the second largest value.

    A run has only 5-20 in-process passes, too few for a p99. Their maximum
    reads the worst burst of host CPU steal in the run: with twelve-week
    anl-nersc passes, its 10-seed spread was 0.19 against a median spread
    of 0.07. The highest quantile with a value beyond it still shows a
    slow tail, and one burst does not move it.
    """
    if not values:
        return 0.0
    return nearest_rank(values, min(0.99, 1.0 - 1.0 / len(values)))


def ratio(num, den):
    return num / den if den else 0.0


def zone_self(zones, *prefixes):
    return sum(z["self_s"] for name, z in zones.items() if name.startswith(prefixes))


def zone_field(zones, name, key):
    return zones.get(name, {}).get(key, 0.0)


def span_total(spans, name):
    return spans.get(name, {}).get("total_s", 0.0)


def counter_layers(get, transfers):
    """sim/net/gridftp ratios from MetricsSnapshot-named counters."""
    recomputes = get("gridvc_net_recomputes")
    return {
        "sim.events_per_transfer": ratio(get("gridvc_sim_events_dispatched"), transfers),
        "sim.cancel_per_schedule": ratio(get("gridvc_sim_events_cancelled"),
                                         get("gridvc_sim_events_scheduled")),
        "net.recomputes_per_batch": ratio(recomputes, get("gridvc_sim_dispatch_batches")),
        "net.recomputes_per_transfer": ratio(recomputes, transfers),
        "net.rate_changes_per_recompute": ratio(get("gridvc_net_rate_changes"), recomputes),
        "gridftp.attempts_per_transfer": ratio(get("gridvc_gridftp_attempts"), transfers),
    }


def pass_layers(p):
    """Per-layer metrics of one traced in-process pass."""
    zones, spans, c = p["zones"], p["spans"], p["counters"]
    t = p["transfers"]
    m = {
        "sim.self_s": zone_self(zones, "sim."),
        "net.self_s": zone_self(zones, "net."),
        "net.max_min_p50_us": zone_field(zones, "net.max_min_allocate", "p50_us"),
        "gridftp.self_s": zone_self(zones, "gridftp.engine."),
        "vc.self_s": zone_self(zones, "vc.idc.", "vc.calendar."),
        "shard.epoch_self_s": zone_field(zones, "shard.epoch", "self_s"),
        "shard.exchange_self_s": zone_field(zones, "shard.exchange", "self_s"),
    }
    if p["workload"] == "pipeline":
        m.update({
            "workload.synth_s": span_total(spans, "workload.synthesize_trace"),
            "analysis.group_sessions_s": span_total(spans, "analysis.group_sessions"),
            "analysis.feasibility_s": span_total(spans, "analysis.analyze_vc_feasibility"),
            "analysis.sessions": c["sessions"],
        })
    elif p["workload"] == "anl-nersc":
        m.update(counter_layers(lambda k: c.get(k, 0.0), t))
    elif p["workload"] == "federation":
        # The federation exports no registry; its counts come from
        # ShardStats and from the profiler's per-zone call counts.
        recomputes = zone_field(zones, "net.recompute", "count")
        m.update({
            "sim.events_per_transfer": ratio(c["events_dispatched"], t),
            "net.recomputes_per_batch": ratio(recomputes,
                                              zone_field(zones, "sim.dispatch_batch", "count")),
            "net.recomputes_per_transfer": ratio(recomputes, t),
            "gridftp.attempts_per_transfer": ratio(
                zone_field(zones, "gridftp.engine.begin_attempt", "count"), t),
            "vc.chain_grant_frac": ratio(c["chains_granted"], c["chains_requested"]),
            "shard.construct_s": span_total(spans, "shard.ShardedSimulation"),
            "workload.federation_build_s": span_total(spans, "workload.build_federation"),
            "shard.barriers_per_ktransfer": ratio(c["barriers"] * 1000.0, t),
            "shard.messages_per_transfer": ratio(c["messages"], t),
            "shard.stall_fraction": c["stall_fraction"],
        })
    return m


def lifetime_layers(s):
    """Per-layer metrics of one traced daemon lifetime."""
    c, prom = s["client"], s["metrics"]
    m = counter_layers(lambda k: prom.get(k, 0.0), prom.get("gridvc_gridftp_transfers_completed", 0.0))
    for op in ("connect", "submit", "poll", "stats"):
        lat = c["latency"]["frontend." + op]
        m["frontend.%s_p50_us" % op] = lat["p50_us"]
        m["frontend.%s_p99_us" % op] = lat["p99_us"]
    m["frontend.server_cpu_us_per_request"] = ratio(s["daemon_cpu_s"] * 1e6, s["handled"] or 0)
    m["frontend.rejects"] = prom.get("gridvc_front_rejections", 0.0)
    m["frontend.sheds"] = sum(v for k, v in prom.items()
                              if k.startswith("gridvc_front_tenant_") and k.endswith("_shed"))
    return m


def ledger_of(zones, spans):
    """Self seconds by layer: profiler zones by prefix, driver spans by name."""
    rows = {}
    for name, z in zones.items():
        layer = name.split(".")[0]
        rows[layer] = rows.get(layer, 0.0) + z["self_s"]
    zone_sum = sum(rows.values())
    for name, s in spans.items():
        layer = name.split(".")[0]
        own = s["self_s"]
        # The span that wraps the simulated stack counts only its time
        # outside every zone (zones are its children on its own lane).
        if name in ("workload.run_anl_nersc_tests", "shard.ShardedSimulation::run"):
            own = max(0.0, own - zone_sum)
        rows[layer] = rows.get(layer, 0.0) + own
    return rows


def in_process_result(args, passes):
    ok = [p for p in passes if "failure" not in p]
    failures = [p["failure"] for p in passes if "failure" in p]
    checks = [c for p in ok for c in p["checks"]]
    digests = {p["digest"] for p in ok}
    if len(digests) > 1:
        checks.append("outputs differ across passes of one seed: %s" % sorted(digests))
    if args.workload == "paper-pipeline":
        counts = {p["counters"]["sessions"] for p in ok}
        if len(counts) > 1:
            checks.append("session counts differ across passes: %s" % sorted(counts))
    good = [p for p in ok if not p["checks"]]
    e2e_passes = [p for p in good if p["role"] == "plain"]
    walls = [p["wall_s"] for p in e2e_passes]
    e2e = {
        "setup_s": median([p["setup_s"] for p in e2e_passes]),
        "transfers_per_s": median([p["transfers"] / p["wall_s"] for p in e2e_passes]),
        "requests_per_s": median([p["requests"] / p["wall_s"] for p in e2e_passes]),
        "cpu_us_per_transfer": median([p["cpu_s"] * 1e6 / p["transfers"] for p in e2e_passes]),
        "cpu_us_per_request": median([p["cpu_s"] * 1e6 / p["requests"] for p in e2e_passes]),
        "latency_p50_us": median(walls) * 1e6,
        "latency_p99_us": tail(walls) * 1e6,
        "peak_rss_mb": median([p["peak_rss_kb"] / 1024.0 for p in e2e_passes]),
    }
    traced = [p for p in good if p["role"] == "traced"]
    parallel = [p for p in good if p["role"] == "parallel"]
    layers, ledger = {}, {}
    if traced:
        per_pass = [pass_layers(p) for p in traced]
        layers = {k: median([m[k] for m in per_pass]) for k in per_pass[0]}
        traced_rate = median([p["transfers"] / p["wall_s"] for p in traced])
        layers["obs.trace_overhead_frac"] = 1.0 - ratio(traced_rate, e2e["transfers_per_s"])
        ledger = ledger_of(traced[-1]["zones"], traced[-1]["spans"])
    if parallel and args.workload == "paper-pipeline":
        layers["exec.synth_cpu_per_wall"] = median(
            [ratio(p["counters"]["synth_cpu_s"], p["counters"]["synth_wall_s"])
             for p in parallel])
    if parallel and e2e_passes and args.workload == "federation":
        layers["shard.speedup_4_lanes"] = ratio(median(walls),
                                                median([p["wall_s"] for p in parallel]))
        layers["shard.cpu_ratio_4_lanes"] = ratio(median([p["cpu_s"] for p in parallel]),
                                                  median([p["cpu_s"] for p in e2e_passes]))
    return {
        "attempted": len(passes), "failed": len(passes) - len(good),
        "failures": failures, "checks": checks, "e2e": e2e, "layers": layers,
        "ledger": ledger, "samples": len(e2e_passes), "traced_samples": len(traced),
    }


def serve_result(args, lifetimes):
    checks = [c for s in lifetimes for c in s["checks"]]
    failures = [s["failure"] for s in lifetimes if "failure" in s]
    driven = [s for s in lifetimes if "client" in s]
    attempted = sum(s["client"]["requests"] for s in driven) or 1
    failed = 0
    for s in driven:
        # A lifetime whose daemon did not drain cleanly loses all its requests.
        failed += s["client"]["requests"] if s["checks"] else s["client"]["failed"]
    if failures:
        failed = attempted
    good = [s for s in driven if not s["checks"]]
    plain = [s for s in good if not s["traced"]]
    rates = [s["client"]["requests"] / s["client"]["wall_s"] for s in plain]
    e2e = {
        "setup_s": median([s["setup_s"] for s in plain]),
        "transfers_per_s": median([s["client"]["transfers"] / s["client"]["wall_s"]
                                   for s in plain]),
        "requests_per_s": median(rates),
        "cpu_us_per_transfer": median([ratio(s["daemon_cpu_s"] * 1e6, s["client"]["transfers"])
                                       for s in plain]),
        "cpu_us_per_request": median([ratio(s["daemon_cpu_s"] * 1e6, s["handled"] or 0)
                                      for s in plain]),
        "latency_p50_us": median([s["client"]["latency"]["all"]["p50_us"] for s in plain]),
        "latency_p99_us": median([s["client"]["latency"]["all"]["p99_us"] for s in plain]),
        "peak_rss_mb": median([s["daemon_rss_kb"] / 1024.0 for s in plain]),
    } if plain else {}
    traced = [s for s in good if s["traced"]]
    layers, ledger = {}, {}
    if traced and plain:
        per_lifetime = [lifetime_layers(s) for s in traced]
        layers = {k: median([m[k] for m in per_lifetime]) for k in per_lifetime[0]}
        traced_rate = median([s["client"]["requests"] / s["client"]["wall_s"] for s in traced])
        layers["obs.trace_overhead_frac"] = 1.0 - ratio(traced_rate, e2e["requests_per_s"])
        ledger = {name + " (client)": t["self_s"]
                  for name, t in traced[-1]["client"]["spans"].items()}
    return {
        "attempted": attempted, "failed": failed, "failures": failures, "checks": checks,
        "e2e": e2e, "layers": layers, "ledger": ledger,
        "samples": sum(s["client"]["latency"]["all"]["n"] for s in plain),
        "traced_samples": len(traced),
    }


# ------------------------------------------------------------------- main

def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "layers.json")) as f:
        targets = json.load(f)
    return spec, targets


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true", help="tiny sizes (self-test)")
    ap.add_argument("--sabotage", action="store_true",
                    help="make one output check expect a wrong value (self-test)")
    ap.add_argument("--pass-timeout", type=float, default=60.0,
                    help="wall-clock limit of one pass; a pass past it counts as failed")
    args = ap.parse_args()

    try:
        spec, targets = load_spec()
        build()
    except (BenchError, OSError, ValueError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2

    if args.workload == "serve":
        res = serve_result(args, run_serve(args))
    else:
        res = in_process_result(args, run_in_process(args))

    correct = not res["checks"] and not res["failures"] and bool(res["e2e"])
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = res["layers"] if args.trace else res["e2e"]
    if args.trace and not res["layers"]:
        correct = False
    metrics = {m["name"]: {"value": float(source.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in wanted}

    print("workload %s  seed %d  trace %d  samples %d  traced samples %d"
          % (args.workload, args.seed, args.trace, res["samples"], res["traced_samples"]))
    for name, m in metrics.items():
        goal = targets.get(name, {}).get("moves", "")
        print("  %-36s %16.6g %-6s %s" % (name, m["value"], m["unit"], goal))
    print("  %-36s %16.6g %-6s (%d of %d operations)"
          % ("failed_frac", ratio(res["failed"], res["attempted"]), "frac",
             res["failed"], res["attempted"]))
    if res["ledger"]:
        total = sum(res["ledger"].values()) or 1.0
        print("  layer ledger (self seconds):")
        for layer, s in sorted(res["ledger"].items(), key=lambda kv: -kv[1]):
            print("    %-28s %10.4f s %6.1f%%" % (layer, s, 100.0 * s / total))
        with open(os.path.join(OUT, "ledger-%s.json" % args.workload), "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "self_s": res["ledger"], "layers": res["layers"]}, f, indent=1)
    for msg in res["failures"] + res["checks"][:20]:
        print("  CHECK FAILED: %s" % msg)
    print(json.dumps({"correct": correct, "attempted": int(res["attempted"]),
                      "failed": int(res["failed"]), "metrics": metrics}))
    return 0 if correct and res["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
