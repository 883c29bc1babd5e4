#!/usr/bin/env python3
"""End-to-end benchmark of rtise: what a user waits for, split by module.

    python3 e2ebench/run.py --workload explore|batch_warm \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The script builds `serve` and the
in-process probe (e2ebench/probe) into $CARGO_TARGET_DIR
(default .bench_build), runs one workload, checks every output, and
prints one JSON object as the last line of stdout. Work counts, per-layer
tables and diagnostics go to the lines before it. README.md in this
directory defines the workloads and every metric.

Self-tests of the harness logic: python3 e2ebench/test_run.py
"""

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

BENCH = os.path.relpath(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("explore", "batch_warm")

# Sizing. Every count below is a function of --seconds only, so two runs
# with the same seed and seconds do exactly the same work.
EXPLORE_CONNECTIONS = 2          # closed-loop TCP connections (= nproc)
EXPLORE_MIN_REQUESTS = 1000      # p99 needs >= 10 samples beyond it
EXPLORE_REQUESTS_PER_S = 45      # ~44 ms per request on each connection
BATCH_REQUESTS = 1000            # stream length of one batch session
BATCH_SESSIONS_PER_S = 13        # ~75 ms per session on a 2-core x86 box
SETUP_REPEATS = {"explore": 41, "batch_warm": 5}
BATCH_PHASE_CAP = 2              # x seconds: stolen sessions may stretch the phase to this
BATCH_MIN_CLEAN = 10             # fewer steal-free sessions than this: measure all
MINI_EXPLORE_REQUESTS = 200      # trace runs of other workloads
MINI_BATCH_SESSIONS = 3

PAPER_COUNTS = (
    "ise.bnb.nodes",
    "ise.enumerate.generated",
    "select.edf.dp_cells",
    "select.rms.nodes",
    "ilp.nodes_explored",
    "mlgp.merges",
    "graphpart.refine_moves",
)
FAMILIES = ("curve", "select_edf", "select_rms", "ilp", "reconfig")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """A failure that makes the run's result meaningless (no JSON line)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def now():
    return time.perf_counter()


# ---------------------------------------------------------------- statistics


def percentile(values, q):
    """Nearest-rank q-th percentile (0 < q <= 100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n, q):
    """How many of n samples lie beyond the nearest-rank q-th percentile."""
    return n - max(1, math.ceil(q / 100.0 * n))


def tail_percentile(values, q, min_beyond=10):
    """The q-th percentile, refusing a sample too small to support it."""
    if samples_beyond(len(values), q) < min_beyond:
        raise BenchError(
            f"{len(values)} samples leave fewer than {min_beyond} beyond p{q:g}"
        )
    return percentile(values, q)


def with_failures(latencies_ms, failed, ceiling_ms):
    """Latencies where a failed request misses every limit: it is charged
    the whole timed phase, which no successful request can exceed."""
    return [ceiling_ms if bad else lat for lat, bad in zip(latencies_ms, failed)]


def classify_repeats(keys):
    """True for each request whose dedup key appeared earlier in the stream."""
    seen = set()
    out = []
    for key in keys:
        out.append(key in seen)
        seen.add(key)
    return out


def split_round_robin(n, connections):
    """Request indices each connection sends, in order: index i goes to
    connection i mod `connections`, so every run splits a stream alike."""
    return [list(range(c, n, connections)) for c in range(connections)]


def samples(setups, wall, latencies):
    """What each end-to-end figure of one run was computed from."""
    return {
        "setup_s": f"median of {setups} setups",
        "wall_s": wall,
        "p50_ms": latencies,
        "p99_ms": latencies,
        "peak_rss_mb": "peak over the run",
    }


def explore_requests(seconds):
    return max(EXPLORE_MIN_REQUESTS, EXPLORE_REQUESTS_PER_S * seconds)


def batch_sessions(seconds):
    return max(3, BATCH_SESSIONS_PER_S * seconds)


# ------------------------------------------------------------------ plumbing


class Context:
    def __init__(self, args):
        self.args = args
        self.target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
        release = os.path.join(self.target, "release")
        self.serve = os.path.join(release, "serve")
        self.probe = os.path.join(release, "e2eprobe")
        self.work = os.path.join(
            self.target, "e2ebench-work", f"{args.workload}-{os.getpid()}"
        )
        self.children = []
        self.dirs = 0

    def fresh_dir(self, name):
        path = os.path.join(self.work, f"{name}-{self.dirs}")
        self.dirs += 1
        os.makedirs(path)
        return path

    def spawn(self, cmd, **kwargs):
        # Its own process group, so cleanup also reaches its children
        # (cargo's rustc jobs).
        proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
        self.children.append(proc)
        return proc

    def reap(self, proc, kill=False):
        """Waits for a child (killing it first if asked); returns its exit
        status."""
        if kill and proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        proc.wait()
        self.children.remove(proc)
        return proc.returncode

    def cleanup(self):
        for proc in list(self.children):
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except OSError:
                pass
            proc.wait()
        self.children.clear()
        shutil.rmtree(self.work, ignore_errors=True)

    def probe_run(self, args, stdin_text=None):
        out = subprocess.run(
            [self.probe] + args,
            input=stdin_text,
            capture_output=True,
            text=True,
            check=False,
        )
        if out.returncode != 0:
            raise BenchError(f"e2eprobe {args[0]} failed: {out.stderr.strip()}")
        return out.stdout


def steal_ticks():
    """Time the hypervisor has stolen from this machine's CPUs so far, in
    clock ticks (0 where the kernel does not report it)."""
    try:
        with open("/proc/stat") as fh:
            return int(fh.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return 0


def peak_rss_mb(proc):
    """Peak RSS of a live child since its exec, from its VmHWM. (wait4's
    ru_maxrss would also count this harness's own memory, which the child
    carries until it execs.)"""
    try:
        with open(f"/proc/{proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    raise BenchError(f"no peak RSS for pid {proc.pid}: it exited early")


def build(ctx):
    env = dict(os.environ, CARGO_TARGET_DIR=ctx.target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q",
         "-p", "rtise-serve", "--bins"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join(BENCH, "probe", "Cargo.toml")],
    ):
        code = ctx.reap(ctx.spawn(cmd, env=env, stdout=sys.stderr))
        if code != 0:
            raise BenchError("build failed: " + " ".join(cmd))


def source_fingerprint():
    """Hash of everything that defines the measured work, so recorded work
    counts are compared only between runs of the same code."""
    digest = hashlib.sha256()
    roots = ["Cargo.toml", "Cargo.lock", "crates", BENCH]
    for root in roots:
        paths = [root] if os.path.isfile(root) else []
        for d, subdirs, files in os.walk(root):
            subdirs[:] = [s for s in subdirs if s not in ("target", "__pycache__")]
            paths.extend(os.path.join(d, f) for f in files)
        for path in sorted(paths):
            digest.update(path.encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


def check_counts_repeat(ctx, counts, name):
    """Records work counts under `name`; a run of the same code that
    records the same name must reproduce them exactly."""
    record = os.path.join(
        ctx.target, "e2ebench-counts", f"{name}-{source_fingerprint()}.json"
    )
    if os.path.exists(record):
        with open(record) as fh:
            before = json.load(fh)
        if before != counts:
            diff = sorted(
                k for k in set(before) | set(counts) if before.get(k) != counts.get(k)
            )
            log(f"work counts differ from an earlier run of the same code: {diff}")
            return False
        log(f"work counts repeat exactly ({os.path.basename(record)})")
        return True
    os.makedirs(os.path.dirname(record), exist_ok=True)
    with open(record, "w") as fh:
        json.dump(counts, fh, sort_keys=True)
    return True


def read_stream(ctx, seed, n):
    """(family, dedup key, request line) for each request of the seeded
    stream, rendered by the probe from rtise_serve::traffic::generate."""
    rows = []
    for row in ctx.probe_run(["stream", "--seed", str(seed), "--requests", str(n)]).splitlines():
        family, key, line = row.split("\t", 2)
        rows.append((family, key, line))
    return rows


def check_responses(ctx, stream, responses):
    """Re-certifies each response with check::serve::check_response.
    Returns (failed flags, summed work per family)."""
    unique = sorted(set(r for r in responses if r is not None))
    verdicts = {}
    lines = ctx.probe_run(["check"], "".join(r + "\n" for r in unique)).splitlines()
    for resp, row in zip(unique, lines):
        rid, ok, clean, kind, work = row.split("\t")
        verdicts[resp] = (float(rid), ok == "1" and clean == "1", kind, float(work))
    failed = []
    work = {f: 0 for f in FAMILIES}
    for i, ((family, _, _), resp) in enumerate(zip(stream, responses)):
        verdict = verdicts.get(resp)
        good = verdict is not None and verdict[1] and verdict[0] == i + 1 and verdict[2] == family
        failed.append(not good)
        if good:
            work[family] += int(verdict[3])
    return failed, work


def store_entries(store):
    return sum(
        1
        for d, _, files in os.walk(store)
        for f in files
        if f.startswith("resp-") and f.endswith(".json")
    )


# ----------------------------------------------------------------- workloads


def start_server(ctx):
    """serve --listen on port 0, fresh store; returns (proc, addr, store)."""
    store = ctx.fresh_dir("explore-store")
    proc = ctx.spawn(
        [ctx.serve, "--listen", "127.0.0.1:0", "--jobs", "2", "--cache-dir", store],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    line = proc.stderr.readline()
    m = re.search(r"listening on (\S+):(\d+)", line)
    if not m:
        raise BenchError(f"serve did not report its address: {line!r}")
    # Keep draining stderr so the server never blocks on a full pipe.
    threading.Thread(target=proc.stderr.read, daemon=True).start()
    return proc, (m.group(1), int(m.group(2))), store


def connect(addr):
    # Default socket options, like a user's client.
    return [socket.create_connection(addr) for _ in range(EXPLORE_CONNECTIONS)]


def run_explore(ctx, n, tail=True):
    """`tail=False` for the short runs a trace run of another workload
    makes, whose sample supports no p99."""
    stream = read_stream(ctx, ctx.args.seed, n)
    setups = []
    for i in range(SETUP_REPEATS["explore"]):
        t = now()
        proc, addr, store = start_server(ctx)
        socks = connect(addr)
        setups.append(now() - t)
        if i + 1 < SETUP_REPEATS["explore"]:
            for s in socks:
                s.close()
            ctx.reap(proc, kill=True)
            shutil.rmtree(store, ignore_errors=True)

    lines = [(line + "\n").encode() for _, _, line in stream]
    latencies = [0.0] * n
    responses = [None] * n
    errors = []

    def client(sock, indices):
        try:
            reader = sock.makefile("rb")
            for i in indices:
                t = now()
                sock.sendall(lines[i])
                resp = reader.readline()
                latencies[i] = (now() - t) * 1e3
                if not resp.endswith(b"\n"):
                    raise BenchError(f"connection closed at request {i + 1}")
                responses[i] = resp.decode().rstrip("\n")
        except (OSError, BenchError) as e:
            errors.append(str(e))

    threads = [
        threading.Thread(target=client, args=(s, idx))
        for s, idx in zip(socks, split_round_robin(n, len(socks)))
    ]
    t0 = now()
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    wall = now() - t0
    rss_mb = peak_rss_mb(proc)
    for s in socks:
        s.close()
    ctx.reap(proc, kill=True)
    if errors:
        log(f"explore client errors: {errors[:3]}")

    failed, work = check_responses(ctx, stream, responses)
    repeats = classify_repeats([key for _, key, _ in stream])
    charged = with_failures(latencies, failed, wall * 1e3)
    repeat_lat = [lat for lat, rep, bad in zip(latencies, repeats, failed) if rep and not bad]
    counts = {
        "serve.requests": n,
        "serve.distinct": n - sum(repeats),
        "serve.repeats": sum(repeats),
        "store.entries_written": store_entries(store),
    }
    counts.update({f"serve.work.{f}": work[f] for f in FAMILIES})
    return {
        "ok": True,
        "attempted": n,
        "failed": sum(failed),
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "p50_ms": percentile(charged, 50),
        "p99_ms": tail_percentile(charged, 99) if tail else None,
        "samples": samples(len(setups), "1 timed phase", f"{n} requests"),
        "peak_rss_mb": rss_mb,
        "counts": counts,
        "repeat_p50_ms": statistics.median(repeat_lat) if repeat_lat else float("nan"),
    }


def stdin_session(ctx, store, lines, pipelined):
    """One `serve --stdin` process over `store`. Closed loop (one request
    outstanding) unless `pipelined`. Returns (responses, latencies ms,
    spawn-to-first-response s, peak RSS MB or None if pipelined, exit
    code)."""
    t_spawn = now()
    proc = ctx.spawn(
        [ctx.serve, "--stdin", "--jobs", "2", "--cache-dir", store],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
    )
    responses = []
    latencies = []
    first = None
    rss_mb = None
    if pipelined:
        def feed():
            try:
                proc.stdin.write(b"".join(lines))
                proc.stdin.close()
            except OSError:
                pass
        feeder = threading.Thread(target=feed)
        feeder.start()
        for _ in lines:
            resp = proc.stdout.readline()
            if first is None:
                first = now() - t_spawn
            responses.append(resp.decode().rstrip("\n") if resp.endswith(b"\n") else None)
        feeder.join()
    else:
        for line in lines:
            t = now()
            proc.stdin.write(line)
            proc.stdin.flush()
            resp = proc.stdout.readline()
            latencies.append((now() - t) * 1e3)
            if first is None:
                first = now() - t_spawn
            responses.append(resp.decode().rstrip("\n") if resp.endswith(b"\n") else None)
        rss_mb = peak_rss_mb(proc)
        proc.stdin.close()
    proc.stdout.close()
    code = ctx.reap(proc)
    return responses, latencies, first, rss_mb, code


def run_batch(ctx, sessions, tail=True):
    stream = read_stream(ctx, ctx.args.seed, BATCH_REQUESTS)
    lines = [(line + "\n").encode() for _, _, line in stream]
    setups = []
    for _ in range(SETUP_REPEATS["batch_warm"]):
        t = now()
        store = ctx.fresh_dir("batch-store")
        fill, _, _, _, code = stdin_session(ctx, store, lines, pipelined=True)
        setups.append(now() - t)
        if code != 0:
            raise BenchError(f"cold fill exited with {code}")
    fill_failed, work = check_responses(ctx, stream, fill)
    entries = store_entries(store)

    # Sessions the hypervisor stole CPU time from are left out of the
    # figures: on this box steal comes in episodes that slow a session up
    # to tenfold, independently of the program. The phase runs on until
    # `sessions` steal-free sessions are measured, within a time cap.
    clean = []
    stolen = []
    rss = []
    codes = []
    failed = 0
    t0 = now()
    while len(clean) < sessions and (
        len(clean) + len(stolen) < sessions
        or now() - t0 < BATCH_PHASE_CAP * ctx.args.seconds
    ):
        steal = steal_ticks()
        t = now()
        resp, lat, first, rss_mb, code = stdin_session(ctx, store, lines, pipelined=False)
        wall = now() - t
        # Every session must answer exactly what the certified cold fill did.
        flags = [a != b or bad for a, b, bad in zip(resp, fill, fill_failed)]
        failed += sum(flags)
        rss.append(rss_mb)
        codes.append(code)
        (clean if steal_ticks() == steal else stolen).append((wall, lat, flags, first))
    phase = now() - t0
    ran = len(clean) + len(stolen)
    log(
        f"batch_warm timed phase: {phase:.3f} s, {ran} sessions, "
        f"{len(stolen)} with hypervisor steal left out"
    )
    measured = clean if len(clean) >= min(BATCH_MIN_CLEAN, sessions) else clean + stolen
    # Everything per session, median over sessions: a slow patch of the
    # machine moves a few sessions, not the typical one. wall_s is
    # `sessions` at the median session's pace; each session's percentiles
    # rest on its own 1000 requests.
    charged = [with_failures(lat, flags, phase * 1e3) for _, lat, flags, _ in measured]
    repeats = classify_repeats([key for _, key, _ in stream])
    distinct = len(stream) - sum(repeats)
    counts = {
        "serve.requests": len(stream),
        "serve.distinct": distinct,
        "serve.repeats": sum(repeats),
        "batch.sessions": sessions,
        "store.entries_written": entries,
        "store.entries_read": distinct * sessions,
    }
    counts.update({f"serve.work.{f}": work[f] for f in FAMILIES})
    return {
        "ok": all(c == 0 for c in codes) and not any(fill_failed),
        "attempted": ran * len(lines),
        "failed": failed,
        "setup_s": statistics.median(setups),
        "wall_s": sessions * statistics.median(w for w, _, _, _ in measured),
        "p50_ms": statistics.median(percentile(c, 50) for c in charged),
        "p99_ms": statistics.median(tail_percentile(c, 99) for c in charged) if tail else None,
        "samples": samples(
            len(setups),
            f"{sessions} x median of {len(measured)} sessions",
            f"{len(measured)} sessions x {len(lines)} requests",
        ),
        "peak_rss_mb": max(rss),
        "counts": counts,
        "session_start_ms": statistics.median(f for _, _, _, f in measured) * 1e3,
    }


# -------------------------------------------------------------------- traced


def traced_layers(ctx, workload, untraced):
    """The per-layer table, from in-process passes with benchmark-owned
    spans plus the client-side parts of the untraced run. Returns (layers,
    counts, whether the paper pass repeated its recorded counters)."""
    layers = {}
    paper = json.loads(ctx.probe_run(["trace-paper", "--store", ctx.fresh_dir("trace-paper")]))
    if paper["failed"]:
        raise BenchError(f"traced paper pass failed: {paper['failed']}")
    log(f"traced paper pass: {paper['wall_s']:.3f} s")
    repeat = check_counts_repeat(ctx, paper["counters"], "paper-trace")
    layers.update(paper["layers"])
    counts = {k: paper["counters"].get(k, 0) for k in PAPER_COUNTS}
    counts["check.certb"] = sum(
        v for k, v in paper["counters"].items() if k.startswith("check.certb.")
    )
    counts["store.curve.misses"] = paper["cache"]["misses"]

    n = BATCH_REQUESTS if workload == "batch_warm" else explore_requests(ctx.args.seconds)
    serve = json.loads(
        ctx.probe_run(
            ["trace-serve", "--seed", str(ctx.args.seed), "--requests", str(n),
             "--store", ctx.fresh_dir("trace-serve")]
        )
    )
    layers.update(serve["layers"])
    counts["serve.distinct"] = serve["distinct"]
    counts.update({f"serve.work.{f}": serve["work"][f] for f in FAMILIES})
    if any(untraced["counts"][k] != counts[k] for k in counts if k.startswith("serve.")):
        raise BenchError("traced serve pass did different work than the client run")

    explore = untraced if workload == "explore" else run_explore(ctx, MINI_EXPLORE_REQUESTS, tail=False)
    parse_render_ms = (layers["serve.parse_us"] + layers["serve.render_us"]) / 1e3
    layers["serve.transport_ms"] = explore["repeat_p50_ms"] - parse_render_ms
    batch = untraced if workload == "batch_warm" else run_batch(ctx, MINI_BATCH_SESSIONS, tail=False)
    layers["serve.session_start_ms"] = batch["session_start_ms"]

    overhead = serve["traced_s"] - serve["untraced_s"]
    layers["trace.overhead_s"] = overhead
    log(f"tracing overhead on {workload}: {overhead:+.4f} s")
    return layers, counts, repeat


PER_LAYER_UNITS = {"_s": "s", "_ms": "ms", "_us": "us"}


def unit_of(name):
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


# ---------------------------------------------------------------------- main


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (os.path.isfile("Cargo.toml") and os.path.isdir("crates")):
        log("run from the root of an rtise checkout (no Cargo.toml / crates here)")
        return 2

    ctx = Context(args)

    def on_signal(signum, _frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, on_signal)
    try:
        build(ctx)
        shutil.rmtree(ctx.work, ignore_errors=True)
        os.makedirs(ctx.work)
        if args.workload == "explore":
            result = run_explore(ctx, explore_requests(args.seconds))
        else:
            result = run_batch(ctx, batch_sessions(args.seconds))

        for name, value in sorted(result["counts"].items()):
            print(f"count {name} {value}")
        repeat = check_counts_repeat(
            ctx, result["counts"], f"{args.workload}-s{args.seed}-n{args.seconds}"
        )
        correct = result["ok"] and result["failed"] == 0 and repeat

        if args.trace:
            layers, counts, paper_repeat = traced_layers(ctx, args.workload, result)
            correct = correct and paper_repeat
            for name, value in layers.items():
                print(f"layer {name} {value:.6f}")
            metrics = {name: {"value": v, "unit": unit_of(name)} for name, v in layers.items()}
            metrics.update({name: {"value": v, "unit": "count"} for name, v in counts.items()})
        else:
            metrics = {
                name: {"value": result[name], "unit": unit} for name, unit in END_TO_END.items()
            }
            for name, m in metrics.items():
                print(f"metric {name} {m['value']:.6f} {m['unit']} ({result['samples'][name]})")
        print(
            json.dumps(
                {
                    "correct": bool(correct),
                    "attempted": int(result["attempted"]),
                    "failed": int(result["failed"]),
                    "metrics": metrics,
                }
            )
        )
        return 0
    except BenchError as e:
        log(f"benchmark error: {e}")
        return 1
    finally:
        ctx.cleanup()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
