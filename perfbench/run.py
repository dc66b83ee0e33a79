"""Benchmark of picardfuchs: three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload local-solutions --seed 1 --seconds 15 --trace 0

The machine this runs on is shared, and its speed drifts by up to 2x over
seconds and minutes.  So every measured pass runs twice, item by item in
alternation: once with the program under test (`src`) and once with a frozen
copy of the program as it was when this benchmark was defined
(perfbench/reference).  Each side runs its items in one fresh interpreter, as
a plain pass would, and only one process computes at a time.  An item's time
is the program's time times the reference's recorded time for that item
(perfbench/reference_times.json) over the reference's time just measured
next to it: the program's time at the machine speed of the recording.  Set-up
times are scaled the same way.  The raw times are kept in the run's record.

A run makes the workload's fixed number of measured passes, and more only while
`--seconds` last.  The item metrics are taken over the fixed passes only, at a
fixed percentile per workload, so a faster program is scored on the same
statistic as a slower one.  With `--trace 1` it alternates untraced and traced
passes of the program alone and reports the per-layer metrics and the tracing
overhead.  Every item's exact output, on both sides, is hashed and compared
with the reference recorded in perfbench/golden.json; a mismatch, an
exception or a nonzero exit counts the item as failed.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  A full record of the run (environment, load, raw samples,
failures) goes to .perfbench_out/results/.

    python3 perfbench/run.py --record-reference

recomputes every item any seed can produce and rewrites golden.json; it
refuses when an item fails its own mathematical check.

    python3 perfbench/run.py --record-times

rewrites perfbench/reference_times.json from five passes of the reference
alone: the scale of every time metric.  Recording it again changes that scale,
so a change compared with its parent must use the same file.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import digest
import tracer
from commands import CLI_COMMANDS, cli_keys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
OUT = os.path.join(ROOT, ".perfbench_out")
WORKER = os.path.join(HERE, "worker.py")
PACKAGES = {"program": os.path.join(ROOT, "src"), "reference": os.path.join(HERE, "reference")}
PF_MAIN = "import sys; from picardfuchs.cli import main; sys.exit(main())"

# passes whose items are measured; a run makes more only while --seconds last
PASSES = {"local-solutions": 1, "reductions": 2, "cli": 3}
# item_tail_s: the highest of p99, p95, p90, p80, p75, p70, p60 with at least
# ten of the measured passes' items beyond it (75 points; two passes of 24
# tasks; three passes of 12 commands)
TAIL_PERCENTILE = {"local-solutions": 80, "reductions": 75, "cli": 70}
TRACED_PAIRS = {"local-solutions": 1, "reductions": 1, "cli": 2}
SETUP_SAMPLES = 5
BOTH = ("program", "reference")
REFERENCE_TIMES_PATH = os.path.join(HERE, "reference_times.json")
RECORD_TIMES_PASSES = 5
NO_NEW_PASS_AFTER_S = 60  # keeps a run inside its time limit on a slow machine
RUN_LIMIT_S = 170


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout()


def _on_term(signum, frame):
    sys.exit(128 + signum)  # unwinds through Runner.kill_all


class Runner:
    """Starts children, reads them under the run's deadline, waits for each; no threads."""

    def __init__(self, deadline):
        self.deadline = deadline
        self.live = []
        os.makedirs(OUT, exist_ok=True)
        self.stderr_path = os.path.join(OUT, "child-stderr.txt")
        signal.signal(signal.SIGALRM, _on_alarm)
        signal.signal(signal.SIGTERM, _on_term)

    def popen(self, argv, side, stdin=None):
        env = dict(os.environ, PYTHONPATH=PACKAGES[side], PYTHONHASHSEED="0")
        with open(self.stderr_path, "ab") as err:
            proc = subprocess.Popen(argv, stdin=stdin, stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT)
        self.live.append(proc)
        return proc

    def _until_deadline(self, read, proc):
        """read() under the deadline; on time out kill proc and return None."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 1:
            self.kill(proc)
            return None
        signal.setitimer(signal.ITIMER_REAL, remaining)
        try:
            return read()
        except _Timeout:
            self.kill(proc)
            return None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)

    def readline(self, proc):
        return self._until_deadline(proc.stdout.readline, proc)

    def wait(self, proc):
        """Wait for proc; returns (exit code, peak RSS in MB)."""
        got = self._until_deadline(lambda: os.wait4(proc.pid, 0), proc)
        if got is None:
            return -9, 0.0
        _pid, status, usage = got
        self.live.remove(proc)
        proc.returncode = os.waitstatus_to_exitcode(status)
        _close_pipes(proc)
        return proc.returncode, usage.ru_maxrss / 1024.0

    def kill(self, proc):
        if proc in self.live:
            proc.kill()
            os.waitpid(proc.pid, 0)
            self.live.remove(proc)
            proc.returncode = -9
            _close_pipes(proc)

    def kill_all(self):
        for proc in list(self.live):
            self.kill(proc)

    def command(self, argv, side):
        """Run argv to its end; returns (seconds, exit code, stdout, peak RSS MB), or None past the deadline."""
        if self.deadline - time.monotonic() <= 1:
            return None
        start = time.monotonic_ns()
        proc = self.popen(argv, side)
        out = self._until_deadline(proc.stdout.read, proc)
        if out is None:
            return None
        code, rss = self.wait(proc)
        return (time.monotonic_ns() - start) * 1e-9, code, out, rss


def _close_pipes(proc):
    for pipe in (proc.stdin, proc.stdout):
        if pipe is not None:
            try:
                pipe.close()
            except OSError:
                pass


class Worker:
    """A `worker.py serve` process: it sets up, then computes items on request."""

    def __init__(self, runner, side, workload, seed, trace=None):
        self.runner = runner
        args = [sys.executable, WORKER, "serve", "--workload", workload, "--seed", str(seed)]
        if workload == "cli":
            args += ["--inputs", os.path.join(OUT, "cli-inputs", side)]
        if trace:
            args += ["--trace", trace]
        start = time.monotonic_ns()
        self.proc = runner.popen(args, side, stdin=subprocess.PIPE)
        ready = self._read()
        self.setup_s = (ready["ready_ns"] - start) * 1e-9 if ready else None
        self.keys = ready["keys"] if ready else None
        self.rss = 0.0

    def _read(self):
        line = self.runner.readline(self.proc)
        return json.loads(line) if line else None

    def item(self, key):
        """The item's record, or None when the worker is gone."""
        if self.proc.returncode is not None:
            return None
        try:
            self.proc.stdin.write((key + "\n").encode())
            self.proc.stdin.flush()
        except OSError:
            return None
        return self._read()

    def close(self):
        """End the input and wait; returns the final line, or None if the worker failed."""
        end = None
        if self.proc.returncode is None:
            try:
                self.proc.stdin.close()
            except OSError:
                pass
            end = self._read()
        if self.proc.returncode is None:
            code, self.rss = self.runner.wait(self.proc)
            if code != 0:
                end = None
        return end


def _failed_item(key, error):
    return {"key": key, "s": None, "hash": None, "ok": False, "error": error}


# ---------------------------------------------------------------------------
# passes


def _turns(sides, n):
    """The sides in the order they take their n-th turn; the order alternates."""
    return list(sides) if n % 2 == 0 else list(sides)[::-1]


def _worker_pass(runner, workload, seed, n, sides, trace=None):
    """One pass in a fresh worker per side; the sides compute item by item in turn."""
    workers = {}
    for side in _turns(sides, n):
        workers[side] = Worker(runner, side, workload, seed, trace if side == "program" else None)
    items = {side: [] for side in workers}
    for i, key in enumerate(workers[sides[0]].keys or []):
        for side in _turns(sides, n + i):
            rec = workers[side].item(key)
            items[side].append(rec or _failed_item(key, "worker failed; see .perfbench_out/child-stderr.txt"))
    ends = {side: w.close() for side, w in workers.items()}
    return {
        "ok": all(e is not None for e in ends.values()),
        "items": items,
        "setup_s": {side: w.setup_s for side, w in workers.items()},
        "layers": (ends.get("program") or {}).get("layers"),
        "rss": workers[sides[0]].rss,
    }


def _cli_argv(key, side, traced, metrics_path):
    directory = os.path.join(OUT, "cli-inputs", side)
    args = [a.replace("{dir}", directory) for a in CLI_COMMANDS[key]]
    if traced:
        return [sys.executable, WORKER, "cli", "--metrics", metrics_path, "--", *args]
    return [sys.executable, "-c", PF_MAIN, *args]


def _cli_pass(runner, keys, n, sides, traced=False):
    """The command script once: one fresh `pf` process per command and side."""
    items = {side: [] for side in sides}
    layers, rss = [], 0.0
    metrics_path = os.path.join(OUT, "cli-layers.json")
    for i, key in enumerate(keys):
        for side in _turns(sides, n + i):
            got = runner.command(_cli_argv(key, side, traced, metrics_path), side)
            if got is None:
                items[side].append(_failed_item(key, "run time limit reached"))
                continue
            seconds, code, out, child_rss = got
            text = out.decode(errors="replace")
            items[side].append(
                {
                    "key": key,
                    "s": seconds,
                    "hash": digest.item_hash({"exit": code, "stdout": text}),
                    "ok": code == 0,
                    "error": None if code == 0 else "exit code %d" % code,
                }
            )
            if side == sides[0]:
                rss = max(rss, child_rss)
                if traced and code == 0:
                    with open(metrics_path) as fh:
                        layers.append(json.load(fh))
    raw = {}
    for layer in layers:
        tracer.add_raw(raw, layer)
    return {
        "ok": True,
        "items": items,
        "setup_s": {},
        "layers": tracer.finish(raw) if traced and layers else None,
        "rss": rss,
    }


def _setup_pair(runner, workload, seed, n, sides=BOTH):
    """Set-up time of a fresh worker of each side, taken in turn."""
    out = {}
    for side in _turns(sides, n):
        w = Worker(runner, side, workload, seed)
        w.close()
        out[side] = w.setup_s
    return out


# ---------------------------------------------------------------------------
# statistics


def percentile(values, q):
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _scaled(program_s, reference_s, recorded_s):
    """The program's time at the machine speed of the recording, or None."""
    if program_s is None or not reference_s or not recorded_s:
        return None
    return program_s * recorded_s / reference_s


def load_reference_times():
    with open(REFERENCE_TIMES_PATH) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# the run


def _check_items(workload, passes, golden):
    """Compare every item of every side with the reference; returns (attempted, failures, digests)."""
    reference = golden["workloads"][workload]
    expected = set(reference["items"])
    attempted, failures, digests = 0, [], []
    for p in passes:
        for side, items in sorted(p["items"].items()):
            hashes = {}
            for item in items:
                attempted += 1
                want = reference["items"].get(item["key"])
                reason = None
                if item["error"]:
                    reason = item["error"].strip().splitlines()[-1]
                elif not item["ok"]:
                    reason = "output fails its check"
                elif want is None:
                    reason = "no reference for this item"
                elif item["hash"] != want:
                    reason = "output differs from the reference"
                if reason:
                    failures.append({"side": side, "key": item["key"], "reason": reason, "error": item["error"]})
                hashes[item["key"]] = item["hash"]
            if set(hashes) != expected:
                missing = expected - set(hashes)
                attempted += len(missing)
                failures.extend({"side": side, "key": k, "reason": "item missing"} for k in sorted(missing))
            if side == "program":
                digests.append(digest.workload_digest(hashes))
        if not p["ok"]:
            failures.append({"key": "(pass)", "reason": "worker failed; see .perfbench_out/child-stderr.txt"})
            attempted += 1
    if any(d != reference["digest"] for d in digests) and not failures:
        failures.append({"key": "(digest)", "reason": "workload digest differs from the reference"})
    return attempted, failures, digests


def _one_pass(runner, workload, seed, n, sides, traced=False):
    if workload == "cli":
        return _cli_pass(runner, cli_keys(seed), n, sides, traced)
    trace = None
    if traced:
        os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
        trace = os.path.join(OUT, "spans", "%s-seed%d-t%d.jsonl" % (workload, seed, n))
    return _worker_pass(runner, workload, seed, n, sides, trace)


def run(args, spec):
    runner = Runner(time.monotonic() + RUN_LIMIT_S)
    try:
        record = _measure(runner, args, spec)
    finally:
        runner.kill_all()
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    path = os.path.join(OUT, "results", "%s-seed%d-trace%d.json" % (args.workload, args.seed, int(args.trace)))
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    _print_summary(record, names, path)
    failures = record["failures"]
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": max(record["attempted"], 1),
                "failed": len(failures),
                "metrics": record["metrics"],
            }
        )
    )


def _measure(runner, args, spec):
    w = args.workload
    golden = digest.load_golden()
    load_before = os.getloadavg()
    started = time.monotonic()

    # set-up pairs: probes first (they also write the cli input files), then
    # one more from every measured worker pass
    setups = []
    if not args.trace:
        probes = SETUP_SAMPLES - (0 if w == "cli" else PASSES[w])
        setups = [_setup_pair(runner, w, args.seed, n) for n in range(probes)]
    elif w == "cli":
        _setup_pair(runner, w, args.seed, 0)
    measured, traced = [], []
    n = 0
    while True:
        elapsed = time.monotonic() - started
        if args.trace:
            done = len(traced) >= TRACED_PAIRS[w]
        else:
            done = len(measured) >= PASSES[w] and (elapsed >= args.seconds or elapsed >= NO_NEW_PASS_AFTER_S)
        if done or elapsed >= RUN_LIMIT_S - 5:
            break
        p = _one_pass(runner, w, args.seed, n, ("program",) if args.trace else BOTH)
        measured.append(p)
        if p["setup_s"]:
            setups.append(p["setup_s"])
        if args.trace:
            traced.append(_one_pass(runner, w, args.seed, n, ("program",), traced=True))
        n += 1
    load_after = os.getloadavg()

    attempted, failures, digests = _check_items(w, measured + traced, golden)
    if args.trace:
        values, details = _layer_values(w, measured, traced), {}
        names = spec["per_layer"]
    else:
        values, details = _end_to_end_values(w, measured, setups, load_reference_times()[w])
        names = spec["end_to_end"]
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names if values.get(m["name"]) is not None
    }
    missing = [m["name"] for m in names if m["name"] not in metrics]
    if missing:
        failures.append({"key": "(metrics)", "reason": "no value for %s" % ", ".join(missing)})
    return {
        "workload": w,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(args.trace),
        "environment": _environment(),
        "load_before": load_before,
        "load_after": load_after,
        "passes": {"measured": len(measured), "traced": len(traced)},
        "digests": digests,
        "reference_digest": golden["workloads"][w].get("digest"),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "details": details,
        "metrics": metrics,
    }


def _end_to_end_values(workload, passes, setups, recorded):
    """Time metrics at the machine speed of the recording (see the module docstring)."""
    walls, item_times = [], []
    for k, p in enumerate(passes):
        ref = {i["key"]: i["s"] for i in p["items"]["reference"]}
        times = [_scaled(i["s"], ref.get(i["key"]), recorded["items"].get(i["key"])) for i in p["items"]["program"]]
        if not times or None in times:
            continue
        walls.append(sum(times))
        if k < PASSES[workload]:
            item_times += times
    setup_s = [_scaled(s.get("program"), s.get("reference"), recorded["setup_s"]) for s in setups]
    setup_s = [s for s in setup_s if s is not None]
    tail_q = TAIL_PERCENTILE[workload]
    values = {
        "wall_s": statistics.median(walls) if walls else None,
        "setup_s": statistics.median(setup_s) if setup_s else None,
        "item_p50_s": percentile(item_times, 50) if item_times else None,
        "item_tail_s": percentile(item_times, tail_q) if item_times else None,
        "peak_rss_mb": max(p["rss"] for p in passes) if passes else None,
    }
    raw = {side: [sum(i["s"] or 0.0 for i in p["items"][side]) for p in passes] for side in BOTH}
    details = {
        "wall_s": {"passes": walls},
        "raw_pass_s": raw,
        "raw_setup_s": setups,
        "item_tail_s": {"percentile": tail_q, "samples": len(item_times)},
        "item_p50_s": {"samples": len(item_times)},
        "items_raw_s": {side: {i["key"]: i["s"] for i in passes[0]["items"][side]} if passes else {} for side in BOTH},
    }
    return values, details


def _layer_values(workload, untraced, traced):
    good_t = [p for p in traced if p["ok"] and p["layers"]]
    good_u = [p for p in untraced if p["ok"]]
    if not good_t or not good_u:
        return {}
    values = {}
    for name in good_t[0]["layers"]:
        values[name] = statistics.median(p["layers"][name] for p in good_t)
    for key in CLI_COMMANDS:
        lat = [i["s"] for p in good_u for i in p["items"]["program"] if i["key"] == key] if workload == "cli" else []
        values["cli.%s.latency_s" % key] = statistics.median(lat) if lat else 0.0

    def wall(p):
        return sum(i["s"] for i in p["items"]["program"])

    values["trace.overhead_ratio"] = statistics.median(wall(p) for p in good_t) / statistics.median(
        wall(p) for p in good_u
    )
    return values


def _environment():
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {
        "git_sha": sha,
        "src_sha256": _tree_hash(PACKAGES["program"]),
        "reference_sha256": _tree_hash(PACKAGES["reference"]),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def _tree_hash(top):
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, top).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def _print_summary(record, names, path):
    env = record["environment"]
    print(
        "picardfuchs benchmark: workload %s, seed %d, trace %d, passes %s"
        % (record["workload"], record["seed"], record["trace"], record["passes"])
    )
    print(
        "  git %s  src %s  python %s  nproc %s  load %.2f -> %.2f"
        % (
            env["git_sha"],
            env["src_sha256"][:12],
            env["python"],
            env["nproc"],
            record["load_before"][0],
            record["load_after"][0],
        )
    )
    raw = record["details"].get("raw_pass_s")
    if raw:
        print(
            "  raw pass times: program %s s, reference %s s"
            % tuple(", ".join("%.2f" % x for x in raw[side]) for side in BOTH)
        )
    for m in names:
        got = record["metrics"].get(m["name"])
        text = "%.6g %s" % (got["value"], got["unit"]) if got else "missing"
        note = ""
        if m["name"] == "item_tail_s":
            d = record["details"]["item_tail_s"]
            note = "  (p%d of %d samples)" % (d["percentile"], d["samples"])
        print("  %-42s %s%s" % (m["name"], text, note))
    print("  %-42s %d/%d" % ("fail_ratio", record["failed"], record["attempted"]))
    for f in record["failures"][:10]:
        print("    FAILED %s %s: %s" % (f.get("side", ""), f["key"], f["reason"]))
    print("  record: %s" % os.path.relpath(path, ROOT))


# ---------------------------------------------------------------------------
# reference digests


def record_reference(spec):
    runner = Runner(time.monotonic() + 3600)
    golden = {"workloads": {}}
    bad = []
    try:
        for w in spec["workloads"]:
            name = w["name"]
            if name == "cli":
                _setup_pair(runner, "cli", 0, 0)
                p = _cli_pass(runner, sorted(CLI_COMMANDS), 0, ("program",))
                items = {
                    i["key"]: {"hash": i["hash"], "ok": i["ok"], "error": i["error"]} for i in p["items"]["program"]
                }
            else:
                proc = runner.popen([sys.executable, WORKER, "reference", "--workload", name], "program")
                out = runner._until_deadline(proc.stdout.read, proc)
                code, _rss = runner.wait(proc) if out is not None else (-9, 0.0)
                if code != 0:
                    sys.exit("reference run of %s failed; see .perfbench_out/child-stderr.txt" % name)
                items = json.loads(out.decode().strip().splitlines()[-1])
            bad += ["%s %s" % (name, k) for k, v in items.items() if not v["ok"] or v["error"]]
            hashes = {k: v["hash"] for k, v in items.items()}
            golden["workloads"][name] = {"digest": digest.workload_digest(hashes), "items": hashes}
            print("%s: %d items" % (name, len(hashes)))
    finally:
        runner.kill_all()
    if bad:
        sys.exit("refusing to record a reference with failing items: %s" % ", ".join(bad))
    with open(digest.GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


def record_times(spec):
    """Rewrite reference_times.json: the reference's median time per item and set-up."""
    runner = Runner(time.monotonic() + 3600)
    times = {}
    try:
        for w in spec["workloads"]:
            name = w["name"]
            setups = [_setup_pair(runner, name, n, n, ("reference",))["reference"] for n in range(RECORD_TIMES_PASSES)]
            samples = {}
            for n in range(RECORD_TIMES_PASSES):
                for item in _one_pass(runner, name, n, n, ("reference",))["items"]["reference"]:
                    if item["s"] is None or not item["ok"]:
                        sys.exit("reference item %s %s failed: %s" % (name, item["key"], item["error"]))
                    samples.setdefault(item["key"], []).append(item["s"])
            times[name] = {
                "setup_s": round(statistics.median(setups), 6),
                "items": {k: round(statistics.median(v), 6) for k, v in sorted(samples.items())},
            }
            print("%s: set-up %.3f s, pass %.2f s" % (name, times[name]["setup_s"], sum(times[name]["items"].values())))
    finally:
        runner.kill_all()
    with open(REFERENCE_TIMES_PATH, "w") as fh:
        json.dump(times, fh, indent=1, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------


def _load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def main():
    parser = argparse.ArgumentParser(description="picardfuchs benchmark")
    parser.add_argument("--workload", choices=sorted(PASSES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    parser.add_argument("--record-times", action="store_true")
    args = parser.parse_args()
    for side, top in PACKAGES.items():
        if not os.path.isfile(os.path.join(top, "picardfuchs", "__init__.py")):
            sys.exit("perfbench: no %s package at %s; run from the root of a picardfuchs checkout" % (side, top))
    spec = _load_spec()
    if args.record_reference:
        record_reference(spec)
        return 0
    if args.record_times:
        record_times(spec)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    run(args, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
