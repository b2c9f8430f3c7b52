"""Benchmark of the affine Schur algebra package: products, verify suites, CLI.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads:

  products-cold   distinct seeded basis-pair products through `multiply`
  verify-suites   the seven `verify.run_suite` suites in a fixed order
  cli-pipelines   the README's CLI pipelines and a cached heavy product

Each round of products-cold and verify-suites runs in a fresh worker process
(bench/worker.py), so module memos start empty; cli-pipelines starts one CLI
process per pipeline stage.  Rounds repeat until S seconds have passed, and
never fewer than MIN_ROUNDS.  This process only starts children, one at a
time, and times them; each output is checked after the timing.  Times are
scaled to a reference speed of the machine (bench/calibrate.py).  The last line
printed is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with --trace 0, the per-layer metrics of
bench/tracer.py with --trace 1.  A failed check exits 1.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import pipelines
from calibrate import ScaledClock
from tracer import PER_LAYER

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "worker.py")
LAUNCHER = os.path.join(BENCH, "cli_launch.py")
OUT = os.path.join(BENCH, ".out")

WORKLOADS = ("products-cold", "verify-suites", "cli-pipelines")
MIN_ROUNDS = 3
SETUP_SAMPLES = 5
CHILD_TIMEOUT = 150


class BenchError(Exception):
    """A worker crashed or reported no result."""


class Run:
    def __init__(self, args):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.work = os.path.join(OUT, "work-%s-%d" % (self.workload, os.getpid()))
        os.makedirs(self.work, exist_ok=True)
        self.clock = ScaledClock()
        self.setup = []
        self.rounds = []
        self.failures = []
        self.missing = set()  # traced entry points the program no longer has

    def path(self, name):
        return os.path.join(self.work, name)

    def child(self, argv, stdin=None, env=None):
        """Run one child to its end.

        Returns (perf_counter at start, at 'ready' or None, at exit, exit code, stdout).
        """
        with open(self.path("stderr.txt"), "w", encoding="utf-8") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable] + argv,
                cwd=ROOT,
                stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                stderr=err,
                env=env,
                text=True,
            )
            ready = None
            try:
                if argv[0] == WORKER and proc.stdout.readline().strip() == "ready":
                    ready = time.perf_counter()
                out, _ = proc.communicate(stdin, timeout=CHILD_TIMEOUT)
            except subprocess.TimeoutExpired:
                raise BenchError("%s ran longer than %d s" % (" ".join(argv), CHILD_TIMEOUT))
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            end = time.perf_counter()
        if argv[0] == WORKER and (proc.returncode != 0 or ready is None):
            with open(self.path("stderr.txt"), encoding="utf-8") as fh:
                raise BenchError("worker exited %d: %s" % (proc.returncode, fh.read()[-2000:]))
        return start, ready, end, proc.returncode, out

    def worker(self, *extra):
        return self.child([WORKER, self.workload, str(self.seed), *extra])

    def measure_setup(self):
        """SETUP_SAMPLES set-up-only workers, each between two calibrations."""
        extra = ["--work", self.work] if self.workload == "cli-pipelines" else []
        for _ in range(SETUP_SAMPLES):
            self.clock.tick(force=True)
            start, ready, _, _, _ = self.worker("--setup-only", *extra)
            self.clock.tick(force=True)
            self.setup.append({"seconds": ready - start,
                               "scaled": (ready - start) * self.clock.factor(start, ready)})

    def repeat(self, one_round):
        start = time.perf_counter()
        while len(self.rounds) < MIN_ROUNDS or time.perf_counter() - start < self.seconds:
            self.rounds.append(one_round(first=not self.rounds))

    # -- products-cold and verify-suites ---------------------------------------

    def worker_round(self, first):
        extra = ["--check"] if first else []
        if self.trace:
            extra += ["--trace", self.path("trace.json")]
        out = self.worker(*extra)[4]
        result = json.loads(out.strip().splitlines()[-1])
        if self.trace:
            with open(self.path("trace.json"), encoding="utf-8") as fh:
                trace = json.load(fh)
            result["spans"] = trace["ops"]
            self.missing.update(trace["missing"])
        self.failures += result["failures"]
        if not first and result["digest"] != self.rounds[0]["digest"]:
            self.failures.append("outputs differ between rounds")
        return result

    # -- cli-pipelines ---------------------------------------------------------

    def cli(self, argv, layers, stdin=None):
        """Run one CLI process; returns (start, end, exit code, stdout)."""
        env, trace = None, self.path("cli-trace.json")
        if self.trace:
            env = dict(os.environ, BENCH_TRACE_FILE=trace)
            if os.path.exists(trace):
                os.remove(trace)
        self.clock.tick()
        start, _, end, code, out = self.child([LAUNCHER] + argv, stdin=stdin, env=env)
        if self.trace and os.path.exists(trace):
            with open(trace, encoding="utf-8") as fh:
                data = json.load(fh)
            for key, value in data["totals"].items():
                layers[key] = layers.get(key, 0) + value
            self.missing.update(data["missing"])
        return (start, end), code, out

    def cli_round(self, first):
        stages, outputs, layers = [], {}, {}

        def run(name, argvs):
            out, code = None, 0
            for argv in argvs:
                span, code, out = self.cli(argv, layers, stdin=out)
                stages.append((name, span, code))
                if code != 0:
                    break
            outputs[name] = (code, out)

        for name, argvs in pipelines.readme_pipelines(self.work):
            run(name, argvs)
        cache = self.path("cache.ndjson")
        open(cache, "w").close()
        argv = pipelines.cached_product_argv(self.work, cache)
        run("cache-cold", [argv])
        run("cache-warm", [argv])
        self.clock.tick(force=True)
        ops = {}
        for name, (start, end), code in stages:
            op = ops.setdefault(name, {"name": name, "seconds": 0.0, "scaled": 0.0, "ok": True})
            op["seconds"] += end - start
            op["scaled"] += (end - start) * self.clock.factor(start, end)
            op["ok"] = op["ok"] and code == 0
        failures = pipelines.check_round(outputs, self.work) if first else []
        if not first and outputs != self.rounds[0]["outputs"]:
            failures.append("outputs differ between rounds")
        self.failures += failures
        return {"ops": list(ops.values()), "outputs": outputs, "layers": layers}

    # -- results ---------------------------------------------------------------

    def ops(self):
        return [op for rnd in self.rounds for op in rnd["ops"]]

    def op_times(self, pick=statistics.median, key="scaled"):
        """{operation: pick of its times over the rounds}, failed operations left out.

        Every round runs the same operations in the same order, so position
        identifies an operation.
        """
        times = {}
        for rnd in self.rounds:
            for pos, op in enumerate(rnd["ops"]):
                if op["ok"]:
                    times.setdefault("%d:%s" % (pos, op["name"]), []).append(op[key])
        return {name: pick(values) for name, values in times.items()}

    def end_to_end(self):
        times = list(self.op_times().values())
        return {
            "setup_s": (statistics.median(s["scaled"] for s in self.setup), "s"),
            "round_s": (sum(times), "s"),
            "op_median_s": (statistics.median(times), "s"),
        }

    def detail(self):
        """The workload's own figures, by operation, from the same times."""
        best = self.op_times()

        def named(prefix):
            return [t for key, t in best.items() if key.split(":", 1)[1].startswith(prefix)]

        if self.workload == "products-cold":
            grid = named("grid:")
            return {
                "products_per_s": (len(grid) / sum(grid), "products/s"),
                "heavy_product_s": (statistics.median(named("heavy:")), "s"),
            }
        if self.workload == "verify-suites":
            return {"verify_%s_s" % key.split(":", 1)[1].replace("-", "_"): (t, "s")
                    for key, t in best.items()}
        readme = [t for key, t in best.items() if ":cache-" not in key]
        return {
            "pipeline_s": (statistics.median(readme), "s"),
            "cache_cold_s": (named("cache-cold")[0], "s"),
            "cache_warm_s": (named("cache-warm")[0], "s"),
        }

    def per_layer(self):
        out = {}
        for name, unit in PER_LAYER:
            values = [rnd["layers"].get(name, 0) for rnd in self.rounds]
            out[name] = (statistics.median(values), unit)
        return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM unwind through Run.child, which kills and reaps the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "affine_schur", "__init__.py")):
        print("error: no package at src/affine_schur; run from a full checkout",
              file=sys.stderr)
        return 2
    # The checks made after the timing use the package in this process.
    sys.path.insert(0, os.path.join(ROOT, "src"))

    os.makedirs(OUT, exist_ok=True)
    run = Run(args)
    try:
        run.measure_setup()
        run.repeat(run.cli_round if args.workload == "cli-pipelines" else run.worker_round)
    except BenchError as ex:
        print("error: %s" % ex, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    e2e = run.end_to_end()
    detail = run.detail()
    for name, (value, unit) in list(e2e.items()) + list(detail.items()):
        print("%-32s %12.6f %s" % (name, value, unit), file=sys.stderr)
    summary = {"rounds": len(run.rounds), "setup_samples": run.setup,
               "end_to_end": e2e, "detail": detail, "op_times": run.op_times(),
               "op_raw_times": run.op_times(key="seconds")}
    if run.trace:
        summary["per_layer"] = run.per_layer()
        summary["missing_entry_points"] = sorted(run.missing)
        for name in sorted(run.missing):
            print("not traced, the program has no %s" % name, file=sys.stderr)
        summary["spans"] = [rnd.get("spans") for rnd in run.rounds]
    path = os.path.join(OUT, "%s-%s-seed%d.json" % (
        "trace" if run.trace else "summary", args.workload, args.seed))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    metrics = summary["per_layer"] if run.trace else e2e
    for failure in run.failures:
        print("check failed: %s" % failure, file=sys.stderr)
    ops = run.ops()
    print(json.dumps({
        "correct": not run.failures,
        "attempted": len(ops),
        "failed": sum(1 for op in ops if not op["ok"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not run.failures else 1


if __name__ == "__main__":
    sys.exit(main())
