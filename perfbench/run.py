"""qbrolin benchmark: seeded CLI workloads in one closed-loop client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. The workload seed generates every op config (see workloads.py).
One client in one process runs the ops in a fixed order, each only after the
previous one returns: one untimed warm-up pass, then whole passes for
``--seconds`` (at least MIN_PASSES, of each kind when tracing; a pass starts
only when it is expected to end in time). A fixed computation that does not
use qbrolin runs REF_PER_PASS times in each timed pass, between ops; op costs
are reported scaled to the speed at which its best time is REF_S. Every op's
output is checked, and every CLI op's ``--out`` files must be byte-identical
across passes.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics, whose spans go to
``.perfbench/trace-<workload>-seed<N>.jsonl.gz``. The last stdout line is one
JSON object with keys correct, attempted, failed and metrics.
"""

import os

# one BLAS/OpenMP thread: the client is single-threaded, and pools sized to
# the machine add run-to-run noise; set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RUN_DIR = HERE.parent / ".perfbench"
SETUP_PROBES = 3   # fresh interpreters timed for setup_s
MIN_PASSES = 5     # timed passes per run, at least (per kind when tracing)
REF_PER_PASS = 4   # reference runs per timed pass, spread between the ops
# about the best CPU time of Reference.work on a quiet 2-vCPU Xeon VM
# (Python 3.11.7); it fixes only the unit of the reported costs
REF_S = 0.15


def parse_args(argv):
    from workloads import WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", metavar="DIR",
                    help="only import qbrolin and generate the inputs in DIR")
    return ap.parse_args(argv)


def setup(workload, seed, workdir: Path):
    """Import qbrolin and write the workload's op configs; the op list."""
    import numpy as np
    import qbrolin.cli  # noqa: F401  (the import is part of set-up time)
    from workloads import WORKLOADS
    ops = WORKLOADS[workload].build(np.random.default_rng(seed))
    paths = []
    for i, op in enumerate(ops):
        path = workdir / f"op{i}.json"
        if op.config is not None:
            path.write_text(json.dumps(op.config))
        paths.append(path)
    return ops, paths


def time_setup(args, workdir: Path):
    """Median wall time of SETUP_PROBES fresh interpreters doing set-up."""
    times = []
    for k in range(SETUP_PROBES):
        probe = workdir / f"probe{k}"
        probe.mkdir()
        t0 = perf_counter()
        subprocess.run([sys.executable, str(HERE / "run.py"), "--workload",
                        args.workload, "--seed", str(args.seed),
                        "--setup-probe", str(probe)],
                       check=True, timeout=120, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return statistics.median(times), times


class Reference:
    """A fixed computation that does not use qbrolin, timed between ops.

    Other tenants of the shared host slow this machine by up to 2x for
    minutes at a time, longer than a run, and neither CPU time nor a best of
    k leaves that out. The reference is slowed too: it builds a dict of
    tuples and does complex arithmetic on Python objects, the allocation- and
    interpreter-bound work most qbrolin ops are made of, and it lasts about
    as long as an op, because the host slows long tasks more than short ones
    (a short task's best run more often falls in a quiet gap). An op's best
    time divided by the reference's best time in the same run keeps mostly
    the program's own speed.
    """

    def __init__(self):
        self.times = []

    @staticmethod
    def work():
        acc = 0j
        for _ in range(5):
            table = {}
            for k in range(100_000):
                table[(k * 7919) % 1_000_003] = (k, float(k))
            for k in range(20_000):
                acc = acc * 0.5 + complex(k & 7, 1.0)
        return len(table), acc

    def run(self):
        gc.collect()
        c0 = process_time()
        self.work()
        self.times.append(process_time() - c0)

    def scale(self):
        """Factor from CPU seconds in this run to seconds at REF_S speed."""
        return REF_S / min(self.times)


def digest(out: Path):
    h = hashlib.sha256()
    for f in sorted(out.iterdir()):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


class Client:
    """Closed-loop runner: one op at a time, checked, outputs compared."""

    def __init__(self, ops, paths, workdir):
        from qbrolin import cli
        self.cli, self.ops, self.paths, self.workdir = cli, ops, paths, workdir
        self.digests = {}          # op index -> --out digest of the first run
        self.failures = {}         # op index -> first failure reason
        self.latencies = [[] for _ in ops]   # wall seconds per run
        self.cpu = [[] for _ in ops]         # process CPU seconds per run
        self.nondeterministic = set()

    def _call(self, i, out):
        op = self.ops[i]
        if op.library is not None:
            return op.library()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return self.cli.main([str(self.paths[i]), "--out", str(out)])

    def run_op(self, i, tracer=None):
        """Run op i once; (wall s, CPU s, failure reason or None)."""
        op = self.ops[i]
        out = self.workdir / f"out{i}"
        gc.collect()    # no op pays for the garbage of the one before it
        t0, c0 = perf_counter(), process_time()
        try:
            result = (tracer.run_op(self._call, i, out) if tracer
                      else self._call(i, out))
            error = None
        except Exception as exc:  # the CLI lets some errors escape
            result, error = None, f"raised {type(exc).__name__}: {exc}"
        latency, cpu = perf_counter() - t0, process_time() - c0
        if error is None and op.library is None and result != 0:
            error = f"exit code {result}"
        if error is None:
            try:
                error = op.check(out if op.library is None else result,
                                 op.config)
            except (OSError, KeyError, ValueError) as exc:
                error = f"unreadable output: {type(exc).__name__}: {exc}"
        if op.library is None and out.exists():
            d = digest(out)
            if self.digests.setdefault(i, d) != d:
                self.nondeterministic.add(i)
            shutil.rmtree(out)
        if error is not None:
            self.failures.setdefault(i, error)
        self.latencies[i].append(latency)
        self.cpu[i].append(cpu)
        return latency, cpu, error

    def run_pass(self, tracer=None, reference=None):
        """All ops once, in order; (wall s per op, CPU s per op, failed ops).

        A reference, if given, runs REF_PER_PASS times, before evenly spaced
        ops.
        """
        lat, cpu, failed = [], [], 0
        n = len(self.ops)
        ref_at = {k * n // REF_PER_PASS for k in range(REF_PER_PASS)}
        for i in range(n):
            if reference is not None and i in ref_at:
                reference.run()
            dt, dc, error = self.run_op(i, tracer)
            lat.append(dt)
            cpu.append(dc)
            failed += error is not None
        return lat, cpu, failed

    def unexpected(self):
        return {i: r for i, r in self.failures.items()
                if self.ops[i].known_defect is None}


def in_time(t0, passes, seconds):
    """Whether one more pass, as long as the mean so far, ends in time."""
    elapsed = perf_counter() - t0
    return elapsed + elapsed / passes <= seconds


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure(args, client):
    """Untraced timed passes; the end-to-end metrics except setup_s.

    An op's cost is the CPU time of this process while it runs, best of k
    timed runs (k >= MIN_PASSES), times the run's reference scale. The ops
    are single-threaded and CPU-bound, so on a quiet machine CPU time is their
    latency; CPU time leaves out waits for a processor another process holds,
    the minimum drops short slow stretches, and the reference scale removes
    most of the host's speed during the run. op_cost_p50_s is the median
    per-op cost and op_cost_tail_s the slowest op's cost: every op runs k
    times, so when k > 10 that is the highest percentile of op runs that
    leaves at least 10 runs beyond it. Unscaled
    and wall-clock figures go to '#' lines. peak_rss_mb is read after the
    warm-up pass, before the reference's dict first adds to it.
    """
    client.run_pass()       # warm-up: lazy imports and caches, untimed
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reference = Reference()
    wall, cpu, attempted, failed = [], [], 0, 0
    t0 = perf_counter()
    while len(cpu) < MIN_PASSES or in_time(t0, len(cpu), args.seconds):
        pass_lat, pass_cpu, pass_failed = client.run_pass(reference=reference)
        wall.append(pass_lat)
        cpu.append(pass_cpu)
        attempted += len(pass_lat)
        failed += pass_failed
    scale = reference.scale()
    best_cpu = [min(runs) for runs in zip(*cpu)]
    best_wall = [min(runs) for runs in zip(*wall)]
    cost = [x * scale for x in best_cpu]
    print(f"# {len(cpu)} timed passes of {len(cost)} ops in "
          f"{perf_counter() - t0:.1f} s; the slowest op, whose cost is "
          f"op_cost_tail_s, ran {len(cpu)} times")
    print(f"# reference: best {min(reference.times):.4f} s CPU, median "
          f"{statistics.median(reference.times):.4f} s of "
          f"{len(reference.times)} runs; scale {scale:.4f}")
    print(f"# unscaled best-of-{len(cpu)}: pass {sum(best_cpu):.4f} s CPU, "
          f"{sum(best_wall):.4f} s wall; op p50 "
          f"{statistics.median(best_cpu):.4f} s CPU, "
          f"{statistics.median(best_wall):.4f} s wall")
    return attempted, failed, {
        "pass_cost_s": metric(sum(cost), "s"),
        "op_cost_p50_s": metric(statistics.median(cost), "s"),
        "op_cost_tail_s": metric(max(cost), "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
        "ok_frac": metric(1.0 - failed / attempted, "ratio"),
    }


def measure_traced(args, client, workload):
    """Alternate untraced and traced passes; the per-layer metrics."""
    import layers
    tracer = layers.Tracer()
    plain, traced, per_pass = [], [], []
    attempted = failed = 0
    t0 = perf_counter()
    while (len(traced) < MIN_PASSES or len(plain) < MIN_PASSES
           or in_time(t0, len(plain) + len(traced), args.seconds)):
        use = len(traced) < len(plain)
        if use:
            tracer.install()
        try:
            pass_lat, _, pass_failed = client.run_pass(tracer if use else None)
        finally:
            tracer.uninstall()
        (traced if use else plain).append(sum(pass_lat))
        if use:
            per_pass.append(tracer.take_stats())
        attempted += len(pass_lat)
        failed += pass_failed

    first = per_pass[0]
    for layer in workload.layers:
        calls = sum(v for k, v in first.items()
                    if k.startswith(layer + ".") and k.endswith(".calls"))
        if calls == 0:
            sys.exit(f"trace: layer {layer!r} recorded no calls on this "
                     "workload")
    counts = {k for s in per_pass for k in s
              if k.rsplit(".", 1)[1] in layers.EXACT}
    drift = sorted(k for k in counts
                   if len({s.get(k, 0) for s in per_pass}) > 1)
    if drift:
        print(f"# counts differ between traced passes: {drift}",
              file=sys.stderr)
    metrics = {}
    for name, unit, _ in layers.metric_specs():
        stat = name.rsplit(".", 1)[1]
        vals = [s.get(name, 0.0) for s in per_pass]
        if stat == "self_s":
            value = min(vals)
        else:   # a count: identical in every traced pass (checked above)
            value = vals[0] if stat == "clamp_mass" else int(vals[0])
        metrics[name] = metric(value, unit)
    metrics["trace.overhead_frac"] = metric(
        min(traced) / min(plain) - 1.0, "ratio")
    metrics["trace.unattributed_frac"] = metric(statistics.median(
        s["op.self_s"] / w for s, w in zip(per_pass, traced)), "ratio")
    RUN_DIR.mkdir(exist_ok=True)
    path = RUN_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
    tracer.write(path, {"workload": args.workload, "seed": args.seed,
                        "ops": [op.label for op in client.ops]})
    print(f"# {len(tracer.spans)} spans written to {path}")
    return attempted, failed, metrics, not drift


def provenance(args, workload, ops):
    import numpy
    import scipy
    print(f"# qbrolin benchmark: workload {args.workload}, seed {args.seed}, "
          f"{len(ops)} ops per pass, closed loop, 1 client")
    print(f"# python {platform.python_version()}, numpy {numpy.__version__}, "
          f"scipy {scipy.__version__}, nproc {os.cpu_count()}, "
          "BLAS/OpenMP threads 1")
    print(f"# inputs: {workload.why}")


def main(argv=None):
    t_start = perf_counter()
    args = parse_args(argv)
    if not (SRC / "qbrolin" / "__init__.py").is_file():
        sys.exit(f"no qbrolin sources under {SRC}; run from a checkout root")
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        setup(args.workload, args.seed, Path(args.setup_probe))
        return 0

    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    RUN_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=RUN_DIR))
    try:
        ops, paths = setup(args.workload, args.seed, workdir)
        t_ready = perf_counter() - t_start
        provenance(args, workload, ops)
        client = Client(ops, paths, workdir)
        if args.trace:
            attempted, failed, metrics, exact = measure_traced(
                args, client, workload)
        else:
            setup_s, probes = time_setup(args, workdir)
            print(f"# setup probes {[round(t, 3) for t in probes]} s; this "
                  f"process was ready {t_ready:.3f} s after main() began")
            attempted, failed, metrics = measure(args, client)
            metrics = {"setup_s": metric(setup_s, "s"), **metrics}
            exact = True
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for i, op in enumerate(ops):
        status = client.failures.get(i)
        tag = "ok" if status is None else (
            "KNOWN DEFECT" if op.known_defect else "FAILED")
        print(f"# op {i} {op.label}: best {min(client.latencies[i]):.3f} s "
              f"wall, {min(client.cpu[i]):.3f} s CPU; median "
              f"{statistics.median(client.latencies[i]):.3f} s wall, {tag}"
              + (f" ({status})" if status else ""))
    for i in sorted(client.nondeterministic):
        print(f"# op {i} {ops[i].label}: --out files differ between runs")
    print(f"# fail_frac {failed / attempted:.4f} ({failed} of {attempted})")
    correct = exact and not client.unexpected() and not client.nondeterministic
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
