"""sha256 of every output file of qbrolin CLI runs: a byte-identity check.

Each CONFIG runs in-process through ``qbrolin.cli.main`` with its ``--out``
set to OUT_ROOT/<config stem>. Stdout gets one line per output file,
``<sha256>  <stem>/<file>``, and one ``# <stem>: exit <code>`` line per
config, with the error class after a non-zero code that came with one
(``# <stem>: exit 2 ConfigError``). The CLI's own summary lines are
discarded; its stderr and the wall times go to stderr. Run it on two
checkouts with the same configs and compare the outputs: any differing line
is a changed output.

``--workload NAME --seed N`` adds the ops of a benchmark workload, built from
``perfbench/workloads.py`` as the benchmark builds them. A CLI op's stem is
``NAME/<op index>-<label>``; a library op (no CLI mode reaches it) prints
``# <stem>: <repr of its result>`` instead of file digests.

Usage: PYTHONPATH=src python scripts/output_digest.py [CONFIG...]
           [--workload NAME --seed N] --out-root DIR
"""

import argparse
import contextlib
import hashlib
import io
import json
import re
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from qbrolin import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _timed(stem, fn):
    t0 = perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        result = fn()
    print(f"{stem}: {perf_counter() - t0:.2f} s", file=sys.stderr)
    return result


def digest_config(config: Path, stem, out_root: Path):
    out = out_root / stem
    err = io.StringIO()

    def run():
        with contextlib.redirect_stderr(err):
            return cli.main([str(config), "--out", str(out)])
    code = _timed(stem, run)
    sys.stderr.write(err.getvalue())
    # on exit 2 or 3 the CLI's last stderr line is its error as JSON
    lines = err.getvalue().splitlines()
    error = f" {json.loads(lines[-1])['error']}" if code in (2, 3) else ""
    print(f"# {stem}: exit {code}{error}")
    files = sorted(out.iterdir()) if out.is_dir() else []
    for f in files:
        print(f"{hashlib.sha256(f.read_bytes()).hexdigest()}  {stem}/{f.name}")


def digest_workload(name, seed, out_root: Path):
    sys.path.insert(0, str(PERFBENCH))
    from workloads import WORKLOADS
    ops = WORKLOADS[name].build(np.random.default_rng(seed))
    configs = out_root / f"{name}-configs"
    configs.mkdir(parents=True, exist_ok=True)
    for i, op in enumerate(ops):
        stem = f"{name}/{i:02d}-{re.sub(r'[^A-Za-z0-9.+-]+', '_', op.label)}"
        if op.library is not None:
            print(f"# {stem}: {_timed(stem, op.library)!r}")
            continue
        path = configs / f"op{i}.json"
        path.write_text(json.dumps(op.config))
        digest_config(path, stem, out_root)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("configs", nargs="*", type=Path, metavar="CONFIG")
    ap.add_argument("--workload", metavar="NAME")
    ap.add_argument("--seed", type=int, metavar="N")
    ap.add_argument("--out-root", required=True, type=Path, metavar="DIR")
    args = ap.parse_args()
    if (args.workload is None) != (args.seed is None):
        ap.error("--workload and --seed go together")
    if not args.configs and args.workload is None:
        ap.error("give a CONFIG or --workload NAME --seed N")
    stems = [c.stem for c in args.configs]
    if len(set(stems)) != len(stems):
        ap.error("config file names must be distinct")
    for config, stem in zip(args.configs, stems):
        digest_config(config, stem, args.out_root)
    if args.workload is not None:
        digest_workload(args.workload, args.seed, args.out_root)


if __name__ == "__main__":
    main()
