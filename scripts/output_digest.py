"""sha256 of every output file of qbrolin CLI runs: a byte-identity check.

Each CONFIG runs in-process through ``qbrolin.cli.main`` with its ``--out``
set to OUT_ROOT/<config stem>. Stdout gets one line per output file,
``<sha256>  <stem>/<file>``, and one ``# <stem>: exit <code>`` line per
config; the CLI's own summary lines are discarded, and wall times go to
stderr. Run it on two checkouts with the same configs and compare the
outputs: any differing line is a changed output.

Usage: PYTHONPATH=src python scripts/output_digest.py CONFIG... --out-root DIR
"""

import argparse
import contextlib
import hashlib
import io
import sys
from pathlib import Path
from time import perf_counter

from qbrolin import cli


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("configs", nargs="+", type=Path, metavar="CONFIG")
    ap.add_argument("--out-root", required=True, type=Path, metavar="DIR")
    args = ap.parse_args()
    stems = [c.stem for c in args.configs]
    if len(set(stems)) != len(stems):
        ap.error("config file names must be distinct")
    for config, stem in zip(args.configs, stems):
        out = args.out_root / stem
        t0 = perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([str(config), "--out", str(out)])
        print(f"{stem}: {perf_counter() - t0:.2f} s", file=sys.stderr)
        print(f"# {stem}: exit {code}")
        files = sorted(out.iterdir()) if out.is_dir() else []
        for f in files:
            print(f"{hashlib.sha256(f.read_bytes()).hexdigest()}  "
                  f"{stem}/{f.name}")


if __name__ == "__main__":
    main()
