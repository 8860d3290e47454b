"""How far the changed output files of two CLI runs moved.

For each file present under both ROOT_A and ROOT_B (matched by relative path)
whose bytes differ, prints one line: the largest relative difference
|a - b| / max(|a|, |b|) between corresponding numbers, the leaves of a JSON
file or the cells of a CSV file, or ``structure differs`` when the two files
do not pair up number for number (another shape, another key, other text, or
neither JSON nor CSV). Run it on the ``--out-root`` directories that
``scripts/output_digest.py`` wrote for two checkouts: a rounding-level change
reads about 1e-16.

Usage: python scripts/output_diff.py ROOT_A ROOT_B
"""

import argparse
import json
import math
from pathlib import Path


class _Mismatch(Exception):
    pass


def _number(x):
    """x as a float if it is a number or a CSV cell that parses as one, else
    None."""
    if isinstance(x, bool):
        return None
    try:
        return float(x)
    except (TypeError, ValueError):
        return None


def _rel(a, b):
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _max_rel(a, b):
    """Largest relative difference between the numbers of two trees of
    lists and dicts; _Mismatch where they do not pair up."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            raise _Mismatch
        return max((_max_rel(a[k], b[k]) for k in a), default=0.0)
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            raise _Mismatch
        return max((_max_rel(x, y) for x, y in zip(a, b)), default=0.0)
    x, y = _number(a), _number(b)
    if x is not None and y is not None:
        return _rel(x, y)
    if a != b:
        raise _Mismatch
    return 0.0


def _parse(path: Path):
    text = path.read_text()
    if path.suffix == ".json":
        return json.loads(text)
    if path.suffix == ".csv":
        return [line.split(",") for line in text.splitlines()]
    raise _Mismatch


def compare(root_a: Path, root_b: Path):
    """(relative path, line) for each file under both roots whose bytes
    differ, in path order."""
    out = []
    for a in sorted(p for p in root_a.rglob("*") if p.is_file()):
        rel = a.relative_to(root_a)
        b = root_b / rel
        if not b.is_file() or a.read_bytes() == b.read_bytes():
            continue
        try:
            rel_diff = _max_rel(_parse(a), _parse(b))
            line = f"max relative difference {rel_diff:.3g}"
        except (_Mismatch, UnicodeDecodeError, json.JSONDecodeError):
            line = "structure differs"
        out.append((rel, line))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("root_a", type=Path, metavar="ROOT_A")
    ap.add_argument("root_b", type=Path, metavar="ROOT_B")
    args = ap.parse_args()
    for rel, line in compare(args.root_a, args.root_b):
        print(f"{rel}: {line}")


if __name__ == "__main__":
    main()
