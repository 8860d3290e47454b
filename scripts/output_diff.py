"""How far the changed output files of two CLI runs moved.

For each file present under both ROOT_A and ROOT_B (matched by relative path)
whose bytes differ, prints one line: the largest relative difference
|a - b| / max(|a|, |b|) between corresponding numbers, the leaves of a JSON
file or the cells of a CSV file, or ``structure differs`` when the two files
do not pair up number for number (other text where a number or string
should match, or neither JSON nor CSV). A file whose numbers all pair up
with the same float (``0`` and ``0.0``, ``0.10000000000000001`` and ``0.1``,
but not ``-0`` and ``0``) and whose other text is equal reads ``numbers
equal; text differs``: a pure re-encoding. A file whose dict keys or list
lengths changed is compared over the leaves both files share (a list's
common prefix); its line adds their count, names the removed and added keys
by dotted path (``meta.bin_width``, ``atoms.3.kind``) and gives each changed
length with its path (``length 16378 -> 16384 at atoms``; a CSV's row list
is ``rows``). Run it on the
``--out-root`` directories that ``scripts/output_digest.py`` wrote for two
checkouts: a rounding-level change reads about 1e-16.

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


def _leaf_diffs(a, b, path, changes):
    """(relative difference, same float) for each pair of leaves that two
    trees of lists and dicts share, (0.0, True) for equal text. A dict key
    in one tree only is appended to changes["removed"] (in a) or
    changes["added"] (in b) by its dotted path, and its subtree skipped;
    lists of two lengths are compared over their common prefix, and
    "length m -> n at path" appended to changes["length"]. _Mismatch where
    the trees do not pair up otherwise."""
    if isinstance(a, dict) and isinstance(b, dict):
        changes["removed"] += [f"{path}{k}" for k in a if k not in b]
        changes["added"] += [f"{path}{k}" for k in b if k not in a]
        for k in a:   # in a's order, so nested key lists are deterministic
            if k in b:
                yield from _leaf_diffs(a[k], b[k], f"{path}{k}.", changes)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            changes["length"].append(
                f"{len(a)} -> {len(b)} at {path[:-1] or 'top'}")
        for i, (x, y) in enumerate(zip(a, b)):
            yield from _leaf_diffs(x, y, f"{path}{i}.", changes)
    else:
        x, y = _number(a), _number(b)
        if x is not None and y is not None:
            yield _rel(x, y), repr(x) == repr(y)
        elif a != b:
            raise _Mismatch
        else:
            yield 0.0, True


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
        changes = {"removed": [], "added": [], "length": []}
        root = "rows." if a.suffix == ".csv" else ""
        try:
            diffs = list(_leaf_diffs(_parse(a), _parse(b), root, changes))
            rels = [r for r, _ in diffs]
            line = f"max relative difference {max(rels, default=0.0):.3g}"
            if any(changes.values()):
                line += f" over {len(rels)} shared leaves" + "".join(
                    f"; {name} {', '.join(items)}"
                    for name, items in changes.items() if items)
            elif all(same for _, same in diffs):
                line = "numbers equal; text differs"
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
