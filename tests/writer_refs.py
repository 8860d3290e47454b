"""The CLI text writers the library used before one format per CSV row and
the C JSON encoder, kept verbatim as test references (this module holds no
tests).

- `ref_write_csv`: one `_fmt` or `str` call per value (the former
  `cli.write_csv`).
- `ref_write_json`: `indent=1`, which runs json's pure-Python encoder (the
  former `cli.write_json`).
"""

import json
from pathlib import Path


def _fmt(x) -> str:
    return "%.17g" % float(x)


def ref_write_csv(path: Path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, (int, float)) else str(v)
                              for v in row))
    path.write_text("\n".join(lines) + "\n")


def ref_write_json(path: Path, obj):
    path.write_text(json.dumps(obj, sort_keys=True, indent=1) + "\n")
