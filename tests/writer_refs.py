"""Former CLI text encoders, kept verbatim as test references (this module
holds no tests).

- `ref_write_csv`: one `_fmt` or `str` call per value, as `cli.write_csv`
  formats every CSV but `measure.csv` (it kept one format per row type for a
  time).
- `ref_write_json`: `indent=1`, which runs json's pure-Python encoder (the
  `cli.write_json` before the C encoder).
- `ref_measure_rows`, `ref_measure_json`: a measure's per-atom tuples and
  dicts (the former `EmpiricalMeasure.rows` and `.to_json`), which
  `measure.csv` and `measure.json` were encoded from before the CLI encoded
  them from the measure's arrays; `ref_write_measure_json` is the C encoder
  over those dicts. `ref_write_csv` over `ref_measure_rows` gives the former
  `%.17g` `measure.csv`, written before it held `measure.json`'s text.
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


def ref_measure_rows(m):
    """(kind, alpha, rho, weight) per atom; kind is "point" or "sphere"."""
    return [("point" if r == 0.0 else "sphere", a, r, w) for a, r, w
            in zip(m.alpha.tolist(), m.rho.tolist(), m.weight.tolist())]


def ref_measure_json(m):
    return {"atoms": [{"kind": k, "alpha": a, "rho": r, "weight": w}
                      for k, a, r, w in ref_measure_rows(m)],
            "meta": m.meta}


def ref_write_measure_json(path: Path, m):
    path.write_text(json.dumps(ref_measure_json(m), sort_keys=True) + "\n")
