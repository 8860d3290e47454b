import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "output_diff.py"


def _tree(root, files):
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def test_output_diff_reports_each_changed_file(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    _tree(a, {"run/m.json": '{"v": [1.0, 2.0], "name": "x"}\n',
              "run/m.csv": "n,c\n0,0.5\n1,2\n",
              "run/same.csv": "n\n1\n",
              "run/keys.json": '{"a": 1}\n',
              "run/meta.json": '{"atoms": [1.0, 2.0], '
                               '"meta": {"bin": "x", "t": 0.5}}\n',
              "run/text.csv": "check,pass\nk,True\n",
              "run/img.pgm": "P5\n",
              "run/atoms.json": '{"atoms": [{"a": 1.0}, {"a": 2.0}], '
                                '"n": 2}\n',
              "run/atoms.csv": "a,w\n1,0.5\n2,0.5\n",
              "run/recoded.csv": "k,a\npoint,0\nsphere,0.10000000000000001\n",
              "run/recoded.json": '{"a": [1, 0.5]}\n',
              "run/zero.csv": "a\n-0\n",
              "run/only_a.json": "{}\n"})
    _tree(b, {"run/m.json": '{"v": [1.0, 2.0000000000000004], "name": "x"}\n',
              "run/m.csv": "n,c\n0,0.5\n1,2.5\n",
              "run/same.csv": "n\n1\n",
              "run/keys.json": '{"b": 1}\n',
              "run/meta.json": '{"atoms": [1.0, 2.0], '
                               '"meta": {"t": 0.5, "u": [1]}}\n',
              "run/text.csv": "check,pass\nk,False\n",
              "run/img.pgm": "P6\n",
              "run/atoms.json": '{"atoms": [{"a": 1.0}, {"a": 2.5}, '
                                '{"a": 3.0}], "n": 3}\n',
              "run/atoms.csv": "a,w\n1,0.25\n2,0.5\n3,0.25\n",
              "run/recoded.csv": "k,a\npoint,0.0\nsphere,0.1\n",
              "run/recoded.json": '{"a": [1.0, 5e-1]}\n',
              "run/zero.csv": "a\n0.0\n"})
    r = subprocess.run([sys.executable, str(SCRIPT), str(a), str(b)],
                       capture_output=True, text=True, check=True)
    assert r.stdout.splitlines() == [
        # a list of another length: its common prefix is compared
        "run/atoms.csv: max relative difference 0.5 over 6 shared leaves; "
        "length 3 -> 4 at rows",
        "run/atoms.json: max relative difference 0.333 over 3 shared "
        "leaves; length 2 -> 3 at atoms",
        "run/img.pgm: structure differs",
        "run/keys.json: max relative difference 0 over 0 shared leaves; "
        "removed a; added b",
        "run/m.csv: max relative difference 0.2",
        "run/m.json: max relative difference 2.22e-16",
        # the keys changed, and the leaves both files share are equal
        "run/meta.json: max relative difference 0 over 3 shared leaves; "
        "removed meta.bin; added meta.u",
        # every number reads back to the same float: a pure re-encoding
        "run/recoded.csv: numbers equal; text differs",
        "run/recoded.json: numbers equal; text differs",
        "run/text.csv: structure differs",
        # -0 and 0.0 are equal numbers but not the same float
        "run/zero.csv: max relative difference 0"]
