"""List the qbrolin functions that no run of some configs or workload ops
called: a map of which library code a set of runs exercises.

The CONFIGs and the ops of each ``--workload NAME`` at ``--seed N`` run
in-process through ``output_digest.py``'s runner, its digest lines
discarded, under ``sys.setprofile``; the qbrolin modules are imported under
it too, so a call made at import (building a module's tables) counts. Every
function, method, nested function and lambda written in ``src/qbrolin`` is
listed, one ``<module>:<line> <qualified name>`` line each, unless some run
called it (comprehensions and generator expressions are left out). The
CLI's stderr and the wall times go to stderr.

Usage: PYTHONPATH=src python scripts/traffic.py [CONFIG...]
           [--workload NAME]... [--seed N] --out-root DIR
"""

import argparse
import contextlib
import importlib
import inspect
import io
import pkgutil
import sys
import types
from pathlib import Path


def library_code():
    """Import every qbrolin module; return the code object of each function
    written in one."""
    import qbrolin
    package = Path(qbrolin.__file__).resolve().parent
    names = [i.name for i in pkgutil.iter_modules(qbrolin.__path__, "qbrolin.")]
    todo = []
    for module in [qbrolin, *map(importlib.import_module, names)]:
        for obj in vars(module).values():
            members = vars(obj).values() if inspect.isclass(obj) else [obj]
            for fn in members:
                fn = inspect.unwrap(getattr(fn, "__func__",
                                            getattr(fn, "fget", fn)))
                if inspect.isfunction(fn):
                    todo.append(fn.__code__)
    seen = set()
    while todo:   # nested functions are constants of their parents' code
        code = todo.pop()
        if code not in seen:
            seen.add(code)
            todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return {c for c in seen if Path(c.co_filename).resolve().parent == package
            and (c.co_name[:1] != "<" or c.co_name == "<lambda>")}


def _name(code):
    module = Path(code.co_filename).stem
    qualname = getattr(code, "co_qualname", code.co_name)   # Python 3.11+
    return f"{module}:{code.co_firstlineno} {qualname}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("configs", nargs="*", type=Path, metavar="CONFIG")
    ap.add_argument("--workload", action="append", default=[], metavar="NAME")
    ap.add_argument("--seed", type=int, metavar="N")
    ap.add_argument("--out-root", required=True, type=Path, metavar="DIR")
    args = ap.parse_args()
    if bool(args.workload) != (args.seed is not None):
        ap.error("--workload and --seed go together")
    if not args.configs and not args.workload:
        ap.error("give a CONFIG or --workload NAME --seed N")
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    with contextlib.redirect_stdout(io.StringIO()):
        sys.setprofile(profile)
        try:
            code = library_code()
            from output_digest import digest_config, digest_workload
            for config in args.configs:
                digest_config(config, config.stem, args.out_root)
            for name in args.workload:
                digest_workload(name, args.seed, args.out_root)
        finally:
            sys.setprofile(None)
    unused = sorted(code - called,
                    key=lambda c: (c.co_filename, c.co_firstlineno))
    print(f"# {len(unused)} of {len(code)} qbrolin functions not called")
    for c in unused:
        print(_name(c))


if __name__ == "__main__":
    main()
