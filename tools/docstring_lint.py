"""Docstring-coverage lint (a dependency-free stand-in for `interrogate`).

Walks the given packages (or single modules) with :mod:`ast` and
reports the fraction of definitions — modules, public classes, and
public functions/methods — that carry a docstring. Exits non-zero if
any path is below the threshold or holds no Python file at all, so CI
can gate on documentation coverage the same way it gates on tests.

Private names (leading underscore), dunders other than ``__init__``
modules, and trivial overrides are deliberately still counted when
public: the point of the gate is that everything a reader can reach has
a stated contract.

Usage:

    python tools/docstring_lint.py --threshold 90 src/repro/sim src/repro/system.py
"""

import argparse
import ast
import os
import sys


def _wants_docstring(node):
    """Public defs only; private helpers may document via comments."""
    return not node.name.startswith("_")


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def scan_file(path):
    """Return (documented, missing) lists of definition labels.

    Only module-level and class-body definitions are counted: closures
    nested inside functions are implementation detail, documented by
    their enclosing function's contract.
    """
    with open(path, "r", encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    documented, missing = [], []
    label = os.path.basename(path)
    (documented if ast.get_docstring(tree) else missing).append(
        "%s (module)" % label)

    def visit(node):
        if isinstance(node, _DEFS) and _wants_docstring(node):
            target = documented if ast.get_docstring(node) else missing
            target.append("%s:%d %s" % (label, node.lineno, node.name))
        if isinstance(node, (ast.Module, ast.ClassDef)):
            for child in node.body:
                visit(child)

    for child in tree.body:
        visit(child)
    return documented, missing


def scan_package(root):
    """Aggregate coverage over every ``.py`` file under ``root`` (or of
    ``root`` itself, if it is a file)."""
    if os.path.isfile(root):
        return scan_file(root)
    documented, missing = [], []
    for dirpath, _dirnames, filenames in os.walk(root):
        if "__pycache__" in dirpath:
            continue
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            docs, miss = scan_file(os.path.join(dirpath, filename))
            documented.extend(docs)
            missing.extend(miss)
    return documented, missing


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("packages", nargs="+",
                        help="package directories or modules to scan")
    parser.add_argument("--threshold", type=float, default=90.0,
                        help="minimum %% of definitions with docstrings")
    parser.add_argument("--verbose", action="store_true",
                        help="list every missing docstring")
    args = parser.parse_args(argv)
    failed = False
    for package in args.packages:
        documented, missing = scan_package(package)
        total = len(documented) + len(missing)
        # A path with no Python file in it documents nothing: a typo in
        # the path list must fail, not pass vacuously.
        coverage = 100.0 * len(documented) / total if total else 0.0
        status = "ok" if coverage >= args.threshold else "FAIL"
        print("%-24s %5.1f%% (%d/%d documented)  [%s]"
              % (package, coverage, len(documented), total, status))
        if coverage < args.threshold:
            failed = True
            for item in missing:
                print("    missing: %s" % item)
        elif args.verbose:
            for item in missing:
                print("    missing: %s" % item)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
