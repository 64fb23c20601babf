"""Value comparison of two artifact_digests.py output trees.

Usage: python scripts/artifact_diff.py RUN_A RUN_B

RUN_A and RUN_B are the ``--out`` directories of two artifact_digests.py
runs (``<config stem>/<command>/<artifact>``). For a change that moves the
numerics at roundoff, the digests differ; this script says by how much. It
prints one line per artifact,

    <config stem>/<command>/<artifact> <largest relative difference> <column>

where a difference is relative to the largest finite magnitude of its column
in either run. A CSV column is a header field; a JSON column is a leaf's key
path with list indices dropped, so the entries of one list share a column. A
last line gives the largest difference over all artifacts.

The columns both artifacts have are compared whatever else differs, so an
artifact that gains a column still has its shared values measured. It exits
1, after naming each one, on any difference that is not a number moving: a
file in one tree only, a column in one artifact only, shared columns in
another order, NaN or inf at other positions or of other sign, or any
non-numeric field (a CSV text cell, a JSON key, string, bool or null, the
shape of a list) that differs. Files that are neither CSV nor JSON must be
byte-identical. Otherwise it exits 0.
"""

import argparse
import csv
import json
import math
import os
import sys


def tree(root: str) -> set:
    return {os.path.relpath(os.path.join(d, f), root)
            for d, _, files in os.walk(root) for f in files}


def csv_columns(path: str) -> dict:
    """{column: cells} of a CSV file, in header order; cells are floats where
    they parse."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    cols = {name: [] for name in header}
    for row in body:
        if len(row) != len(header):
            raise ValueError(f"row of {len(row)} cells under {len(header)} columns")
        for name, cell in zip(header, row):
            try:
                cols[name].append(float(cell))
            except ValueError:
                cols[name].append(cell)
    return cols


def json_columns(obj, path: str = "", cols=None) -> dict:
    """{column: leaves}, a column being a leaf's key path without list indices;
    a list's length is recorded as a non-numeric leaf of its own, and an empty
    dict is a non-numeric leaf, so a key that holds one is a column too."""
    cols = {} if cols is None else cols
    if isinstance(obj, dict) and obj:
        for key, val in obj.items():
            json_columns(val, f"{path}.{key}", cols)
    elif isinstance(obj, list):
        cols.setdefault(path + "[]", []).append(f"len {len(obj)}")
        for val in obj:
            json_columns(val, path + "[]", cols)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        cols.setdefault(path, []).append(float(obj))
    else:
        cols.setdefault(path, []).append(repr(obj))
    return cols


def compare_columns(cols_a: dict, cols_b: dict) -> tuple:
    """(largest relative difference, its column, [problems]) over the columns
    both sides have; a column of one side only is a problem, as are shared
    columns in another order."""
    shared = [name for name in cols_a if name in cols_b]
    problems = [f"column {name} only in {side}"
                for side, cols, other in (("RUN_A", cols_a, cols_b), ("RUN_B", cols_b, cols_a))
                for name in cols if name not in other]
    if shared != [name for name in cols_b if name in cols_a]:
        problems.append("shared columns in another order")
    worst, where = 0.0, ""
    for name in shared:
        a, b = cols_a[name], cols_b[name]
        if len(a) != len(b):
            problems.append(f"column {name}: {len(a)} against {len(b)} entries")
            continue
        scale = max((abs(x) for x in a + b if isinstance(x, float) and math.isfinite(x)),
                    default=0.0)
        for i, (x, y) in enumerate(zip(a, b)):
            if not (isinstance(x, float) and isinstance(y, float)):
                if x != y:
                    problems.append(f"column {name}, entry {i}: {x!r} against {y!r}")
                continue
            if not (math.isfinite(x) and math.isfinite(y)):
                if not (x == y or (math.isnan(x) and math.isnan(y))):
                    problems.append(f"column {name}, entry {i}: {x!r} against {y!r}")
                continue
            rel = abs(x - y) / scale if scale else 0.0
            if rel > worst:
                worst, where = rel, name
    return worst, where, problems


def compare(path_a: str, path_b: str) -> tuple:
    if path_a.endswith(".csv"):
        return compare_columns(csv_columns(path_a), csv_columns(path_b))
    if path_a.endswith(".json"):
        with open(path_a, encoding="utf-8") as fa, open(path_b, encoding="utf-8") as fb:
            return compare_columns(json_columns(json.load(fa)), json_columns(json.load(fb)))
    with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
        return 0.0, "", [] if fa.read() == fb.read() else ["bytes differ"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("run_a", metavar="RUN_A")
    parser.add_argument("run_b", metavar="RUN_B")
    args = parser.parse_args(argv)
    files_a, files_b = tree(args.run_a), tree(args.run_b)
    failed = False
    for name in sorted(files_a ^ files_b):
        print(f"{name}: only in {args.run_a if name in files_a else args.run_b}")
        failed = True
    overall = 0.0
    for name in sorted(files_a & files_b):
        rel, column, problems = compare(os.path.join(args.run_a, name),
                                        os.path.join(args.run_b, name))
        print(f"{name} {rel:.3g} {column}".rstrip())
        for problem in problems:
            print(f"{name}: {problem}")
        failed = failed or bool(problems)
        overall = max(overall, rel)
    print(f"largest relative difference {overall:.3g} over {len(files_a & files_b)} artifacts")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
