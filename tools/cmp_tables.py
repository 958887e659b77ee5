"""Compare the table CSVs of two versions of equifd byte for byte.

    python3 tools/cmp_tables.py BASE [OTHER]

BASE and OTHER are git revisions of this repository; without OTHER the
working tree is compared against BASE.  Each revision is exported with
`git archive` into a temporary directory, and each tree writes, through
its own command line (`python3 -m equifd.cli`), the CSVs of table1,
table2, error-profile, the 14-rung convergence ladder (N = 10 to 81920)
of each of the four table1 grids, six single-config adaptive solves
with their traces ((alpha, beta) = (2, 1/4); (2, 2), whose 653 outer
steps sweep one row each; (2, 1/2) with at most 3 sweeps per
equidistribution, whose first stops at that cap; (10, 1), whose first
equidistribution stalls; (2, 2) capped at 300 outer steps, which ends
not converged; and (1e4, 1/4) at lam = 100 and N = 40, capped at 50
outer steps, whose grids repeat an exact 2-cycle unless an equal change
damps them), the six equidistributed `solve`s of the
smooth_equidist benchmark (beta 1/4 and 1/2 at N = 640, 2560 and 5120),
one adaptive `solve`, and three equidistributed `solve`s of known
defects: the spurious grids at lam = 20, beta = 1/2 and at lam = 100,
beta = 1/4 (N = 200), and the first sweep's collision at lam = 160,
beta = 1/4, N = 20, which exits 2.  Each run's exit code, after what
each equidistributed solve prints (its max error and sweep count, or
its error message) less the output path, is kept as a .txt file beside
its CSV and compared too, so a run may exit non-zero.  The script
prints one line per file, `same` or `DIFFERS`, and exits 1 if any file
differs.  Below a CSV that differs it
prints a difference in the count of rows, and for each numeric column
that moved the largest absolute and relative difference between rows of
the same index; below a .txt file that differs, both texts.  Last it
prints the net line change of src/equifd/ between the two revisions
(`git diff --numstat`; for the working tree, its tracked files), and
beside it the count of code lines in each: lines that are not blank,
not only a comment and not part of a docstring.  Then it prints the
count of settable values in each: the defaulted parameters of the
public functions, methods and constructors at module or class level,
and the defaulted init fields of the public dataclasses.  It needs only
the standard library and the package's own dependencies.
"""

from __future__ import annotations

import argparse
import ast
import csv
import filecmp
import io
import math
import os
import subprocess
import sys
import tarfile
import tempfile
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LADDER = ",".join(str(10 * 2**k) for k in range(14))
# file name -> CLI arguments; the four grids are those of table1.  Each
# run starts in the output directory, so a second file it writes by a
# relative path (adapt's --trace) lands there and is compared as well.
RUNS = {
    "table1.csv": ["table1"],
    "table2.csv": ["table2"],
    "error_profile.csv": ["error-profile"],
    "ladder_uniform.csv": ["convergence", "--grid", "uniform", "--n-ladder", LADDER],
    **{f"ladder_beta_{beta}.csv": ["convergence", "--grid", "analytic", "--beta", beta,
                                   "--n-ladder", LADDER]
       for beta in ("0.25", "0.5", "2")},
    "adapt.csv": ["adapt", "--alpha", "2", "--beta", "0.25", "--trace", "adapt_trace.csv"],
    "adapt_2_2.csv": ["adapt", "--alpha", "2", "--beta", "2", "--trace", "adapt_2_2_trace.csv"],
    "adapt_capped.csv": ["adapt", "--alpha", "2", "--beta", "0.5", "--max-iter", "3",
                         "--trace", "adapt_capped_trace.csv"],
    "adapt_stalled.csv": ["adapt", "--alpha", "10", "--beta", "1",
                          "--trace", "adapt_stalled_trace.csv"],
    "adapt_max_outer.csv": ["adapt", "--alpha", "2", "--beta", "2", "--max-outer", "300",
                            "--trace", "adapt_max_outer_trace.csv"],
    "adapt_lambda100.csv": ["adapt", "--lambda", "100", "--n", "40", "--alpha", "1e4",
                            "--beta", "0.25", "--max-outer", "50",
                            "--trace", "adapt_lambda100_trace.csv"],
    "solve_equidistributed.csv": ["solve", "--grid", "equidistributed", "--beta", "0.5",
                                  "--n", "640"],
    "solve_equidistributed_5120.csv": ["solve", "--grid", "equidistributed", "--beta", "0.25",
                                       "--n", "5120"],
    **{f"solve_equidistributed_{beta}_{n}.csv": ["solve", "--grid", "equidistributed",
                                                 "--beta", beta, "--n", n]
       for beta, n in (("0.25", "640"), ("0.25", "2560"), ("0.5", "2560"), ("0.5", "5120"))},
    "solve_adaptive.csv": ["solve", "--grid", "adaptive", "--alpha", "2", "--beta", "0.5"],
    # known defects of the equidistributed mode: two spurious grids, and a
    # first sweep that collides the nodes (exit 2)
    "solve_spurious_lambda20.csv": ["solve", "--grid", "equidistributed", "--beta", "0.5",
                                    "--lambda", "20", "--n", "200"],
    "solve_spurious_lambda100.csv": ["solve", "--grid", "equidistributed", "--beta", "0.25",
                                     "--lambda", "100", "--n", "200"],
    "solve_collapse_lambda160.csv": ["solve", "--grid", "equidistributed", "--beta", "0.25",
                                     "--lambda", "160", "--n", "20"],
}


def export(revision: str, into: Path) -> Path:
    """The tree of revision, unpacked from `git archive` under into."""
    archive = into / "tree.tar"
    with archive.open("wb") as out:
        subprocess.run(["git", "-C", str(ROOT), "archive", revision], stdout=out, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(into / "tree", filter="data")
    archive.unlink()
    return into / "tree"


def write_tables(tree: Path, out: Path) -> None:
    """Each CSV of RUNS, written by the command line of the tree at tree,
    and, as a .txt file of the CSV's name, the run's exit code, after what
    an equidistributed solve prints to stdout, less the path, and to
    stderr.  Other runs' stderr passes through."""
    out.mkdir()
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    for name, args in RUNS.items():
        run = subprocess.run([sys.executable, "-m", "equifd.cli", *args, "--out", name],
                             cwd=out, env=env, capture_output=True, text=True)
        printed = ""
        if args[:3] == ["solve", "--grid", "equidistributed"]:
            printed = run.stdout.replace(f"  ({name})", "") + run.stderr
        else:
            sys.stderr.write(run.stderr)
        (out / name).with_suffix(".txt").write_text(f"{printed}exit {run.returncode}\n")


def column_changes(base: Path, other: Path) -> list:
    """Lines that say how the CSV other differs from base, both with a
    header row: the row counts where they differ, then each column, by
    the base's header, whose numbers differ, with the largest absolute
    and relative difference over the rows both files have.  A NaN against
    a number counts as an infinite difference; fields that are not
    numbers are skipped."""
    tables = []
    for path in (base, other):
        with path.open(newline="") as f:
            tables.append([row for row in csv.reader(f) if row])
    (header, *rows_a), (_, *rows_b) = tables
    lines = [] if len(rows_a) == len(rows_b) else [f"rows {len(rows_a)} -> {len(rows_b)}"]
    for col, name in enumerate(header):
        worst_abs = worst_rel = 0.0
        for row_a, row_b in zip(rows_a, rows_b):
            try:
                a, b = float(row_a[col]), float(row_b[col])
            except (IndexError, ValueError):
                continue
            if a == b or (math.isnan(a) and math.isnan(b)):
                continue
            diff = abs(a - b)
            diff = math.inf if math.isnan(diff) else diff
            worst_abs = max(worst_abs, diff)
            worst_rel = max(worst_rel, diff / abs(a) if a else math.inf)
        if worst_abs:
            lines.append(f"{name}: max abs {worst_abs:.3e}, max rel {worst_rel:.3e}")
    return lines


def package_lines(base: str, other: str | None) -> tuple[int, int]:
    """Lines added and deleted in src/equifd/ from base to other."""
    revisions = [base] if other is None else [base, other]
    numstat = subprocess.run(["git", "-C", str(ROOT), "diff", "--numstat", *revisions, "--",
                              "src/equifd"], check=True, capture_output=True, text=True).stdout
    counts = [line.split("\t")[:2] for line in numstat.splitlines()]
    return (sum(int(a) for a, _ in counts if a != "-"),
            sum(int(d) for _, d in counts if d != "-"))


def code_lines(package: Path) -> int:
    """Lines of the modules in package that hold code: not blank, not
    only a comment, and not part of a docstring."""
    count = 0
    for path in sorted(package.glob("*.py")):
        source = path.read_text()
        docstrings = set()
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                    and ast.get_docstring(node, clean=False) is not None):
                docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
        lines = set()
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
                                  tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER):
                lines.update(range(token.start[0], token.end[0] + 1))
        count += len(lines - docstrings)
    return count


def _defaults(function: ast.FunctionDef) -> int:
    """The parameters of function that have a default."""
    args = function.args
    return len(args.defaults) + sum(default is not None for default in args.kw_defaults)


def _defaulted_field(statement: ast.stmt) -> bool:
    """Whether statement in a dataclass body is an init field with a
    default: a value that is not field(...), or field(...) with a default
    and not init=False."""
    if not (isinstance(statement, ast.AnnAssign) and statement.value is not None):
        return False
    value = statement.value
    if not (isinstance(value, ast.Call)
            and ast.unparse(value.func) in ("field", "dataclasses.field")):
        return True
    options = {keyword.arg: ast.unparse(keyword.value) for keyword in value.keywords}
    return options.get("init") != "False" and bool({"default", "default_factory"} & set(options))


def settable_values(package: Path) -> int:
    """Defaulted parameters of the public module-level functions and of the
    public methods and constructors of the public classes in package, and
    defaulted init fields of its public dataclasses."""
    count = 0
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                count += _defaults(node)
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                if any(ast.unparse(d).split("(")[0].endswith("dataclass")
                       for d in node.decorator_list):
                    count += sum(map(_defaulted_field, node.body))
                count += sum(_defaults(method) for method in node.body
                             if isinstance(method, ast.FunctionDef)
                             and (not method.name.startswith("_") or method.name == "__init__"))
    return count


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="git revision to compare against")
    parser.add_argument("other", nargs="?", help="git revision (default: the working tree)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="cmp_tables_") as tmp:
        tmp = Path(tmp)
        trees, code, settable = [], [], []
        for side, revision in (("base", args.base), ("other", args.other)):
            where = tmp / side
            where.mkdir()
            tree = ROOT if revision is None else export(revision, where)
            write_tables(tree, where / "csv")
            trees.append(where / "csv")
            code.append(code_lines(tree / "src" / "equifd"))
            settable.append(settable_values(tree / "src" / "equifd"))
        names = sorted({path.name for folder in trees for path in folder.iterdir()})
        changes = {}
        for name in names:
            paths = [folder / name for folder in trees]
            if not all(path.exists() for path in paths):
                changes[name] = ["missing in " + " and ".join(
                    side for side, path in zip(("base", "other"), paths) if not path.exists())]
            elif not filecmp.cmp(*paths, shallow=False):
                changes[name] = (column_changes(*paths) if name.endswith(".csv") else
                                 [" -> ".join(repr(path.read_text()) for path in paths)])
    for name in names:
        print(f"{'DIFFERS' if name in changes else 'same':8s}{name}")
        for line in changes.get(name, []):
            print(f"{'':10s}{line}")
    added, deleted = package_lines(args.base, args.other)
    print(f"src/equifd/: +{added} -{deleted} lines, net {added - deleted:+d}; "
          f"code lines {code[0]} -> {code[1]}, net {code[1] - code[0]:+d}; "
          f"settable values {settable[0]} -> {settable[1]}")
    return 1 if changes else 0


if __name__ == "__main__":
    sys.exit(main())
