"""The one process pool: a large tree's subtrees grown in forked workers
give the one-process tree, a large CSV file read in row ranges gives the
one-process table and errors, errors come back whole, and a map inside a
map runs where it is."""
import concurrent.futures
import csv
import multiprocessing
import os
import pickle
from dataclasses import replace

import numpy as np
import pytest

from nantree import (
    Branch,
    Dataset,
    FeatureColumn,
    Leaf,
    ParseError,
    ResponseColumn,
    Schema,
    Strategy,
    TrainConfig,
    ValidationError,
    load_csv,
    load_features,
    parallel,
    predict,
    serialize,
    train,
)
from nantree import data as data_module
from nantree import tree as tree_module
from nantree.cli import main
from nantree.data import CATEGORICAL, CLASS, CLASSIFICATION, NUMERIC, REAL
from nantree.tree import truncate

from conftest import middle_chain_tree

pytestmark = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                                reason="trees grow in one process without the fork start method")

DEPTH = 3


def _large_table(n_classes):
    """Three numeric features and one categorical, about a quarter of each
    missing, on as many rows as train needs to fork."""
    n = tree_module.PARALLEL_ROWS
    rng = np.random.default_rng(11 + n_classes)
    x = rng.normal(size=(n, 3))
    codes = rng.integers(0, 4, size=n)
    signal = x[:, 0] - x[:, 1] + 0.5 * x[:, 2] + codes + rng.normal(scale=0.5, size=n)
    miss = rng.random((n, 4)) < 0.25
    cols = [FeatureColumn(f"x{j}", NUMERIC, np.where(miss[:, j], np.nan, x[:, j])) for j in range(3)]
    cols.append(FeatureColumn("g", CATEGORICAL, np.where(miss[:, 3], -1, codes), ("a", "b", "c", "d")))
    if n_classes:
        edges = np.quantile(signal, np.linspace(0, 1, n_classes + 1)[1:-1])
        response = ResponseColumn(CLASS, np.searchsorted(edges, signal), tuple(f"l{k}" for k in range(n_classes)))
    else:
        response = ResponseColumn(REAL, signal)
    return Dataset(tuple(cols), response)


def _split_nodes(root):
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, Branch):
            yield node
            stack += [node.left, node.right] + ([] if node.middle is None else [node.middle])


@pytest.mark.parametrize("n_classes", [0, 3])
@pytest.mark.parametrize("strategy", list(Strategy))
def test_two_cpus_grow_the_one_cpu_tree(strategy, n_classes, monkeypatch, tmp_path):
    ds = _large_table(n_classes)
    cfg = TrainConfig(strategy, max_depth=DEPTH, min_samples=5)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    one = train(ds, cfg)

    # each process that scans a node leaves a file named by its pid; the
    # worker's first task is the second largest subtree
    real_scan = tree_module.scan_features

    def scan(*args):
        (tmp_path / str(os.getpid())).touch()
        return real_scan(*args)

    monkeypatch.setattr(tree_module, "scan_features", scan)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    two = train(ds, cfg)
    assert len(list(tmp_path.iterdir())) == 2
    assert multiprocessing.active_children() == []

    assert serialize(two) == serialize(one)
    assert predict(two, ds).tobytes() == predict(one, ds).tobytes()
    for depth in range(DEPTH + 1):
        assert serialize(truncate(two, depth)) == serialize(truncate(one, depth))
    # a middle child keeps its parent's leaf, below depth 1 as well
    middles = [node for node in _split_nodes(two.root) if node.middle is not None]
    assert (len(middles) > 0) == (strategy in (Strategy.TRINARY, Strategy.TRINARY_MIA))
    for parent in middles:
        assert (parent.middle.fit if isinstance(parent.middle, Branch) else parent.middle) is parent.fit


def _count_pools(monkeypatch) -> list:
    """The pid of the process that starts each process pool from here on."""
    pools = []

    class CountedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(os.getpid())
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
    return pools


def _constant_table():
    """The large table with one response value: the root stays a leaf."""
    ds = _large_table(0)
    return Dataset(ds.columns, ResponseColumn(REAL, np.ones(ds.n_rows)))


def _missing_high_table():
    """Feature a, never missing, carries most of the signal; b is missing
    where it is high, which mia routing reads and a middle child does not."""
    n = tree_module.PARALLEL_ROWS
    rng = np.random.default_rng(5)
    a, b = rng.normal(size=(2, n))
    y = 3 * a + b + rng.normal(scale=0.3, size=n)
    cols = (FeatureColumn("a", NUMERIC, a), FeatureColumn("b", NUMERIC, np.where(b > 1, np.nan, b)))
    return Dataset(cols, ResponseColumn(REAL, y))


def _chain(root):
    """The missing routes of the depth-0 chain (the root and its middle
    children) and the node after it: a leaf, or None after a binary split."""
    routes, node = [], root
    while isinstance(node, Branch):
        routes.append(node.spec.route.value)
        node = node.middle
    return routes, node


# (table, strategy, the one-CPU tree's chain routes, the type of its tail);
# on one table, trinary ends the chain when no feature is left and
# trinary_mia where mia routing wins
CHAIN_ENDS = {
    "root leaf": (_constant_table, Strategy.TRINARY, [], Leaf),
    "middle leaf": (_missing_high_table, Strategy.TRINARY, ["middle", "middle"], Leaf),
    "binary split": (_missing_high_table, Strategy.TRINARY_MIA, ["middle", "right"], type(None)),
}


@pytest.mark.parametrize("case", CHAIN_ENDS)
def test_two_cpus_grow_each_end_of_the_chain(case, monkeypatch):
    make_table, strategy, routes, tail = CHAIN_ENDS[case]
    ds = make_table()
    cfg = TrainConfig(strategy, max_depth=DEPTH, min_samples=5)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    one = train(ds, cfg)
    chain, end = _chain(one.root)
    assert chain == routes and type(end) is tail

    pools = _count_pools(monkeypatch)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    two = train(ds, cfg)
    assert serialize(two) == serialize(one)
    # a root that stays a leaf leaves no subtree to hand out
    assert pools == ([os.getpid()] if routes else [])
    assert multiprocessing.active_children() == []


def test_an_error_in_a_worker_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    caller, real_scan = os.getpid(), tree_module.scan_features

    def scan_in_caller_only(*args):
        if os.getpid() != caller:
            raise ValidationError("scanned in a worker")
        return real_scan(*args)

    monkeypatch.setattr(tree_module, "scan_features", scan_in_caller_only)
    with pytest.raises(ValidationError, match="^scanned in a worker$") as raised:
        train(_large_table(3), TrainConfig(Strategy.TRINARY, max_depth=DEPTH))
    assert type(raised.value) is ValidationError
    assert multiprocessing.active_children() == []


def test_a_train_inside_a_map_makes_no_second_pool(monkeypatch):
    ds = _large_table(0)
    cfg = TrainConfig(Strategy.MIA, max_depth=DEPTH)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    expected = serialize(train(ds, cfg))

    pools = _count_pools(monkeypatch)  # a worker forks with the outer pool counted
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)

    def task(_):
        text = serialize(train(ds, cfg))
        return os.getpid(), len(pools), text

    # task 0 is the caller's and task 1 the worker's
    runs = parallel.fork_map(task, 2)
    assert runs[0][0] == os.getpid() != runs[1][0]
    assert [(count, text) for _, count, text in runs] == [(1, expected)] * 2
    assert pools == [os.getpid()]
    assert multiprocessing.active_children() == []


def test_a_deep_middle_chain_pickles_flat():
    # deeper than the interpreter's recursion limit, with one leaf object
    # serving as two nodes' fit and as a middle child
    chain = middle_chain_tree(3000)
    shared = Leaf(value=1.0, n_samples=3.0, train_loss=2.0)
    spec = chain.root.spec
    root = Branch(spec, chain.root, shared, Branch(spec, shared, shared, shared, 3.0, shared), 3.0, shared)
    back = pickle.loads(pickle.dumps(root))
    assert back.fit is back.middle.fit is back.middle.middle
    assert serialize(replace(chain, root=back)) == serialize(replace(chain, root=root))


# ---------------------------------------------------------------------------
# a large CSV file, read in row ranges


def _table_lines(n_rows=data_module.PARALLEL_CHARS // 30):
    """The header and unquoted rows of a table of about 35 characters a row,
    over the parallel floor at the default size: a numeric feature with
    every missing token, a categorical feature whose name "early" occurs in
    the first rows only and "late" in the last rows only, so row ranges
    list different names, a class label, of which "l9" occurs in the last
    rows only, and a real target."""
    rng = np.random.default_rng(3)
    x = [repr(v) for v in rng.normal(size=n_rows).round(4).tolist()]
    for i in rng.choice(n_rows, n_rows // 5, replace=False).tolist():
        x[i] = ("", "NA", "nan")[i % 3]
    names = np.array(["a", "b", "", "NA"])[rng.integers(0, 4, size=n_rows)].tolist()
    labels = [f"l{k}" for k in rng.integers(0, 3, size=n_rows).tolist()]
    names[:10], names[-10:], labels[-5:] = ["early"] * 10, ["late"] * 10, ["l9"] * 5
    y = list(map(repr, rng.normal(size=n_rows).tolist()))
    return ["x,c,k,y", *map(",".join, zip(x, names, labels, y))]


def _text(lines, line_end="\n", blank_every=0):
    """``lines`` joined by ``line_end``, with a blank line after every
    ``blank_every``-th data row."""
    if blank_every:
        lines = [lines[0]] + [line for i, row in enumerate(lines[1:], 1)
                              for line in ([row, ""] if i % blank_every == 0 else [row])]
    return line_end.join(lines) + line_end


TEXTS = {
    "lf": {},
    "crlf": {"line_end": "\r\n"},
    "cr": {"line_end": "\r"},
    "blank-lines": {"blank_every": 7},
    "blank-lines-crlf": {"line_end": "\r\n", "blank_every": 7},
}

# categorical columns read without a category list (load_csv) and with one
# that leaves names unseen (load_features), sorted or not, as a tree's may be
UNSORTED = ("late", "zz", "a", "early")
READS = {
    "regression": lambda path: load_csv(path, Schema("y", kinds={"c": CATEGORICAL, "k": CATEGORICAL})),
    "classification": lambda path: load_csv(path, Schema("k", CLASSIFICATION, {"c": CATEGORICAL})),
    "features": lambda path: load_features(path, ("c", "x", "y"), (CATEGORICAL, NUMERIC, NUMERIC),
                                           {0: ("a", "late", "zz")}),
    "features-unsorted": lambda path: load_features(path, ("c", "x"), (CATEGORICAL, NUMERIC), {0: UNSORTED}),
}


def _contents(ds):
    """Each column's name, kind, category names and value bytes, then the response's."""
    return ([(c.name, c.kind, c.categories, c.values.tobytes()) for c in ds.columns]
            + [(ds.response.kind, ds.response.labels, ds.response.values.tobytes())])


def _log_ranges(monkeypatch, log):
    """Append the pid of the process that reads each range as a table to ``log``."""
    real = data_module._unquoted_table

    def logged(lines, path):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return real(lines, path)

    monkeypatch.setattr(data_module, "_unquoted_table", logged)


@pytest.mark.parametrize("read", READS)
@pytest.mark.parametrize("text", TEXTS)
def test_two_cpus_read_the_one_cpu_table(read, text, monkeypatch, tmp_path):
    path = tmp_path / "large.csv"
    path.write_bytes(_text(_table_lines(), **TEXTS[text]).encode())
    assert path.stat().st_size > data_module.PARALLEL_CHARS
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    one = READS[read](str(path))
    if read == "regression":  # the ranges' names differ, so the codes are mapped
        assert one.columns[1].categories == ("a", "b", "early", "late")
    if read == "classification":
        assert one.response.labels == ("l0", "l1", "l2", "l9")
    if read == "features-unsorted":  # each range's codes, and so the joined ones, are under the list as given
        assert one.columns[0].categories == UNSORTED

    pools = _count_pools(monkeypatch)
    _log_ranges(monkeypatch, tmp_path / "ranges")
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    two = READS[read](str(path))
    assert _contents(two) == _contents(one)
    # two ranges, one in the caller and one in the worker, and no second read
    readers = (tmp_path / "ranges").read_text().split()
    assert len(readers) == len(set(readers)) == 2 and str(os.getpid()) in readers
    assert pools == [os.getpid()]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("line_end, header_end", [("\n", "\n"), ("\r\n", "\r\n"), ("\r", "\r"), ("\r\n", "\n")],
                         ids=["lf", "crlf", "cr", "lf-header-crlf-rows"])
def test_two_cpus_read_a_one_column_file(line_end, header_end, monkeypatch, tmp_path):
    # in a one-column file a blank line is a missing cell, so a range that
    # began inside a line end would read one more
    lines = [line.split(",")[0] for line in _table_lines(data_module.PARALLEL_CHARS // 5)]
    path = tmp_path / "column.csv"
    text = _text(lines, line_end, blank_every=5)
    path.write_bytes((lines[0] + header_end + text[len(lines[0] + line_end):]).encode())
    assert path.stat().st_size > data_module.PARALLEL_CHARS
    read = lambda: load_features(str(path), ("x",), (NUMERIC,), {})  # noqa: E731
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    one = read()
    assert one.n_rows == len(lines) - 1 + (len(lines) - 1) // 5
    pools = _count_pools(monkeypatch)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    assert _contents(read()) == _contents(one)
    assert pools == [os.getpid()]


def test_two_cpus_predict_the_one_cpu_bytes(monkeypatch, tmp_path):
    lines = _table_lines()
    data, tree_path = tmp_path / "large.csv", tmp_path / "tree.json"
    data.write_bytes(_text(lines, "\r\n").encode())
    (tmp_path / "small.csv").write_text(_text(lines[:400]))
    ds = load_csv(str(tmp_path / "small.csv"), Schema("y", kinds={"c": CATEGORICAL, "k": CATEGORICAL}))
    tree_path.write_text(serialize(train(ds, TrainConfig(Strategy.FC, max_depth=4))))
    outputs = []
    for cpus in (1, 2):
        monkeypatch.setattr(parallel, "usable_cpus", lambda cpus=cpus: cpus)
        out = tmp_path / f"out{cpus}.csv"
        assert main(["predict", "--tree", str(tree_path), "--data", str(data), "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0].count(b"\r\n") == len(lines)


def _bad_number(lines, i):
    """``lines`` with the x cell of line ``i`` made a cell that is not a number."""
    lines = lines.copy()
    lines[i] = lines[i].replace(",", "1e,", 1)
    return lines


def _bad_tables(path):
    """Each table of errors, and the message a one-process read gives it."""
    lines = _table_lines()
    half, limit = len(lines) // 2, csv.field_size_limit()
    ragged = _bad_number(lines, 100)  # row 101, in the caller's range
    ragged[half + 100] = ragged[half + 100].rsplit(",", 1)[0]
    long_cell = ragged.copy()
    long_cell[half + 200] = long_cell[half + 200].replace(",", "," + "q" * (limit + 1), 1)
    late = _bad_number(lines, half + 300)
    return {
        # structure is checked before cells: the ragged row in the worker's range wins
        "ragged": (ragged, f"{path}: row {half + 101} has 3 cells, expected 4"),
        # the field limit is checked before structure
        "long-cell": (long_cell, f"{path}: row {half + 201}: field larger than field limit ({limit})"),
        # the worker's range numbers its rows from its start; the message does not
        "late-number": (late, f"row {half + 301}, column 'x': "
                              f"cannot parse {late[half + 300].split(',')[0]!r} as a number"),
    }


@pytest.mark.parametrize("case", ["ragged", "long-cell", "late-number"])
@pytest.mark.parametrize("read", READS)
def test_two_cpus_raise_the_one_cpu_error(read, case, monkeypatch, tmp_path):
    path = str(tmp_path / "bad.csv")
    lines, message = _bad_tables(path)[case]
    with open(path, "w") as fh:
        fh.write(_text(lines))
    errors = []
    for cpus in (1, 2):
        monkeypatch.setattr(parallel, "usable_cpus", lambda cpus=cpus: cpus)
        pools = _count_pools(monkeypatch)
        with pytest.raises(ParseError) as raised:
            READS[read](path)
        errors.append((type(raised.value), str(raised.value)))
    assert errors == [(ParseError, message)] * 2
    assert pools == [os.getpid()]  # the 2-CPU read started a pool
    assert multiprocessing.active_children() == []


def _sized_text(n_chars: int) -> str:
    """An unquoted two-column table of exactly ``n_chars`` characters."""
    rows, rest = divmod(n_chars - len("x,y\n"), len("1.5,2\n"))
    return "x,y\n" + "1.5,2\n" * (rows - 1) + "1" * (rest + 3) + ",2\n"


@pytest.mark.parametrize("n_chars, pooled", [(data_module.PARALLEL_CHARS - 1, False),
                                             (data_module.PARALLEL_CHARS, True)],
                         ids=["below-the-floor", "at-the-floor"])
def test_the_floor_decides_whether_a_pool_starts(n_chars, pooled, monkeypatch, tmp_path):
    path = tmp_path / "sized.csv"
    path.write_text(_sized_text(n_chars))
    assert len(path.read_text()) == n_chars
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    one = load_csv(str(path), Schema("y"))
    pools = _count_pools(monkeypatch)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    assert _contents(load_csv(str(path), Schema("y"))) == _contents(one)
    assert pools == ([os.getpid()] if pooled else [])


def test_a_read_inside_a_map_makes_no_second_pool(monkeypatch, tmp_path):
    path = tmp_path / "large.csv"
    path.write_text(_text(_table_lines()))
    read = READS["regression"]
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    expected = _contents(read(str(path)))

    pools = _count_pools(monkeypatch)  # a worker forks with the outer pool counted
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)

    def task(_):
        return os.getpid(), len(pools), _contents(read(str(path)))

    runs = parallel.fork_map(task, 2)
    assert runs[0][0] == os.getpid() != runs[1][0]
    assert [(count, contents) for _, count, contents in runs] == [(1, expected)] * 2
    assert pools == [os.getpid()]
    assert multiprocessing.active_children() == []
