import csv
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from nantree import NantreeError, read_records, serialize
from nantree.cli import MAX_RANGE_LEVELS, _parse_q_grid, _parse_strategies, main
from nantree.split import Strategy

from conftest import middle_chain_tree


def write_step_csv(path, n=60, seed=4, labels=False):
    rng = np.random.default_rng(seed)
    x = rng.random(n)
    lines = ["x,y"]
    for v in x:
        if labels:
            y = "hi" if v > 0.5 else "lo"
        else:
            y = repr(10.0 if v > 0.5 else 0.0)
        lines.append(f"{float(v)!r},{y}")
    path.write_text("\n".join(lines) + "\n")


def test_parse_strategies_tokens():
    got = _parse_strategies("majority, trinary-mia")
    assert got == (Strategy.MAJORITY, Strategy.TRINARY_MIA)
    assert _parse_strategies("MIA") == (Strategy.MIA,)
    with pytest.raises(NantreeError, match="valid:"):
        _parse_strategies("psychic")
    with pytest.raises(NantreeError):
        _parse_strategies(" , ")


def test_parse_q_grid_forms():
    assert _parse_q_grid("0:0.9:0.1") == tuple(round(0.1 * i, 10) for i in range(10))
    assert _parse_q_grid("0:0.5:0.25") == (0.0, 0.25, 0.5)
    # no level above stop; stop stays when it is on the grid within rounding
    assert _parse_q_grid("0.1:0.26:0.1") == (0.1, 0.2)
    assert _parse_q_grid("0.1:0.19:0.1") == (0.1,)
    assert _parse_q_grid("0:0.3:0.1") == (0.0, 0.1, 0.2, 0.3)
    assert _parse_q_grid("0.4:0.4:0.1") == (0.4,)
    assert _parse_q_grid("0,0.3,0.5") == (0.0, 0.3, 0.5)
    assert _parse_q_grid("0.2") == (0.2,)
    with pytest.raises(NantreeError):
        _parse_q_grid("0:0.9")
    with pytest.raises(NantreeError):
        _parse_q_grid("0.9:0:0.1")
    for text in ("abc", "0:x:0.1", "0,inf", "0:nan:0.1"):
        with pytest.raises(NantreeError, match="not a finite number"):
            _parse_q_grid(text)


def test_q_grid_range_level_count_is_capped():
    assert len(_parse_q_grid(f"0:0.9:{0.9 / (MAX_RANGE_LEVELS - 1)!r}")) == MAX_RANGE_LEVELS
    for text in (f"0:0.9:{0.9 / MAX_RANGE_LEVELS!r}", "0:0.5:5e-324"):
        with pytest.raises(NantreeError, match=f"at most {MAX_RANGE_LEVELS} levels"):
            _parse_q_grid(text)


@pytest.mark.parametrize("grid", ["0:0.5:1e-12", "0:0.9:1e-9"])
def test_huge_q_grid_range_is_a_quick_clean_error(tmp_path, capsys, grid):
    # the level count is checked before any level is built
    data = tmp_path / "step.csv"
    write_step_csv(data)
    start = time.perf_counter()
    rc = main(["run", "--data", str(data), "--target", "y", "--q-grid", grid, "--out", str(tmp_path / "out.csv")])
    assert time.perf_counter() - start < 5.0
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert f"at most {MAX_RANGE_LEVELS} levels" in captured.err
    assert captured.out == "" and not (tmp_path / "out.csv").exists()


def test_run_subcommand(tmp_path, capsys):
    data = tmp_path / "step.csv"
    write_step_csv(data)
    out = tmp_path / "bench.csv"
    rc = main([
        "run", "--data", str(data), "--target", "y",
        "--strategies", "majority,mia",
        "--q-grid", "0,0.5", "--folds", "3",
        "--max-depth", "2", "--min-samples", "2",
        "--out", str(out),
    ])
    assert rc == 0
    assert "records" in capsys.readouterr().out
    records = read_records(str(out))
    # 2 strategies x 2 q levels x (3 folds + aggregate)
    assert len(records) == 2 * 2 * 4
    assert {r.strategy for r in records} == {"majority", "mia"}


def test_run_is_reproducible_minus_wall_time(tmp_path):
    data = tmp_path / "step.csv"
    write_step_csv(data)
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"bench_{tag}.csv"
        rc = main([
            "run", "--data", str(data), "--target", "y",
            "--strategies", "mia", "--q-grid", "0,0.3",
            "--folds", "3", "--max-depth", "2", "--min-samples", "2",
            "--out", str(out),
        ])
        assert rc == 0
        outs.append(out.read_text())

    def strip_wall(text):
        return [line.rsplit(",", 1)[0] for line in text.splitlines()]

    assert strip_wall(outs[0]) == strip_wall(outs[1])


def test_train_and_predict_regression(tmp_path, capsys):
    data = tmp_path / "step.csv"
    write_step_csv(data)
    tree_path = tmp_path / "tree.json"
    rc = main([
        "train", "--data", str(data), "--target", "y",
        "--strategy", "trinary", "--depth", "2", "--min-samples", "2",
        "--dump-tree", str(tree_path),
    ])
    assert rc == 0
    shown = capsys.readouterr().out
    assert shown.startswith("d0 split x <= ")
    doc = json.loads(tree_path.read_text())
    assert doc["strategy"] == "trinary"

    newdata = tmp_path / "new.csv"
    newdata.write_text("x\n0.1\n0.9\nNA\n")
    out = tmp_path / "preds.csv"
    rc = main(["predict", "--tree", str(tree_path), "--data", str(newdata), "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "prediction"
    preds = [float(v) for v in lines[1:]]
    assert len(preds) == 3
    assert preds[0] < 5.0 < preds[1]


def test_train_and_predict_classification(tmp_path, capsys):
    data = tmp_path / "labels.csv"
    write_step_csv(data, labels=True)
    tree_path = tmp_path / "tree.json"
    rc = main([
        "train", "--data", str(data), "--target", "y", "--task", "classification",
        "--strategy", "mia", "--depth", "2", "--min-samples", "2",
        "--dump-tree", str(tree_path),
    ])
    assert rc == 0
    capsys.readouterr()
    newdata = tmp_path / "new.csv"
    newdata.write_text("x\n0.05\n0.95\n")
    out = tmp_path / "preds.csv"
    rc = main(["predict", "--tree", str(tree_path), "--data", str(newdata), "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "prediction,p_hi,p_lo"
    first = lines[1].split(",")
    assert first[0] == "lo"
    assert float(first[2]) > float(first[1])


def test_predict_reorders_and_ignores_extra_columns(tmp_path, capsys):
    data = tmp_path / "two.csv"
    rng = np.random.default_rng(0)
    rows = ["a,b,y"]
    for _ in range(40):
        a, b = float(rng.random()), float(rng.random())
        rows.append(f"{a!r},{b!r},{repr(10.0 * (a > 0.5))}")
    data.write_text("\n".join(rows) + "\n")
    tree_path = tmp_path / "tree.json"
    assert main(["train", "--data", str(data), "--target", "y",
                 "--strategy", "majority", "--depth", "1", "--min-samples", "2",
                 "--dump-tree", str(tree_path)]) == 0
    capsys.readouterr()
    # prediction input: different column order, response present, extras
    newdata = tmp_path / "new.csv"
    newdata.write_text("junk,b,y,a\n0,0.5,9.9,0.1\n0,0.5,9.9,0.9\n")
    out = tmp_path / "p.csv"
    assert main(["predict", "--tree", str(tree_path), "--data", str(newdata), "--out", str(out)]) == 0
    preds = [float(v) for v in out.read_text().splitlines()[1:]]
    assert preds[0] == 0.0 and preds[1] == 10.0


def test_schema_file_with_overrides(tmp_path, capsys):
    data = tmp_path / "step.csv"
    write_step_csv(data)
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"target": "x", "task": "regression"}))
    # --target beats the schema file's target
    rc = main([
        "train", "--data", str(data), "--schema", str(schema), "--target", "y",
        "--strategy", "majority", "--depth", "1", "--min-samples", "2",
    ])
    assert rc == 0
    assert "split x" in capsys.readouterr().out


def test_missing_target_is_a_clean_error(tmp_path, capsys):
    data = tmp_path / "step.csv"
    write_step_csv(data)
    rc = main(["train", "--data", str(data), "--strategy", "majority"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_strategy_is_a_clean_error(tmp_path, capsys):
    data = tmp_path / "step.csv"
    write_step_csv(data)
    rc = main(["train", "--data", str(data), "--target", "y", "--strategy", "psychic"])
    assert rc == 1
    assert "unknown strategy" in capsys.readouterr().err


def test_train_takes_one_strategy(tmp_path, capsys):
    data = tmp_path / "step.csv"
    write_step_csv(data)
    tree_path = tmp_path / "tree.json"
    rc = main(["train", "--data", str(data), "--target", "y", "--strategy", "majority,fc",
               "--dump-tree", str(tree_path)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "one strategy" in captured.err
    assert captured.out == "" and not tree_path.exists()


def test_missing_file_is_a_clean_error(tmp_path, capsys):
    rc = main(["train", "--data", str(tmp_path / "nope.csv"), "--target", "y"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run", "--q-grid", "abc"],
    ["run", "--q-grid", "0:x:0.1"],
    ["run", "--q-grid", "0:nan:0.1"],
    ["run", "--min-samples", "0"],
    ["run", "--q-grid", "0.5,0.5"],
    ["run", "--q-grid", "0,0.3,0.30"],
    ["run", "--strategies", "majority,majority"],
    ["run", "--strategies", "mia,MIA"],
    ["run", "--folds", "1"],
    ["train", "--depth", "-1"],
    ["train", "--min-samples", "0"],
])
def test_bad_values_are_clean_errors(tmp_path, capsys, argv):
    data = tmp_path / "step.csv"
    write_step_csv(data)
    common = ["--data", str(data), "--target", "y"]
    if argv[0] == "run":
        common += ["--folds", "3", "--max-depth", "2", "--out", str(tmp_path / "out.csv")]
    rc = main(argv[:1] + common + argv[1:])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["run", "--folds", "2", "--q-grid", "0,0.5", "--seed", "-1"],
    ["bias", "--reps", "3", "--n", "5", "--seed", "-1"],
    ["bias", "--reps", "3", "--n", "5", "--sigma", "nan"],
    ["bias", "--reps", "3", "--n", "5", "--a", "nan"],
    ["bias", "--reps", "3", "--n", "5", "--b", "inf"],
], ids=["run-seed", "bias-seed", "bias-sigma", "bias-a", "bias-b"])
def test_negative_seed_and_non_finite_bias_values_are_clean_errors(tmp_path, capsys, argv):
    if argv[0] == "run":
        data = tmp_path / "step.csv"
        write_step_csv(data)
        argv = argv + ["--data", str(data), "--target", "y", "--out", str(tmp_path / "out.csv")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == ""


LIMIT = csv.field_size_limit()


@pytest.mark.parametrize("command, bad_file, content, message", [
    ("predict", "data", b"x,y\n0.5,\xff\n", "not valid UTF-8 text"),
    ("train", "data", b"x,y\n0.5,\xff\n", "not valid UTF-8 text"),
    ("predict", "tree", b'{"format": "\xff"}', "not valid UTF-8 text"),
    ("train", "schema", b'{"target": "\xff"}', "not valid UTF-8 text"),
    ("train", "data", b"x,y\n" + b"1" * (LIMIT + 1) + b",0\n",
     f"row 2: field larger than field limit ({LIMIT})"),
    ("predict", "data", b'x,y\n0.5,0\n"' + b"1" * (LIMIT + 1) + b'",0\n',
     f"row 3: field larger than field limit ({LIMIT})"),
], ids=["predict-data-bytes", "train-data-bytes", "predict-tree-bytes", "train-schema-bytes",
        "train-long-cell", "predict-long-quoted-cell"])
def test_bad_input_files_are_clean_errors(tmp_path, capsys, command, bad_file, content, message):
    paths = {"data": tmp_path / "step.csv", "tree": tmp_path / "tree.json", "schema": tmp_path / "schema.json"}
    write_step_csv(paths["data"])
    paths["schema"].write_text('{"target": "y"}')
    assert main(["train", "--data", str(paths["data"]), "--target", "y", "--depth", "1",
                 "--dump-tree", str(paths["tree"])]) == 0
    capsys.readouterr()
    paths[bad_file].write_bytes(content)
    if command == "train":
        argv = ["train", "--data", str(paths["data"]), "--schema", str(paths["schema"])]
    else:
        argv = ["predict", "--tree", str(paths["tree"]), "--data", str(paths["data"]),
                "--out", str(tmp_path / "p.csv")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{paths[bad_file]}: " in err and message in err


def test_predict_with_malformed_tree_is_a_clean_error(tmp_path, capsys):
    data = tmp_path / "step.csv"
    write_step_csv(data)
    tree_path = tmp_path / "tree.json"
    assert main(["train", "--data", str(data), "--target", "y", "--depth", "1",
                 "--dump-tree", str(tree_path)]) == 0
    doc = json.loads(tree_path.read_text())
    doc["loss"] = []
    tree_path.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main(["predict", "--tree", str(tree_path), "--data", str(data), "--out", str(tmp_path / "p.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_predict_with_too_deep_tree_is_a_clean_error(tmp_path, capsys):
    data = tmp_path / "x.csv"
    data.write_text("x\n0.5\n")
    tree_path = tmp_path / "tree.json"
    tree_path.write_text(serialize(middle_chain_tree(1500)))
    rc = main(["predict", "--tree", str(tree_path), "--data", str(data), "--out", str(tmp_path / "p.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "error: document nested too deeply\n"


def test_predict_keeps_blank_lines_of_one_column_files(tmp_path, capsys):
    data = tmp_path / "step.csv"
    write_step_csv(data)
    tree_path = tmp_path / "tree.json"
    assert main(["train", "--data", str(data), "--target", "y", "--strategy", "trinary",
                 "--depth", "1", "--min-samples", "2", "--dump-tree", str(tree_path)]) == 0
    outputs = []
    for name, text in (("blank", "x\n0.2\n\n0.9\n"), ("na", "x\n0.2\nNA\n0.9\n")):
        newdata, out = tmp_path / f"{name}.csv", tmp_path / f"{name}_preds.csv"
        newdata.write_text(text)
        assert main(["predict", "--tree", str(tree_path), "--data", str(newdata), "--out", str(out)]) == 0
        assert "wrote 3 predictions" in capsys.readouterr().out
        outputs.append(out.read_bytes())
    # the blank line is one missing x, scored like an explicit NA
    assert outputs[0] == outputs[1]


def test_bad_arguments_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--data", "x.csv"])  # --out and target missing
    assert exc.value.code == 2
    capsys.readouterr()


def test_bias_subcommand(tmp_path, capsys):
    out = tmp_path / "bias.csv"
    rc = main(["bias", "--n", "80", "--reps", "60", "--seed", "3", "--out", str(out)])
    assert rc == 0
    shown = capsys.readouterr().out
    assert "majority" in shown and "trinary" in shown
    lines = out.read_text().splitlines()
    assert lines[0] == "strategy,mean_a_hat,se,kappa_hat,bound"
    assert len(lines) == 5


def test_module_entry_point(tmp_path):
    # one subprocess smoke check of python -m nantree
    out = tmp_path / "bias.csv"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "nantree", "bias",
         "--n", "50", "--reps", "30", "--seed", "1", "--out", str(out)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
