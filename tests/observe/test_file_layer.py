"""The file layer: one record appender and reader for every JSONL file,
and no other module that appends to, fsyncs or renames files."""

import ast
import os
import types
from pathlib import Path

import pytest

from repro.experiments.engine import _read_journal
from repro.observe.export import append_record
from repro.observe.history import RunHistory
from repro.observe.log import StructuredLogger, read_log

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
FILE_LAYER = SRC / "observe" / "export.py"


def _history(path):
    def write(i):
        RunHistory(path).append({"run": i})

    return write, lambda: [r["run"] for r in RunHistory(path).load()]


def _log(path):
    def write(i):
        StructuredLogger(path).log("tick", i=i)

    return write, lambda: [r["fields"]["i"] for r in read_log(path)]


def _journal(path):
    def write(i):
        doc = {"fingerprint": "plan", "record": {"id": str(i)}, "wall_s": 0.0}
        append_record(path, doc, durable=True)

    return write, lambda: sorted(int(cell) for cell in _read_journal(path, "plan"))


@pytest.mark.parametrize("kind", [_history, _log, _journal])
def test_every_whole_record_reads_back_after_a_torn_line(tmp_path, kind):
    path = tmp_path / "missing-dir" / "records.jsonl"  # the first append makes it
    write, read = kind(path)
    for i in range(5):
        write(i)
        if i == 1:
            # A writer killed mid-record, then more appends after it.
            with path.open("a") as fh:
                fh.write('{"schema": 1, "fingerprint": "plan", "rec\n')
    assert read() == [0, 1, 2, 3, 4]


def test_a_short_write_raises_instead_of_leaving_a_torn_record(
    tmp_path, monkeypatch
):
    from repro.observe import export

    short = types.SimpleNamespace(**vars(os))
    short.write = lambda fd, data: os.write(fd, data[:-1])  # a full disk
    monkeypatch.setattr(export, "os", short)
    with pytest.raises(OSError, match="short write"):
        append_record(tmp_path / "records.jsonl", {"run": 0}, durable=True)


def _file_calls(tree):
    """(line, what) for each append, fsync or rename in a module's AST."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and (
            (isinstance(node.value, ast.Name) and node.value.id == "os")
            and node.attr in ("replace", "rename", "fsync", "O_APPEND")
        ):
            found.append((node.lineno, f"os.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            for alias in node.names:
                if alias.name in ("replace", "rename", "fsync", "O_APPEND"):
                    found.append((node.lineno, f"from os import {alias.name}"))
        elif isinstance(node, ast.Call) and (
            (isinstance(node.func, ast.Name) and node.func.id == "open")
            or (isinstance(node.func, ast.Attribute) and node.func.attr == "open")
        ):
            modes = list(node.args[:2]) + [
                kw.value for kw in node.keywords if kw.arg == "mode"
            ]
            for mode in modes:
                if (
                    isinstance(mode, ast.Constant)
                    and isinstance(mode.value, str)
                    and "a" in mode.value
                    and set(mode.value) <= set("rwxabt+")
                ):
                    found.append((node.lineno, f"open(..., {mode.value!r})"))
    return found


def test_only_the_file_layer_appends_fsyncs_or_renames():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path == FILE_LAYER:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for line, what in _file_calls(tree):
            offenders.append(f"{path.relative_to(SRC)}:{line}: {what}")
    assert not offenders, "route these through repro.observe.export:\n" + "\n".join(
        offenders
    )
    # The guard sees what it guards against.
    assert {what for _, what in _file_calls(ast.parse(FILE_LAYER.read_text()))} >= {
        "os.replace",
        "os.fsync",
        "os.O_APPEND",
    }
    sample = ast.parse('open(p, "a")\nPath(p).open(mode="ab")\n')
    assert len(_file_calls(sample)) == 2
