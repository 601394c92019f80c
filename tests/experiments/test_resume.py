"""Checkpoint/resume: a SIGKILL'd sweep finishes bitwise-identically.

The engine's ``REPRO_EXPERIMENTS_KILL_AFTER=<n>`` hook SIGKILLs the
process right after the n-th cell hits the journal, so the interruption
point is deterministic -- no timers to race.
"""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

from repro.experiments import run_spec, spec_from_dict
from repro.experiments.engine import journal_path

SRC = str(Path(__file__).parents[2] / "src")

DOC = {
    "experiment": {"name": "resumetest", "title": "resume unit sweep", "seed": 11},
    "axes": {
        "device": ["quadro6000"],
        "op": ["qr", "lu"],
        "size": [4, 8],
        "precision": ["float32"],
        "approach": ["cpu"],
    },
    "policy": {"batch": 8},
}

CHILD = """
import sys
sys.path.insert(0, {src!r})
from repro.experiments import load_spec, run_spec

run_spec(load_spec({spec!r}), {out!r}, cache_dir={cache!r})
"""


def interrupted_run(tmp_path, kill_after, out_name="killed"):
    spec_file = tmp_path / "resumetest.json"
    spec_file.write_text(json.dumps(DOC))
    out_dir = tmp_path / out_name
    env = dict(os.environ)
    env["REPRO_EXPERIMENTS_KILL_AFTER"] = str(kill_after)
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            CHILD.format(
                src=SRC,
                spec=str(spec_file),
                out=str(out_dir),
                cache=str(tmp_path / "cache"),
            ),
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == -signal.SIGKILL, proc.stderr
    return out_dir


class TestSigkillResume:
    def test_journal_survives_the_kill(self, tmp_path):
        out_dir = interrupted_run(tmp_path, kill_after=2)
        journal = journal_path(out_dir)
        assert journal.exists()
        entries = [
            json.loads(line) for line in journal.read_text().splitlines() if line
        ]
        assert len(entries) == 2
        assert not (out_dir / "matrix.json").exists()

    def test_resume_completes_bitwise_identically(self, tmp_path):
        out_dir = interrupted_run(tmp_path, kill_after=2)
        spec = spec_from_dict(DOC)

        resumed = run_spec(spec, out_dir, cache_dir=tmp_path / "cache")
        assert resumed.resumed and resumed.ok
        assert not journal_path(out_dir).exists()

        fresh = run_spec(spec, tmp_path / "fresh", cache_dir=tmp_path / "cache")
        assert resumed.matrix_path.read_bytes() == fresh.matrix_path.read_bytes()

    def test_resume_skips_journaled_cells(self, tmp_path):
        out_dir = interrupted_run(tmp_path, kill_after=3)
        seen = []
        run_spec(
            spec_from_dict(DOC),
            out_dir,
            cache_dir=tmp_path / "cache",
            echo=seen.append,
        )
        # 3 of 4 cells restored: one "resuming" line plus the last cell.
        assert any("resuming: 3/4" in line for line in seen)
        executed = [line for line in seen if line.startswith("[")]
        assert len(executed) == 1

    def test_plan_change_discards_the_journal(self, tmp_path):
        out_dir = interrupted_run(tmp_path, kill_after=2)
        changed = json.loads(json.dumps(DOC))
        changed["experiment"]["seed"] = 12  # different operands -> new plan
        seen = []
        result = run_spec(
            spec_from_dict(changed),
            out_dir,
            cache_dir=tmp_path / "cache",
            echo=seen.append,
        )
        assert not result.resumed and result.ok
        assert not any("resuming" in line for line in seen)

    def test_no_resume_flag_reruns_from_scratch(self, tmp_path):
        out_dir = interrupted_run(tmp_path, kill_after=2)
        result = run_spec(
            spec_from_dict(DOC),
            out_dir,
            cache_dir=tmp_path / "cache",
            resume=False,
        )
        assert not result.resumed and result.ok

    def test_corrupt_journal_tail_tolerated(self, tmp_path):
        out_dir = interrupted_run(tmp_path, kill_after=2)
        journal = journal_path(out_dir)
        with journal.open("a") as fh:
            fh.write('{"fingerprint": "trunc')  # torn final write
        result = run_spec(
            spec_from_dict(DOC), out_dir, cache_dir=tmp_path / "cache"
        )
        assert result.resumed and result.ok
        fresh = run_spec(
            spec_from_dict(DOC), tmp_path / "fresh", cache_dir=tmp_path / "cache"
        )
        assert result.matrix_path.read_bytes() == fresh.matrix_path.read_bytes()

    def test_torn_line_mid_journal_keeps_the_cells_after_it(self, tmp_path):
        # A torn line is skipped, not taken for the journal's end: every
        # whole cell after it is restored, and the matrix is unchanged.
        fresh = run_spec(
            spec_from_dict(DOC), tmp_path / "fresh", cache_dir=tmp_path / "cache"
        )
        lines = [
            json.dumps(
                {
                    "fingerprint": fresh.fingerprint,
                    "record": record.to_dict(),
                    "wall_s": record.wall_s,
                },
                sort_keys=True,
            )
            for record in fresh.records
        ]
        lines.insert(1, '{"fingerprint": "trunc')
        out_dir = tmp_path / "torn"
        out_dir.mkdir()
        journal_path(out_dir).write_text("\n".join(lines) + "\n")
        result = run_spec(spec_from_dict(DOC), out_dir, cache_dir=tmp_path / "cache")
        assert result.resumed == len(fresh.records)
        assert result.matrix_path.read_bytes() == fresh.matrix_path.read_bytes()
