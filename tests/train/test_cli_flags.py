"""CLI flag normalization across the training-capable subcommands.

``repro pretrain|finetune|transfer`` must spell and default the shared
training flags identically (``--checkpoint --resume --telemetry
--run-root --prefetch --workers``); ``serve``, ``swap`` and the
experiment subcommands share the ``--telemetry``/``--run-root`` pair,
and ``table3`` the ``--checkpoint``/``--resume`` pair.  Plus an
end-to-end smoke of the ``pretrain`` subcommand, including ``--workers
2`` and ``--history-json``, and of ``--telemetry`` on every training
subcommand.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.telemetry import Run, list_runs

from ..helpers import set_checkpoint_format_version

TRAINING_COMMANDS = ("pretrain", "finetune", "transfer")
SHARED_FLAGS = ("--checkpoint", "--resume", "--telemetry", "--run-root",
                "--prefetch", "--workers")


def _subparsers() -> dict:
    parser = build_parser()
    action, = [a for a in parser._actions
               if hasattr(a, "choices") and a.choices]
    return dict(action.choices)


def _flag_signature(subparser, flag: str) -> tuple:
    action = subparser._option_string_actions[flag]
    return (action.type, action.default, action.nargs, action.const,
            type(action).__name__)


class TestFlagParity:
    def test_training_commands_share_the_flag_set(self):
        commands = _subparsers()
        for flag in SHARED_FLAGS:
            signatures = {name: _flag_signature(commands[name], flag)
                          for name in TRAINING_COMMANDS}
            distinct = set(signatures.values())
            assert len(distinct) == 1, (
                f"{flag} is spelled/defaulted differently across "
                f"{signatures}")

    def test_serve_shares_telemetry_and_run_root(self):
        commands = _subparsers()
        for name in ("serve", "swap", "table3"):
            for flag in ("--telemetry", "--run-root"):
                assert _flag_signature(commands[name], flag) == \
                    _flag_signature(commands["pretrain"], flag), (name, flag)

    def test_table3_shares_checkpoint_and_resume(self):
        commands = _subparsers()
        for flag in ("--checkpoint", "--resume"):
            assert _flag_signature(commands["table3"], flag) == \
                _flag_signature(commands["pretrain"], flag)

    def test_workers_defaults_to_single_process(self):
        commands = _subparsers()
        for name in TRAINING_COMMANDS:
            action = commands[name]._option_string_actions["--workers"]
            assert action.default == 1
            assert action.type is int

    def test_runs_resume_honors_meta_by_default(self):
        commands = _subparsers()
        resume_sub, = [a for a in commands["runs"]._actions
                       if hasattr(a, "choices") and a.choices]
        resume = dict(resume_sub.choices)["resume"]
        assert resume._option_string_actions["--workers"].default is None


class TestPretrainCommand:
    def test_requires_exactly_one_data_source(self, capsys):
        assert main(["pretrain"]) == 1
        assert "exactly one of --data or --synthetic" in \
            capsys.readouterr().err

    def test_synthetic_smoke_with_history_json(self, tmp_path):
        history = tmp_path / "h.json"
        code = main(["pretrain", "--synthetic", "32", "--seq-len", "16",
                     "--channels", "2", "--patch-len", "4", "--d-model", "8",
                     "--num-heads", "2", "--num-layers", "1",
                     "--epochs", "1", "--batch-size", "16",
                     "--history-json", str(history)])
        assert code == 0
        payload = json.loads(history.read_text())
        assert payload["world_size"] == 1
        assert len(payload["history"]) == 1

    def test_two_worker_smoke_matches_single_process(self, tmp_path):
        # The CI smoke in miniature: a contrastive-free (row-separable)
        # config pre-trained with --workers 2 must match the single
        # process loss history within reassociation tolerance.
        base = ["pretrain", "--synthetic", "48", "--seq-len", "16",
                "--channels", "2", "--patch-len", "4", "--d-model", "8",
                "--num-heads", "2", "--num-layers", "1", "--epochs", "2",
                "--batch-size", "8", "--dropout", "0.0", "--no-contrastive"]
        single, double = tmp_path / "w1.json", tmp_path / "w2.json"
        assert main([*base, "--history-json", str(single)]) == 0
        assert main([*base, "--workers", "2",
                     "--history-json", str(double)]) == 0
        h1 = json.loads(single.read_text())
        h2 = json.loads(double.read_text())
        assert h2["world_size"] == 2
        for a, b in zip(h1["history"], h2["history"]):
            assert a["total"] == pytest.approx(b["total"], rel=1e-5)


# Smallest runs of each training subcommand; the epoch records the run
# must hold (a key every record has, and how many: transfer pre-trains
# twice into one run).
TELEMETRY_RUNS = {
    "pretrain": (["--synthetic", "32", "--seq-len", "16", "--channels", "2",
                  "--patch-len", "4", "--d-model", "8", "--num-heads", "2",
                  "--num-layers", "1", "--batch-size", "16"], "total", 2),
    "finetune": (["--dataset", "ETTh1", "--scale", "smoke"], "total", 2),
    "transfer": (["--source", "ETTh1", "--target", "ETTh2",
                  "--scale", "smoke"], "total", 4),
}


class TestTelemetryFlag:
    @pytest.mark.parametrize("command", TRAINING_COMMANDS)
    def test_records_one_completed_run(self, tmp_path, command):
        flags, key, records = TELEMETRY_RUNS[command]
        root = tmp_path / "runs"
        assert main([command, *flags, "--epochs", "2", "--telemetry",
                     "--run-root", str(root)]) == 0
        runs = list_runs(root)
        assert [run["status"] for run in runs] == ["completed"]
        epochs = Run.load(runs[0]["directory"]).epoch_metrics
        assert len(epochs) == records
        assert all(key in record for record in epochs)

    @pytest.mark.parametrize("command", TRAINING_COMMANDS)
    def test_prints_the_recorded_run_id(self, tmp_path, capsys, command):
        flags, __, __ = TELEMETRY_RUNS[command]
        root = tmp_path / "runs"
        assert main([command, *flags, "--epochs", "1", "--telemetry",
                     "--run-root", str(root)]) == 0
        printed = [line.split()[2] for line in
                   capsys.readouterr().out.splitlines()
                   if line.startswith("recorded run ")]
        assert len(printed) == 1
        assert (root / printed[0]).is_dir()


class TestResumeWithoutCheckpoint:
    @pytest.mark.parametrize("command", TRAINING_COMMANDS)
    def test_fails_before_training(self, tmp_path, capsys, command):
        # A run this call created would have an empty checkpoint
        # directory, so --resume alone could never find a checkpoint: the
        # call is rejected before it records a (crashed) run.
        flags, __, __ = TELEMETRY_RUNS[command]
        root = tmp_path / "runs"
        assert main([command, *flags, "--epochs", "1", "--telemetry",
                     "--run-root", str(root), "--resume"]) == 1
        error = capsys.readouterr().err
        assert "nothing to resume" in error
        assert "--checkpoint DIR" in error
        assert "repro runs resume RUN_ID" in error
        assert "Traceback" not in error
        assert list_runs(root) == []
        assert main(["runs", "list", "--root", str(root)]) == 0
        assert "no runs under" in capsys.readouterr().out

    def test_experiment_fails_before_creating_a_run(self, tmp_path, capsys):
        root = tmp_path / "runs"
        assert main(["table3", "--datasets", "ETTh1", "--scale", "smoke",
                     "--telemetry", "--run-root", str(root),
                     "--resume"]) == 1
        assert "nothing to resume" in capsys.readouterr().err
        assert list_runs(root) == []


class TestResumeOverOtherFormatVersion:
    def test_refused_with_the_version(self, tmp_path, capsys):
        """``--resume`` over checkpoints of another format version exits
        1 naming the version; it neither trains from step 0 nor writes
        a checkpoint beside the old ones."""
        flags, __, __ = TELEMETRY_RUNS["pretrain"]
        directory = tmp_path / "ckpts"
        assert main(["pretrain", *flags, "--epochs", "1",
                     "--checkpoint", str(directory)]) == 0
        archives = sorted(directory.glob("ckpt-*.npz"))
        assert archives
        for archive in archives:
            set_checkpoint_format_version(archive, 1)
        capsys.readouterr()
        assert main(["pretrain", *flags, "--epochs", "2",
                     "--checkpoint", str(directory), "--resume"]) == 1
        error = capsys.readouterr().err
        assert "format version 1" in error
        assert "Traceback" not in error
        assert sorted(directory.glob("ckpt-*.npz")) == archives
        assert main(["runs", "resume", str(directory)]) == 1
        assert "format version 1" in capsys.readouterr().err
