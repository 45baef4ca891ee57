"""End-to-end tests of the command-line interface.

Commands run in process through ``cli_main`` so exit codes, stdout, and
stderr are all observable.  The pipeline tests drive the real artifacts:
train writes a model and vocabulary, classify consumes them, check reads
recorded tracker fixtures, and report renders the check output.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import onhold
from onhold import datasetio, learn, ngrams, tracker
from onhold.cli import cli_main, load_project_config
from onhold.errors import ConfigError
from onhold.issues import TrackerKind
from onhold.learn import Label

from conftest import FIXTURE_DIR

ON_HOLD_TEXTS = [
    "TODO remove this workaround after HADOOP-101 is fixed",
    "remove this workaround after HADOOP-102 is fixed",
    "disable until HADOOP-103 is fixed upstream",
    "waiting for HADOOP-104 before enabling this path",
    "temporary hack until HADOOP-105 is fixed",
    "TODO remove this hack when HADOOP-106 is resolved",
    "remove this once HADOOP-107 lands",
    "waiting until HADOOP-108 is fixed to remove this",
]

CROSS_TEXTS = [
    "see HADOOP-201 for background",
    "see HADOOP-202 for details on this format",
    "this mirrors the parser described in HADOOP-203",
    "test for HADOOP-204",
    "added for HADOOP-205 compatibility",
    "the algorithm follows HADOOP-206",
    "format documented in HADOOP-207",
    "see the discussion in HADOOP-208",
]


@pytest.fixture
def dataset_path(tmp_path) -> Path:
    rows = []
    for i, text in enumerate(ON_HOLD_TEXTS):
        rows.append(
            datasetio.DatasetRow(text, f"src/H{i}.java", 10 + i,
                                 f"HADOOP-{101 + i}", Label.ON_HOLD)
        )
    for i, text in enumerate(CROSS_TEXTS):
        rows.append(
            datasetio.DatasetRow(text, f"src/C{i}.java", 10 + i,
                                 f"HADOOP-{201 + i}", Label.CROSS_REFERENCE)
        )
    path = tmp_path / "dataset.tsv"
    datasetio.save_dataset(rows, path)
    return path


def read_table(path: Path):
    header, numbered = datasetio.load_table(path)
    return header, [fields for _, fields in numbered]


class TestExitCodes:
    def test_no_arguments_prints_usage(self, capsys):
        assert cli_main([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert cli_main(["frobnicate"]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert cli_main(["detect", "--dump-patterns", "--bogus"]) == 1
        assert "error" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert cli_main(["--help"]) == 0
        assert "usage" in capsys.readouterr().out

    def test_module_runs_as_a_script(self, tmp_path):
        (tmp_path / "r.json").write_text(
            '{"schema_version": 1, "total": 0, "ready_count": 0, "findings": []}',
            encoding="utf-8",
        )
        env = dict(os.environ, PYTHONPATH=str(Path(onhold.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "onhold.cli", "report", "--input", "r.json"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("# On-hold comment check report")

    def test_missing_input_file_is_a_user_error(self, tmp_path, capsys):
        code = cli_main(
            ["train", "--dataset", str(tmp_path / "absent.tsv"),
             "--model", str(tmp_path / "m.json"), "--vocab", str(tmp_path / "v.tsv")]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_malformed_json_report_input(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert cli_main(["report", "--input", str(bad)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload",
        [
            "[]",
            '{"schema_version": 1, "findings": 3}',
            '{"schema_version": 1, "findings": ["x"]}',
            '{"schema_version": 1, "findings": [{"introduced_date": 5}]}',
        ],
        ids=["list", "findings-not-a-list", "finding-not-an-object", "date-not-a-string"],
    )
    def test_report_input_of_the_wrong_shape(self, tmp_path, capsys, payload):
        bad = tmp_path / "bad.json"
        bad.write_text(payload, encoding="utf-8")
        assert cli_main(["report", "--input", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["mine", "--repo", "absent", "--seed", "1"],
            ["train", "--dataset", "absent.tsv", "--model", "m.json", "--vocab", "v.tsv",
             "--out", "x"],
            ["train", "--dataset", "absent.tsv", "--model", "m.json", "--vocab", "v.tsv",
             "--max-n", "3"],
            ["train", "--dataset", "absent.tsv", "--model", "m.json", "--vocab", "v.tsv",
             "--min-df", "1"],
            ["evaluate", "--dataset", "absent.tsv", "--max-n", "3"],
            ["evaluate", "--dataset", "absent.tsv", "--global-vocab"],
        ],
        ids=["mine-seed", "train-out", "train-max-n", "train-min-df", "evaluate-max-n",
             "evaluate-global-vocab"],
    )
    def test_options_that_nothing_reads_are_rejected(self, tmp_path, monkeypatch, capsys,
                                                     argv):
        monkeypatch.chdir(tmp_path)
        assert cli_main(argv) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_auth_failure_is_an_environment_error(self, tmp_path, capsys):
        fixtures = tmp_path / "fixtures"
        fixtures.mkdir()
        (fixtures / "jira_HADOOP-1.json").write_text(
            json.dumps({"_http_status": 401}), encoding="utf-8"
        )
        table = datasetio.format_table(
            ("comment_text", "issue_key", "label"),
            [["remove after HADOOP-1 is fixed", "HADOOP-1", "OnHold"]],
        )
        source = tmp_path / "comments.tsv"
        source.write_text(table, encoding="utf-8")
        code = cli_main(
            ["check", "--input", str(source), "--fixtures", str(fixtures),
             "--out", str(tmp_path / "check.json")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "environment error" in err
        assert "ITS_JIRA_TOKEN" in err


class TestProjectConfig:
    def test_loads_all_fields(self, tmp_path):
        path = tmp_path / "project.json"
        path.write_text(
            json.dumps(
                {
                    "repo_path": "/srv/repo",
                    "branch": "trunk",
                    "tracker": "jira",
                    "project_key": "HADOOP",
                    "base_url": "https://issues.example.org",
                    "cache_dir": "/tmp/cache",
                }
            ),
            encoding="utf-8",
        )
        config = load_project_config(path)
        assert config.repo_path == "/srv/repo"
        assert config.branch == "trunk"
        assert config.tracker is TrackerKind.JIRA
        assert config.project_key == "HADOOP"

    def test_defaults(self, tmp_path):
        path = tmp_path / "project.json"
        path.write_text("{}", encoding="utf-8")
        config = load_project_config(path)
        assert config.branch == "HEAD"
        assert config.tracker is None

    @pytest.mark.parametrize(
        "key", ["api_token", "jira_token", "secret", "password", "apiKey"]
    )
    def test_secret_looking_keys_are_refused(self, tmp_path, key):
        path = tmp_path / "project.json"
        path.write_text(json.dumps({key: "hunter2"}), encoding="utf-8")
        with pytest.raises(ConfigError) as excinfo:
            load_project_config(path)
        message = str(excinfo.value)
        assert "ITS_GITHUB_TOKEN" in message
        assert "ITS_JIRA_TOKEN" in message
        assert "ITS_BUGZILLA_TOKEN" in message

    def test_secret_key_exits_one_via_cli(self, tmp_path, capsys):
        path = tmp_path / "project.json"
        path.write_text(json.dumps({"api_token": "x"}), encoding="utf-8")
        code = cli_main(["mine", "--repo", "ignored", "--config", str(path)])
        assert code == 1
        assert "ITS_JIRA_TOKEN" in capsys.readouterr().err

    def test_unknown_key_is_rejected(self, tmp_path):
        path = tmp_path / "project.json"
        path.write_text(json.dumps({"colour": "blue"}), encoding="utf-8")
        with pytest.raises(ConfigError, match="colour"):
            load_project_config(path)

    def test_invalid_json_is_rejected(self, tmp_path):
        path = tmp_path / "project.json"
        path.write_text("{", encoding="utf-8")
        with pytest.raises(ConfigError, match="JSON"):
            load_project_config(path)


class TestDetect:
    def test_dump_patterns_lists_every_rule(self, capsys):
        assert cli_main(["detect", "--dump-patterns"]) == 0
        out = capsys.readouterr().out
        assert "[bugzilla]" in out
        assert "[github]" in out
        assert "detect\t" in out

    def test_detect_finds_references(self, tmp_path, capsys):
        table = datasetio.format_table(
            ("comment_text", "file_path", "line_number"),
            [
                ["see Bug 34383 for the root cause", "A.java", "3"],
                ["nothing to see here", "B.java", "9"],
            ],
        )
        source = tmp_path / "comments.tsv"
        source.write_text(table, encoding="utf-8")
        out = tmp_path / "refs.tsv"
        assert cli_main(["detect", "--input", str(source), "--out", str(out)]) == 0
        header, rows = read_table(out)
        assert header == [
            "row", "file_path", "line_number", "issue_key", "tracker",
            "matched_text", "char_start", "char_end",
        ]
        assert rows == [["2", "A.java", "3", "34383", "bugzilla", "Bug 34383", "4", "13"]]

    def test_detect_without_input_is_a_usage_error(self, capsys):
        assert cli_main(["detect"]) == 1
        assert "--input" in capsys.readouterr().err

    def test_jira_patterns_need_a_project(self, capsys):
        assert cli_main(["detect", "--dump-patterns", "--tracker", "jira"]) == 1
        assert "project" in capsys.readouterr().err.lower()


class TestPipeline:
    def train(self, dataset_path, tmp_path, *extra):
        model = tmp_path / "model.json"
        vocab = tmp_path / "vocab.tsv"
        code = cli_main(
            ["train", "--dataset", str(dataset_path), "--model", str(model),
             "--vocab", str(vocab), "--algorithm", "NaiveBayes", "--seed", "0",
             *extra]
        )
        assert code == 0
        return model, vocab

    def test_train_writes_model_and_vocabulary(self, dataset_path, tmp_path, capsys):
        model, vocab = self.train(dataset_path, tmp_path)
        assert model.exists()
        assert vocab.exists()
        err = capsys.readouterr().err
        assert "trained NaiveBayes" in err
        assert "16 comments" in err

    def test_classify_appends_prediction_columns(self, dataset_path, tmp_path):
        model, vocab = self.train(dataset_path, tmp_path)
        out = tmp_path / "predictions.tsv"
        code = cli_main(
            ["classify", "--model", str(model), "--vocab", str(vocab),
             "--input", str(dataset_path), "--out", str(out)]
        )
        assert code == 0
        header, rows = read_table(out)
        assert header[-2:] == ["predicted_label", "score"]
        assert len(rows) == 16
        predicted = {fields[0]: fields[-2] for fields in rows}
        assert predicted["remove this workaround after HADOOP-102 is fixed"] == "OnHold"
        assert predicted["see HADOOP-201 for background"] == "CrossReference"

    def test_train_stamps_the_vocabulary_digest(self, dataset_path, tmp_path):
        model, vocab = self.train(dataset_path, tmp_path, "--algorithm", "auto")
        expected = learn.vocabulary_digest(ngrams.load_vocabulary(vocab))
        assert learn.load_model(model).vocabulary_hash == expected

    def test_classify_rejects_a_mismatched_vocabulary(self, dataset_path, tmp_path, capsys):
        model, _ = self.train(dataset_path, tmp_path)
        other_dir = tmp_path / "other"
        other_dir.mkdir()
        _, other_vocab = self.train(dataset_path, other_dir, "--bow")
        code = cli_main(
            ["classify", "--model", str(model), "--vocab", str(other_vocab),
             "--input", str(dataset_path), "--out", str(tmp_path / "p.tsv")]
        )
        assert code == 1
        assert "vocabulary" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda payload: payload.pop("state"),
            lambda payload: payload.update(state={}),
            lambda payload: payload["state"].update(log_p1=[[0.0], [0.0]]),
            lambda payload: payload.update(version=2),
            lambda payload: payload.update(decision_threshold=float("nan")),
            lambda payload: payload.update(decision_threshold=2.0),
        ],
        ids=["no-state", "empty-state", "wrong-shape", "version", "nan-threshold",
             "threshold-above-one"],
    )
    def test_malformed_model_file_is_a_user_error(
        self, dataset_path, tmp_path, capsys, corrupt
    ):
        model, vocab = self.train(dataset_path, tmp_path)
        payload = json.loads(model.read_text(encoding="utf-8"))
        corrupt(payload)
        model.write_text(json.dumps(payload), encoding="utf-8")
        capsys.readouterr()
        code = cli_main(
            ["classify", "--model", str(model), "--vocab", str(vocab),
             "--input", str(dataset_path), "--out", str(tmp_path / "p.tsv")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model}")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "text",
        ["a\t2\n", "a\t2\tmany\n", "a\t2\t1.0\na\t3\t2.0\n"],
        ids=["short-line", "bad-weight", "duplicate-term"],
    )
    def test_malformed_vocabulary_file_is_a_user_error(
        self, dataset_path, tmp_path, capsys, text
    ):
        model, vocab = self.train(dataset_path, tmp_path)
        vocab.write_text(text, encoding="utf-8")
        capsys.readouterr()
        code = cli_main(
            ["classify", "--model", str(model), "--vocab", str(vocab),
             "--input", str(dataset_path), "--out", str(tmp_path / "p.tsv")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {vocab}")
        assert "Traceback" not in err

    def test_malformed_lemma_table_is_a_user_error(self, dataset_path, tmp_path, capsys):
        table = tmp_path / "lemmas.tsv"
        table.write_text("foo\tbar\nbroken line\n", encoding="utf-8")
        code = cli_main(
            ["train", "--dataset", str(dataset_path), "--model", str(tmp_path / "m.json"),
             "--vocab", str(tmp_path / "v.tsv"), "--lemma-table", str(table)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {table}:2: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["detect", "classify", "check"])
    def test_input_without_comment_text_is_a_user_error(
        self, dataset_path, tmp_path, capsys, command
    ):
        source = tmp_path / "no-text.tsv"
        source.write_text(
            datasetio.format_table(("issue_key", "label"), [["HADOOP-1", "OnHold"]]),
            encoding="utf-8",
        )
        argv = [command, "--input", str(source), "--out", str(tmp_path / "out")]
        if command == "classify":
            model, vocab = self.train(dataset_path, tmp_path)
            argv += ["--model", str(model), "--vocab", str(vocab)]
        capsys.readouterr()
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: {source}: missing required columns: comment_text\n"

    @pytest.mark.parametrize(
        "answer",
        [[1], {"fields": {"status": {"name": "Resolved"}, "resolutiondate": "soon"}}],
        ids=["not-an-object", "bad-date"],
    )
    def test_check_skips_an_issue_whose_answer_has_the_wrong_shape(
        self, tmp_path, caplog, answer
    ):
        fixtures = tmp_path / "fixtures"
        fixtures.mkdir()
        (fixtures / "jira_HADOOP-1.json").write_text(json.dumps(answer), encoding="utf-8")
        (fixtures / "jira_HADOOP-6223.json").write_text(
            (FIXTURE_DIR / "jira_HADOOP-6223.json").read_text(encoding="utf-8"),
            encoding="utf-8",
        )
        table = datasetio.format_table(
            ("comment_text", "issue_key", "label"),
            [["remove after HADOOP-1 is fixed", "HADOOP-1", "OnHold"],
             ["remove after HADOOP-6223 is fixed", "HADOOP-6223", "OnHold"]],
        )
        source = tmp_path / "comments.tsv"
        source.write_text(table, encoding="utf-8")
        out = tmp_path / "check.json"
        code = cli_main(
            ["check", "--input", str(source), "--fixtures", str(fixtures),
             "--cache-dir", str(tmp_path / "cache"), "--out", str(out)]
        )
        assert code == 0
        findings = json.loads(out.read_text(encoding="utf-8"))["findings"]
        assert [f["issue_key"] for f in findings] == ["HADOOP-6223"]
        assert "skipping issue HADOOP-1: jira issue HADOOP-1: malformed response" in caplog.text
        (cache_file,) = (tmp_path / "cache").iterdir()
        assert list(json.loads(cache_file.read_text(encoding="utf-8"))) == ["HADOOP-6223"]

    def check_input(self, tmp_path) -> Path:
        table = datasetio.format_table(
            ("comment_text", "file_path", "line_number", "issue_key", "label",
             "introduced_commit", "introduced_date", "removed_commit",
             "removed_date"),
            [
                ["remove this workaround after HADOOP-6223 is fixed",
                 "src/A.java", "10", "HADOOP-6223", "OnHold",
                 "abcdef012345", "2019-07-01T09:30:00Z", "", ""],
                ["see HADOOP-6223 for details", "src/B.java", "5",
                 "HADOOP-6223", "CrossReference", "abcdef012345",
                 "2019-07-01T09:30:00Z", "", ""],
                ["remove after HADOOP-6223", "src/C.java", "3",
                 "HADOOP-6223", "OnHold", "abcdef012345",
                 "2019-01-01T00:00:00Z", "ddd999", "2020-01-01T00:00:00Z"],
            ],
        )
        source = tmp_path / "remaining.tsv"
        source.write_text(table, encoding="utf-8")
        return source

    def test_check_does_not_read_the_raw_text_column(self, tmp_path):
        # No finding reads raw_text, so a cell that is not a comment
        # neither fails its row nor changes the findings.
        outputs = []
        for extra in ((), ("raw_text",)):
            table = datasetio.format_table(
                ("comment_text", "file_path", "issue_key", "label", *extra),
                [["remove after HADOOP-6223", "src/A.java", "HADOOP-6223", "OnHold",
                  *("remove after HADOOP-6223" for _ in extra)]],
            )
            source = tmp_path / "remaining.tsv"
            source.write_text(table, encoding="utf-8")
            out = tmp_path / "check.json"
            code = cli_main(
                ["check", "--input", str(source), "--fixtures", str(FIXTURE_DIR),
                 "--out", str(out)]
            )
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_check_reports_ready_comments_from_fixtures(self, tmp_path, capsys):
        source = self.check_input(tmp_path)
        out = tmp_path / "check.json"
        code = cli_main(
            ["check", "--input", str(source), "--fixtures", str(FIXTURE_DIR),
             "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["total"] == 1
        assert payload["ready_count"] == 1
        (finding,) = payload["findings"]
        assert finding["issue_key"] == "HADOOP-6223"
        assert finding["file_path"] == "src/A.java"
        assert finding["ready"] is True
        assert "1 ready to be removed" in capsys.readouterr().err

    def test_check_pairs_each_row_by_its_issue_key_column(self, tmp_path):
        table = datasetio.format_table(
            ("comment_text", "file_path", "issue_key", "label"),
            [
                ["remove after HADOOP-9999 is fixed", "src/A.java", "HADOOP-6223",
                 "OnHold"],
                ["remove this workaround later", "src/B.java", "HADOOP-6223",
                 "OnHold"],
            ],
        )
        source = tmp_path / "remaining.tsv"
        source.write_text(table, encoding="utf-8")
        out = tmp_path / "check.json"
        code = cli_main(
            ["check", "--input", str(source), "--fixtures", str(FIXTURE_DIR),
             "--tracker", "jira", "--out", str(out)]
        )
        assert code == 0
        findings = json.loads(out.read_text(encoding="utf-8"))["findings"]
        assert [(f["file_path"], f["issue_key"]) for f in findings] == [
            ("src/A.java", "HADOOP-6223"),
            ("src/B.java", "HADOOP-6223"),
        ]

    def test_check_pairs_each_tracker_with_its_own_project(self, tmp_path, monkeypatch):
        requests = []

        def fetch(transport, config, key):
            requests.append((config.tracker.value, config.repo, key))
            if config.tracker is TrackerKind.GITHUB:
                return 200, {"state": "open"}
            return 200, {"fields": {"status": {"name": "Open"}}}

        monkeypatch.setattr(tracker.HttpTransport, "fetch", fetch)
        table = datasetio.format_table(
            ("comment_text", "issue_key", "tracker", "label"),
            [
                ["remove after HADOOP-1", "HADOOP-1", "jira", "OnHold"],
                ["remove after issue 7", "7", "github", "OnHold"],
            ],
        )
        source = tmp_path / "remaining.tsv"
        source.write_text(table, encoding="utf-8")
        code = cli_main(
            ["check", "--input", str(source), "--base-url", "https://issues.example.org",
             "--tracker", "jira", "--project", "HADOOP",
             "--tracker", "github", "--project", "apache/dubbo",
             "--out", str(tmp_path / "check.json")]
        )
        assert code == 0
        assert sorted(requests) == [
            ("github", "apache/dubbo", "7"),
            ("jira", "", "HADOOP-1"),
        ]

    def test_check_asks_each_tracker_its_own_server(self, tmp_path, monkeypatch):
        # Two fixture servers behind requests.get: a Jira one and a Bugzilla one.
        servers = {
            "https://issues.example.org": {
                "/rest/api/2/issue/HADOOP-1": {"fields": {"status": {"name": "Open"}}},
            },
            "https://bugs.example.org": {
                "/rest/bug/7": {"bugs": [{"status": "RESOLVED", "resolution": "FIXED"}]},
            },
        }
        requested = []

        class Response:
            def __init__(self, payload):
                self.status_code = 200 if payload is not None else 404
                self.payload = payload or {}

            def json(self):
                return self.payload

        def get(url, **kwargs):
            requested.append(url)
            server = next(root for root in servers if url.startswith(root + "/"))
            return Response(servers[server].get(url[len(server):]))

        import requests

        monkeypatch.setattr(requests, "get", get)
        table = datasetio.format_table(
            ("comment_text", "file_path", "issue_key", "tracker", "label"),
            [
                ["remove after HADOOP-1", "src/A.java", "HADOOP-1", "jira", "OnHold"],
                ["remove after bug 7", "src/B.java", "7", "bugzilla", "OnHold"],
            ],
        )
        source = tmp_path / "remaining.tsv"
        source.write_text(table, encoding="utf-8")
        out = tmp_path / "check.json"
        code = cli_main(
            ["check", "--input", str(source),
             "--tracker", "jira", "--base-url", "https://issues.example.org",
             "--tracker", "bugzilla", "--base-url", "https://bugs.example.org",
             "--out", str(out)]
        )
        assert code == 0
        assert sorted(requested) == [
            "https://bugs.example.org/rest/bug/7",
            "https://issues.example.org/rest/api/2/issue/HADOOP-1",
        ]
        findings = json.loads(out.read_text(encoding="utf-8"))["findings"]
        assert [(f["issue_key"], f["ready"]) for f in findings] == [
            ("HADOOP-1", False), ("7", True),
        ]

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--base-url", "https://a.org", "--base-url", "https://b.org"],
             "2 --base-url values for 0 --tracker values"),
            (["--tracker", "jira", "--base-url", "https://a.org", "--base-url", "https://b.org"],
             "2 --base-url values for 1 --tracker values"),
            (["--tracker", "jira", "--base-url", "https://a.org",
              "--tracker", "jira", "--base-url", "https://b.org"],
             "jira takes one --base-url"),
        ],
        ids=["no-tracker", "one-tracker", "one-kind-two-servers"],
    )
    def test_check_refuses_base_urls_it_cannot_pair(self, flags, message, tmp_path, capsys):
        source = tmp_path / "remaining.tsv"
        source.write_text(datasetio.format_table(
            ("comment_text", "issue_key", "label"),
            [["remove after HADOOP-1", "HADOOP-1", "OnHold"]],
        ), encoding="utf-8")
        assert cli_main(["check", "--input", str(source), *flags]) == 1
        assert message in capsys.readouterr().err

    def test_check_caches_a_jira_issue_once_whatever_the_project(self, tmp_path, monkeypatch):
        # A Jira request does not depend on --project, so neither does its cache entry.
        requests = []

        def fetch(transport, config, key):
            requests.append(key)
            return 200, {"fields": {"status": {"name": "Open"}}}

        monkeypatch.setattr(tracker.HttpTransport, "fetch", fetch)
        table = datasetio.format_table(
            ("comment_text", "issue_key", "tracker", "label"),
            [["remove after HADOOP-1", "HADOOP-1", "jira", "OnHold"]],
        )
        source = tmp_path / "remaining.tsv"
        source.write_text(table, encoding="utf-8")
        for project in ("HADOOP", "HDFS"):
            code = cli_main(
                ["check", "--input", str(source), "--base-url", "https://issues.example.org",
                 "--cache-dir", str(tmp_path / "cache"), "--tracker", "jira",
                 "--project", project, "--out", str(tmp_path / f"{project}.json")]
            )
            assert code == 0
        assert requests == ["HADOOP-1"]
        assert len(list((tmp_path / "cache").iterdir())) == 1

    def test_check_cold_writes_one_cache_file_per_tracker_and_server(self, tmp_path):
        fixtures = tmp_path / "fixtures"
        fixtures.mkdir()
        rows = []
        for kind, payload in (("github", {"state": "open"}),
                              ("bugzilla", {"bugs": [{"status": "NEW", "resolution": ""}]})):
            for key in ("7", "8", "9"):
                (fixtures / f"{kind}_{key}.json").write_text(json.dumps(payload),
                                                             encoding="utf-8")
                rows.append([f"remove after issue {key}", key, kind, "OnHold"])
        source = tmp_path / "remaining.tsv"
        source.write_text(
            datasetio.format_table(("comment_text", "issue_key", "tracker", "label"), rows),
            encoding="utf-8",
        )
        cache = tmp_path / "cache"
        code = cli_main(
            ["check", "--input", str(source), "--fixtures", str(fixtures),
             "--cache-dir", str(cache), "--out", str(tmp_path / "check.json")]
        )
        assert code == 0
        files = sorted(cache.iterdir())
        assert [path.name.split("_")[0] for path in files] == ["bugzilla", "github"]
        for path in files:
            assert sorted(json.loads(path.read_text(encoding="utf-8"))) == ["7", "8", "9"]

    def test_check_rejects_two_github_repositories(self, tmp_path, capsys):
        fixtures = tmp_path / "fixtures"
        fixtures.mkdir()
        (fixtures / "github_7.json").write_text('{"state": "open"}', encoding="utf-8")
        table = datasetio.format_table(
            ("comment_text", "issue_key", "tracker", "label"),
            [["remove after issue 7", "7", "github", "OnHold"]],
        )
        source = tmp_path / "remaining.tsv"
        source.write_text(table, encoding="utf-8")
        out = tmp_path / "check.json"
        code = cli_main(
            ["check", "--input", str(source), "--fixtures", str(fixtures),
             "--tracker", "github", "--project", "a/x",
             "--tracker", "github", "--project", "b/y", "--out", str(out)]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "github" in err and "Traceback" not in err
        assert not out.exists()

    def test_check_accepts_several_jira_projects(self, tmp_path):
        out = tmp_path / "check.json"
        code = cli_main(
            ["check", "--input", str(self.check_input(tmp_path)), "--fixtures",
             str(FIXTURE_DIR), "--tracker", "jira", "--project", "HADOOP",
             "--tracker", "jira", "--project", "HDFS", "--out", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text(encoding="utf-8"))["findings"]

    def test_check_keeps_equal_keys_of_two_trackers_apart(self, tmp_path):
        fixtures = tmp_path / "fixtures"
        fixtures.mkdir()
        (fixtures / "github_9.json").write_text(
            '{"state": "closed", "closed_at": "2021-03-01T00:00:00Z"}', encoding="utf-8"
        )
        (fixtures / "bugzilla_9.json").write_text(
            '{"bugs": [{"status": "NEW", "resolution": ""}]}', encoding="utf-8"
        )
        table = datasetio.format_table(
            ("comment_text", "file_path", "issue_key", "tracker", "label"),
            [
                ["remove after issue 9", "src/A.java", "9", "github", "OnHold"],
                ["remove after bug 9", "src/B.java", "9", "bugzilla", "OnHold"],
            ],
        )
        source = tmp_path / "remaining.tsv"
        source.write_text(table, encoding="utf-8")
        out = tmp_path / "check.json"
        code = cli_main(
            ["check", "--input", str(source), "--fixtures", str(fixtures),
             "--out", str(out)]
        )
        assert code == 0
        findings = json.loads(out.read_text(encoding="utf-8"))["findings"]
        assert [(f["file_path"], f["tracker"], f["ready"]) for f in findings] == [
            ("src/A.java", "github", True),
            ("src/B.java", "bugzilla", False),
        ]

    @pytest.mark.parametrize("line", ["0", "-3"])
    def test_check_refuses_a_line_number_below_1(self, line, tmp_path, capsys):
        # report refuses a finding whose end_line is below 1, so check
        # must not write one.
        table = datasetio.format_table(
            ("comment_text", "file_path", "line_number", "issue_key", "label"),
            [["remove after HADOOP-6223", "src/A.java", "1", "HADOOP-6223", "OnHold"],
             ["remove after HADOOP-6223", "src/B.java", line, "HADOOP-6223", "OnHold"]],
        )
        source = tmp_path / "remaining.tsv"
        source.write_text(table, encoding="utf-8")
        out = tmp_path / "check.json"
        code = cli_main(
            ["check", "--input", str(source), "--fixtures", str(FIXTURE_DIR),
             "--out", str(out)]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: {source}:3: line number {line} is below 1\n"
        assert not out.exists()

    def test_check_refuses_an_end_line_before_the_line_number(self, tmp_path, capsys):
        # The row's range cannot be mended by guessing which bound is wrong.
        table = datasetio.format_table(
            ("comment_text", "file_path", "line_number", "end_line", "issue_key"),
            [["remove after HADOOP-6223", "src/A.java", "5", "2", "HADOOP-6223"]],
        )
        source = tmp_path / "remaining.tsv"
        source.write_text(table, encoding="utf-8")
        out = tmp_path / "check.json"
        code = cli_main(
            ["check", "--input", str(source), "--fixtures", str(FIXTURE_DIR),
             "--out", str(out)]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: {source}:2: end line 2 is before line number 5\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "column,flags,key,expected",
        [
            ("bugzilla", ["--tracker", "github"], "7", "bugzilla"),
            ("", ["--tracker", "github"], "7", "github"),
            ("", [], "HADOOP-6223", "jira"),
            ("", [], "7", None),
        ],
        ids=["column-beats-flag", "flag", "jira-key", "unknown"],
    )
    def test_check_resolves_each_rows_tracker(self, column, flags, key, expected,
                                               tmp_path, capsys):
        fixtures = tmp_path / "fixtures"
        fixtures.mkdir()
        for name, answer in [("bugzilla_7", '{"bugs": [{"status": "NEW"}]}'),
                             ("github_7", '{"state": "open"}'),
                             ("jira_HADOOP-6223", '{"fields": {"status": {"name": "Open"}}}')]:
            (fixtures / f"{name}.json").write_text(answer, encoding="utf-8")
        table = datasetio.format_table(
            ("comment_text", "issue_key", "tracker", "label"),
            [["remove after issue", key, column, "OnHold"]],
        )
        source = tmp_path / "remaining.tsv"
        source.write_text(table, encoding="utf-8")
        out = tmp_path / "check.json"
        code = cli_main(
            ["check", "--input", str(source), "--fixtures", str(fixtures), *flags,
             "--out", str(out)]
        )
        if expected is None:
            assert code == 1
            assert "cannot tell the tracker for issue '7'" in capsys.readouterr().err
            assert not out.exists()
        else:
            assert code == 0
            (finding,) = json.loads(out.read_text(encoding="utf-8"))["findings"]
            assert finding["tracker"] == expected

    @pytest.mark.parametrize(
        "kind,flag,servers,payloads",
        [
            ("github", "--project", ("a/x", "b/y"),
             ({"state": "closed"}, {"state": "open"})),
            ("bugzilla", "--base-url", ("https://bugs.one.org", "https://bugs.two.org"),
             ({"bugs": [{"status": "RESOLVED", "resolution": "FIXED"}]},
              {"bugs": [{"status": "NEW", "resolution": ""}]})),
        ],
        ids=["project", "base-url"],
    )
    def test_check_cache_keeps_two_servers_apart(self, kind, flag, servers, payloads,
                                                  tmp_path):
        table = datasetio.format_table(
            ("comment_text", "file_path", "issue_key", "tracker", "label"),
            [["remove after issue 7", "src/A.java", "7", kind, "OnHold"]],
        )
        source = tmp_path / "remaining.tsv"
        source.write_text(table, encoding="utf-8")
        ready = []
        for n, (server, payload) in enumerate(zip(servers, payloads)):
            fixtures = tmp_path / f"fixtures-{n}"
            fixtures.mkdir()
            (fixtures / f"{kind}_7.json").write_text(json.dumps(payload), encoding="utf-8")
            out = tmp_path / f"check-{n}.json"
            code = cli_main(
                ["check", "--input", str(source), "--fixtures", str(fixtures),
                 "--cache-dir", str(tmp_path / "cache"), "--tracker", kind, flag, server,
                 "--out", str(out)]
            )
            assert code == 0
            ready.append(json.loads(out.read_text(encoding="utf-8"))["findings"][0]["ready"])
        assert ready == [True, False]

    def test_check_makes_no_network_calls(self, tmp_path, monkeypatch):
        import requests

        def boom(*args, **kwargs):
            raise AssertionError("network call attempted")

        monkeypatch.setattr(requests, "get", boom)
        monkeypatch.setattr(requests, "Session", boom, raising=False)
        source = self.check_input(tmp_path)
        code = cli_main(
            ["check", "--input", str(source), "--fixtures", str(FIXTURE_DIR),
             "--out", str(tmp_path / "check.json")]
        )
        assert code == 0

    def test_report_renders_the_check_output(self, tmp_path):
        source = self.check_input(tmp_path)
        check_out = tmp_path / "check.json"
        assert cli_main(
            ["check", "--input", str(source), "--fixtures", str(FIXTURE_DIR),
             "--out", str(check_out)]
        ) == 0
        report_out = tmp_path / "report.md"
        code = cli_main(
            ["report", "--input", str(check_out), "--format", "markdown",
             "--out", str(report_out)]
        )
        assert code == 0
        text = report_out.read_text(encoding="utf-8")
        assert "HADOOP-6223" in text
        assert "ready to be removed" in text
        assert "src/A.java" in text

    def test_json_report_of_the_check_output_is_that_output(self, tmp_path):
        source = self.check_input(tmp_path)
        check_out = tmp_path / "check.json"
        assert cli_main(
            ["check", "--input", str(source), "--fixtures", str(FIXTURE_DIR),
             "--out", str(check_out)]
        ) == 0
        report_out = tmp_path / "report.json"
        assert cli_main(
            ["report", "--input", str(check_out), "--format", "json",
             "--out", str(report_out)]
        ) == 0
        assert report_out.read_bytes() == check_out.read_bytes()


class TestEvaluate:
    def test_results_table_shape(self, dataset_path, tmp_path):
        out = tmp_path / "results.tsv"
        code = cli_main(
            ["evaluate", "--dataset", str(dataset_path), "--k", "3",
             "--variants", "ngram-nb,ngram-svm", "--seed", "0",
             "--out", str(out)]
        )
        assert code == 0
        header, rows = read_table(out)
        assert header == ["variant", "fold", "precision", "recall", "f1", "auc"]
        assert len(rows) == 6
        assert {fields[0] for fields in rows} == {"ngram-nb", "ngram-svm"}
        assert [fields[1] for fields in rows if fields[0] == "ngram-nb"] == ["0", "1", "2"]
        for fields in rows:
            for cell in fields[2:]:
                assert 0.0 <= float(cell) <= 1.0

    def test_comparisons_table_shape(self, dataset_path, tmp_path):
        out = tmp_path / "results.tsv"
        comparisons = tmp_path / "comparisons.tsv"
        code = cli_main(
            ["evaluate", "--dataset", str(dataset_path), "--k", "3",
             "--variants", "ngram-nb,ngram-svm", "--seed", "0",
             "--out", str(out), "--compare", "--comparisons-out", str(comparisons)]
        )
        assert code == 0
        header, rows = read_table(comparisons)
        assert header == ["pair", "metric", "p", "adjusted_p", "cliffs_delta", "magnitude"]
        assert [fields[1] for fields in rows] == ["precision", "recall", "f1", "auc"]
        assert all(fields[0] == "ngram-nb vs ngram-svm" for fields in rows)

    def test_all_variants_are_evaluated_reproducibly(self, dataset_path, tmp_path):
        variants = "ngram-auto,bow-auto,ngram-smote-auto,ngram-nb,ngram-svm,ngram-knn"
        outputs = []
        for name in ("a.tsv", "b.tsv"):
            out = tmp_path / name
            assert cli_main(
                ["evaluate", "--dataset", str(dataset_path), "--k", "3",
                 "--variants", variants, "--out", str(out)]
            ) == 0
            outputs.append(out.read_bytes())
        _, rows = read_table(tmp_path / "a.tsv")
        assert [(fields[0], fields[1]) for fields in rows] == [
            (variant, str(fold)) for variant in variants.split(",") for fold in range(3)
        ]
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_on_hold_comments_sharing_no_term_fail_cleanly(self, command, tmp_path,
                                                           capsys):
        words = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot"]
        rows = [
            datasetio.DatasetRow(text, f"src/{n}.java", 1, f"HADOOP-{n}", label)
            for n, (text, label) in enumerate(
                [(word, Label.ON_HOLD) for word in words]
                + [(f"see {word} for details", Label.CROSS_REFERENCE) for word in words]
            )
        ]
        dataset = tmp_path / "disjoint.tsv"
        datasetio.save_dataset(rows, dataset)
        argv = {
            "train": ["train", "--dataset", str(dataset), "--model", str(tmp_path / "m.json"),
                      "--vocab", str(tmp_path / "v.tsv")],
            "evaluate": ["evaluate", "--dataset", str(dataset), "--k", "3"],
        }[command]
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert "error: no vocabulary term survived" in err
        assert "Traceback" not in err

    def test_unknown_variant_is_rejected(self, dataset_path, capsys):
        assert cli_main(
            ["evaluate", "--dataset", str(dataset_path), "--variants", "magic"]
        ) == 1
        assert "magic" in capsys.readouterr().err


class TestMine:
    JAVA = (
        "class Server {\n"
        "    // TODO remove this workaround after HADOOP-1 is fixed\n"
        "    int x;\n"
        "    // plain note without any reference\n"
        "}\n"
    )

    def mine(self, git_sandbox, out: Path) -> int:
        return cli_main(
            ["mine", "--repo", str(git_sandbox.root), "--tracker", "jira",
             "--project", "HADOOP", "--out", str(out)]
        )

    def test_mined_lifecycle_row(self, git_sandbox, tmp_path, capsys):
        git_sandbox.write("src/Server.java", self.JAVA)
        git_sandbox.commit("add server")
        out = tmp_path / "mined.tsv"
        assert self.mine(git_sandbox, out) == 0
        header, rows = read_table(out)
        assert header[:6] == [
            "comment_text", "file_path", "line_number", "end_line",
            "issue_key", "tracker",
        ]
        (row,) = rows
        assert row[0] == "TODO remove this workaround after HADOOP-1 is fixed"
        assert row[1] == "src/Server.java"
        assert row[2] == "2"
        assert row[4] == "HADOOP-1"
        assert row[5] == "jira"
        assert row[7] == "2021-01-01T12:00:00Z"
        assert row[8] == ""
        assert row[10] == "false"

    def test_removed_comment_gets_removal_fields(self, git_sandbox, tmp_path):
        git_sandbox.write("src/Server.java", self.JAVA)
        git_sandbox.commit("add server")
        git_sandbox.write("src/Server.java", "class Server {\n    int x;\n}\n")
        git_sandbox.commit("drop the workaround")
        out = tmp_path / "mined.tsv"
        assert self.mine(git_sandbox, out) == 0
        (row,) = read_table(out)[1]
        assert row[8] != ""
        assert row[9] == "2021-01-02T12:00:00Z"

    def test_text_block_contents_are_not_mined(self, git_sandbox, tmp_path):
        git_sandbox.write("src/Server.java", (
            "class Server {\n"
            '    String doc = """\n'
            "        https://issues.apache.org/jira/browse/HADOOP-7 explains it\n"
            '        """;\n'
            "    // TODO remove this workaround after HADOOP-1 is fixed\n"
            "}\n"
        ))
        git_sandbox.commit("add server")
        out = tmp_path / "mined.tsv"
        assert self.mine(git_sandbox, out) == 0
        assert [(row[4], row[2]) for row in read_table(out)[1]] == [("HADOOP-1", "5")]

    def test_mining_is_byte_identical_across_runs(self, git_sandbox, tmp_path):
        git_sandbox.write("src/Server.java", self.JAVA)
        git_sandbox.commit("add server")
        first = tmp_path / "a.tsv"
        second = tmp_path / "b.tsv"
        assert self.mine(git_sandbox, first) == 0
        assert self.mine(git_sandbox, second) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_path_that_is_not_utf8_is_skipped_with_a_warning(
        self, git_sandbox, tmp_path, caplog
    ):
        git_sandbox.write("src/caf\udce9.java", self.JAVA)  # raw byte 0xE9
        git_sandbox.write("src/Server.java", self.JAVA)
        git_sandbox.commit("add")
        out = tmp_path / "mined.tsv"
        assert self.mine(git_sandbox, out) == 0
        assert [row[1] for row in read_table(out)[1]] == ["src/Server.java"]
        assert "'src/caf\\xe9.java': path is not valid UTF-8" in caplog.text

    def test_non_repository_exits_one(self, tmp_path, capsys):
        empty = tmp_path / "not-a-repo"
        empty.mkdir()
        code = cli_main(["mine", "--repo", str(empty)])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_repo_is_required(self, capsys):
        assert cli_main(["mine"]) == 1
        assert "--repo" in capsys.readouterr().err


def ts(day: str):
    from datetime import datetime, timezone

    return datetime.fromisoformat(day).replace(tzinfo=timezone.utc)


class TestLifecycleCommand:
    def dataset(self, tmp_path) -> Path:
        rows = [
            datasetio.DatasetRow(
                "remove after HADOOP-1 is fixed", "A.java", 1, "HADOOP-1",
                Label.ON_HOLD,
                introduced_commit="a1", introduced_date=ts("2021-01-01"),
                removed_commit="a2", removed_date=ts("2021-01-10"),
                issue_status="Resolved", issue_resolution="Fixed",
                issue_resolved_date=ts("2021-01-05"),
            ),
            datasetio.DatasetRow(
                "remove after HADOOP-2 is fixed", "B.java", 2, "HADOOP-2",
                Label.ON_HOLD,
                introduced_commit="b1", introduced_date=ts("2021-01-01"),
                removed_commit="b2", removed_date=ts("2021-01-03"),
            ),
            datasetio.DatasetRow(
                "see HADOOP-3", "C.java", 3, "HADOOP-3",
                Label.CROSS_REFERENCE,
                introduced_commit="c1", introduced_date=ts("2021-01-02"),
                removed_commit="c2", removed_date=ts("2021-01-04"),
            ),
            datasetio.DatasetRow(
                "remove after HADOOP-4 is fixed", "D.java", 4, "HADOOP-4",
                Label.ON_HOLD,
                introduced_commit="d1", introduced_date=ts("2021-01-02"),
            ),
        ]
        path = tmp_path / "lifecycles.tsv"
        datasetio.save_dataset(rows, path)
        return path

    def test_summary_cells(self, tmp_path):
        out = tmp_path / "summary.tsv"
        code = cli_main(
            ["lifecycle", "--dataset", str(self.dataset(tmp_path)),
             "--out", str(out)]
        )
        assert code == 0
        _, rows = read_table(out)
        cells = {(r[0], r[1], r[2]): r[3] for r in rows}
        assert cells[("lifespan", "OnHold", "count")] == "2"
        assert float(cells[("lifespan", "OnHold", "median_days")]) == 5.5
        assert cells[("lifespan", "CrossReference", "count")] == "1"
        assert float(cells[("lifespan", "CrossReference", "median_days")]) == 2.0
        assert cells[("resolution_delay", "OnHold", "removed_after_fix")] == "1"
        assert cells[("resolution_delay", "OnHold", "removed_before_fix")] == "0"
        assert cells[("resolution_delay", "OnHold", "open_or_wontfix")] == "1"
        assert float(cells[("resolution_delay", "OnHold", "median_delay_days")]) == 5.0


class TestInnerCV:
    def test_train_auto_reports_every_candidate(self, dataset_path, tmp_path, capsys):
        model = tmp_path / "m.json"
        assert cli_main(["train", "--dataset", str(dataset_path), "--model", str(model),
                         "--vocab", str(tmp_path / "v.tsv")]) == 0
        lines = [line for line in capsys.readouterr().err.splitlines()
                 if line.startswith("inner CV ")]
        assert len(lines) == len(learn.DEFAULT_GRID)
        assert all("mean F1 " in line and ", mean AUC " in line for line in lines)
        assert all(re.search(r", mean fit \d+\.\d ms( \(chosen\))?$", line) for line in lines)
        chosen = [line for line in lines if line.endswith(" (chosen)")]
        saved = json.loads(model.read_text(encoding="utf-8"))
        assert len(chosen) == 1
        assert chosen[0].startswith(f"inner CV {saved['algorithm']} ")
        assert "inner_cv" not in saved

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_a_dying_worker_exits_one_without_a_traceback(
        self, command, dataset_path, tmp_path, capsys, monkeypatch
    ):
        parent = os.getpid()
        real_train = learn.train

        def train_or_die(*args, **kwargs):
            if os.getpid() != parent:
                os._exit(1)
            return real_train(*args, **kwargs)

        monkeypatch.setattr(learn, "train", train_or_die)
        monkeypatch.setattr(learn, "_usable_cpus", lambda: 2)
        argv = {
            "train": ["train", "--dataset", str(dataset_path), "--model", str(tmp_path / "m.json"),
                      "--vocab", str(tmp_path / "v.tsv")],
            "evaluate": ["evaluate", "--dataset", str(dataset_path), "--k", "3"],
        }[command]
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert "error: inner CV lost ExtraTrees" in err
        assert "Traceback" not in err


class TestDeterminism:
    def test_training_twice_is_byte_identical(self, dataset_path, tmp_path):
        outputs = []
        for name in ("one", "two"):
            subdir = tmp_path / name
            subdir.mkdir()
            model = subdir / "model.json"
            vocab = subdir / "vocab.tsv"
            assert cli_main(
                ["train", "--dataset", str(dataset_path), "--model", str(model),
                 "--vocab", str(vocab), "--algorithm", "ExtraTrees", "--seed", "3"]
            ) == 0
            outputs.append((model.read_bytes(), vocab.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_evaluation_twice_is_byte_identical(self, dataset_path, tmp_path):
        first = tmp_path / "a.tsv"
        second = tmp_path / "b.tsv"
        for out in (first, second):
            assert cli_main(
                ["evaluate", "--dataset", str(dataset_path), "--k", "3",
                 "--variants", "ngram-nb", "--seed", "5", "--out", str(out)]
            ) == 0
        assert first.read_bytes() == second.read_bytes()
