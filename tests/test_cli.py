"""End-to-end tests of the command-line interface.

Commands run in process through ``cli_main`` so exit codes, stdout, and
stderr are all observable.  The pipeline tests drive the real artifacts:
train writes a model and vocabulary, classify consumes them, check reads
recorded tracker fixtures, and report renders the check output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import onhold
from onhold import datasetio, evalstats, learn, ngrams, tracker
from onhold.cli import ProjectConfig, build_parser, cli_main, load_project_config
from onhold.errors import ConfigError, DataFormatError, OnholdError
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


CONFIG_KEYS = ("repo_path", "branch", "tracker", "project_key", "base_url", "cache_dir")
# Any JSON value, plus strings that name a tracker.
CONFIG_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text()
    | st.sampled_from(["jira", " GitHub ", "bugzilla"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=4,
)


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
            b"[]",
            b'{"schema_version": 1, "findings": 3}',
            b'{"schema_version": 1, "findings": ["x"]}',
            b'{"schema_version": 1, "findings": [{"introduced_date": 5}]}',
            b'{"schema_version": 1\xff}',
        ],
        ids=["list", "findings-not-a-list", "finding-not-an-object", "date-not-a-string",
             "not-utf8"],
    )
    def test_report_input_of_the_wrong_shape(self, tmp_path, capsys, payload):
        bad = tmp_path / "bad.json"
        bad.write_bytes(payload)
        assert cli_main(["report", "--input", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ")
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

    @pytest.mark.parametrize(
        "key,value",
        [("cache_dir", None), ("branch", False), ("project_key", 7), ("tracker", ["jira"])],
    )
    def test_a_value_that_is_not_a_string_is_rejected(self, tmp_path, key, value):
        path = tmp_path / "project.json"
        path.write_text(json.dumps({key: value}), encoding="utf-8")
        with pytest.raises(ConfigError, match=f"config key '{key}' must be a string"):
            load_project_config(path)

    def test_a_file_that_is_not_utf8_is_rejected(self, tmp_path, capsys):
        path = tmp_path / "project.json"
        path.write_bytes(b'{"branch": "tr\xfcnk"}')
        code = cli_main(["mine", "--repo", str(tmp_path), "--config", str(path)])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: not UTF-8")

    @settings(max_examples=300, deadline=None)
    @given(payload=st.dictionaries(st.sampled_from(CONFIG_KEYS), CONFIG_VALUES))
    def test_fields_are_the_strings_given_or_a_config_error(self, tmp_path_factory, payload):
        path = tmp_path_factory.mktemp("config") / "project.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        try:
            config = load_project_config(path)
        except ConfigError:
            return
        for key, value in payload.items():
            field = getattr(config, key)
            if key == "tracker":
                assert isinstance(value, str) and field.value == value.strip().lower()
            elif key == "branch" and value == "":
                assert field == "HEAD"
            else:
                assert field == value

    @pytest.fixture(scope="class")
    def config_root(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("config-fuzz")
        (root / "plain").mkdir()
        return root

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_a_fuzzed_file_loads_or_is_a_config_error(self, config_root, data):
        root = config_root
        original = json.dumps({
            "repo_path": str(root / "plain"), "branch": "trunk", "tracker": "jira",
            "project_key": "HADOOP", "base_url": "https://issues.example.org",
            "cache_dir": "caché",
        }).encode("utf-8")
        path = root / "project.json"
        path.write_bytes(flipped_or_cut(data, original))
        try:
            assert isinstance(load_project_config(path), ProjectConfig)
        except ConfigError as exc:
            assert str(exc)
        # The config's repository is a plain directory, or no directory at all.
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = cli_main(["mine", "--config", str(path), "--out", str(root / "mined.tsv")])
        assert code == 1
        assert "Traceback" not in stderr.getvalue()


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

    def test_a_project_spanning_two_lines_is_refused(self, capsys):
        argv = ["detect", "--dump-patterns", "--tracker", "jira", "--project", "HA\nDOOP"]
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'HA\\nDOOP'" in err


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

    @pytest.mark.parametrize("target", ["input", "vocab", "lemma-table", "dataset"])
    def test_a_file_that_is_not_utf8_is_named(self, dataset_path, tmp_path, capsys, target):
        model, vocab = self.train(dataset_path, tmp_path)
        lemma_table = tmp_path / "lemmas.tsv"
        lemma_table.write_text("fixed\tfix\n", encoding="utf-8")
        paths = {"input": dataset_path, "vocab": vocab, "lemma-table": lemma_table,
                 "dataset": dataset_path}
        paths[target].write_bytes(b"comment_text\n\xff\n")
        if target == "dataset":
            argv = ["train", "--dataset", str(dataset_path), "--model", str(model),
                    "--vocab", str(vocab)]
        else:
            argv = ["classify", "--model", str(model), "--out", str(tmp_path / "p.tsv"),
                    *(arg for name in ("input", "vocab", "lemma-table")
                      for arg in (f"--{name}", str(paths[name])))]
        capsys.readouterr()
        assert cli_main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {paths[target]}: not UTF-8: ")

    @pytest.mark.parametrize("terms", [5, 32])
    def test_classify_rejects_a_vocabulary_of_another_size_without_a_digest(
        self, dataset_path, tmp_path, capsys, terms
    ):
        # Without a digest to compare, a smaller vocabulary used to score
        # every row on the first terms alone and exit 0.
        model, vocab = self.train(dataset_path, tmp_path)
        payload = json.loads(model.read_text(encoding="utf-8"))
        payload["vocabulary_hash"] = None
        model.write_text(json.dumps(payload), encoding="utf-8")
        lines = vocab.read_text(encoding="utf-8").splitlines()
        lines = (lines + [f"extra{i}\t1\t1.0" for i in range(terms)])[:terms]
        vocab.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        code = cli_main(
            ["classify", "--model", str(model), "--vocab", str(vocab),
             "--input", str(dataset_path), "--out", str(tmp_path / "p.tsv")]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {vocab} has {terms} terms but the model has "
            f"{payload['n_features']} features\n"
        )

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda payload: payload.pop("state"),
            lambda payload: payload.update(state={}),
            lambda payload: payload["state"].update(log_p1=[[0.0], [0.0]]),
            lambda payload: payload.update(version=2),
            lambda payload: payload.update(decision_threshold=float("nan")),
            lambda payload: payload.update(decision_threshold=2.0),
            # int() and float() used to convert the next five, so each loaded.
            lambda payload: payload.update(decision_threshold="0.5"),
            lambda payload: payload.update(n_features=str(payload["n_features"])),
            lambda payload: payload.update(seed=7.9),
            lambda payload: payload.update(hyperparameters="x"),
            lambda payload: payload.update(version=True),
            lambda payload: payload.update(vocabulary_hash=5),
        ],
        ids=["no-state", "empty-state", "wrong-shape", "version", "nan-threshold",
             "threshold-above-one", "threshold-string", "n-features-string", "seed-float",
             "hyperparameters-string", "version-bool", "hash-int"],
    )
    def test_malformed_model_file_is_a_user_error(
        self, dataset_path, tmp_path, capsys, corrupt
    ):
        model, vocab = self.train(dataset_path, tmp_path)
        payload = json.loads(model.read_text(encoding="utf-8"))
        corrupt(payload)
        model.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(DataFormatError, match=re.escape(str(model))):
            learn.load_model(model)
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
        "algorithm,hyperparameters",
        [
            ("NaiveBayes", {"bogus": [1, 2]}),
            ("NaiveBayes", {}),
            ("NaiveBayes", {"alpha": 0}),
            ("NaiveBayes", {"alpha": True}),
            ("NaiveBayes", {"alpha": "1"}),
            ("KNN", {"k": "5"}),
            ("KNN", {"k": 5.0}),
            ("KNN", {"k": 0}),
        ],
        ids=["unknown-key", "no-keys", "alpha-zero", "alpha-bool", "alpha-string",
             "k-string", "k-float", "k-zero"],
    )
    def test_model_hyperparameters_are_checked(
        self, dataset_path, tmp_path, capsys, algorithm, hyperparameters
    ):
        model, vocab = self.train(dataset_path, tmp_path, "--algorithm", algorithm)
        payload = json.loads(model.read_text(encoding="utf-8"))
        payload["hyperparameters"] = hyperparameters
        model.write_text(json.dumps(payload), encoding="utf-8")
        capsys.readouterr()
        code = cli_main(
            ["classify", "--model", str(model), "--vocab", str(vocab),
             "--input", str(dataset_path), "--out", str(tmp_path / "p.tsv")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model}: ")
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
        "answer,reason",
        [
            (b"[1]", "malformed response"),
            (json.dumps({"fields": {"status": {"name": "Resolved"}, "resolutiondate": "soon"}})
             .encode("utf-8"), "malformed response"),
            # A recorded answer that is not JSON reads as {}, as a live one does.
            (b"not json", "no status in response"),
            (b"\xff", "no status in response"),
        ],
        ids=["not-an-object", "bad-date", "not-json", "not-utf8"],
    )
    def test_check_skips_an_issue_whose_answer_has_the_wrong_shape(
        self, tmp_path, caplog, answer, reason
    ):
        fixtures = tmp_path / "fixtures"
        fixtures.mkdir()
        (fixtures / "jira_HADOOP-1.json").write_bytes(answer)
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
        assert f"skipping issue HADOOP-1: jira issue HADOOP-1: {reason}" in caplog.text
        assert caplog.text.count("skipping issue") == 1
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

    @pytest.mark.parametrize(
        "config,flags,rows,expected",
        [
            ({"tracker": "github", "project_key": "apache/dubbo",
              "base_url": "https://config.example.org"},
             [],
             [("7", "")],
             [("github", "apache/dubbo", "https://config.example.org", "7")]),
            ({"base_url": "https://config.example.org"},
             ["--tracker", "jira", "--base-url", "https://jira.example.org",
              "--tracker", "bugzilla"],
             [("HADOOP-1", "jira"), ("7", "bugzilla")],
             [("bugzilla", "", "https://config.example.org", "7"),
              ("jira", "", "https://jira.example.org", "HADOOP-1")]),
            ({"tracker": "jira", "project_key": "HADOOP",
              "base_url": "https://config.example.org"},
             ["--base-url", "https://lone.example.org"],
             [("HADOOP-1", ""), ("7", "bugzilla")],
             [("bugzilla", "", "https://lone.example.org", "7"),
              ("jira", "", "https://lone.example.org", "HADOOP-1")]),
            ({"tracker": "jira", "project_key": "HADOOP",
              "base_url": "https://config.example.org"},
             ["--tracker", "github", "--project", "a/x"],
             [("7", "")],
             [("github", "a/x", "https://config.example.org", "7")]),
        ],
        ids=["config-tracker", "config-base-url", "lone-base-url", "flags-override"],
    )
    def test_check_reads_trackers_and_servers_from_the_config(
        self, config, flags, rows, expected, tmp_path, monkeypatch
    ):
        requests = []

        def fetch(transport, gateway_config, key):
            requests.append(
                (gateway_config.tracker.value, gateway_config.repo, gateway_config.base_url, key)
            )
            if gateway_config.tracker is TrackerKind.GITHUB:
                return 200, {"state": "open"}
            if gateway_config.tracker is TrackerKind.BUGZILLA:
                return 200, {"bugs": [{"status": "NEW", "resolution": ""}]}
            return 200, {"fields": {"status": {"name": "Open"}}}

        monkeypatch.setattr(tracker.HttpTransport, "fetch", fetch)
        config_path = tmp_path / "project.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        source = tmp_path / "remaining.tsv"
        source.write_text(datasetio.format_table(
            ("comment_text", "issue_key", "tracker", "label"),
            [[f"remove after {key}", key, kind, "OnHold"] for key, kind in rows],
        ), encoding="utf-8")
        code = cli_main(
            ["check", "--input", str(source), "--config", str(config_path), *flags,
             "--out", str(tmp_path / "check.json")]
        )
        assert code == 0
        assert sorted(requests) == expected

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

    @pytest.mark.parametrize("same", ["stdout", "file"])
    def test_compare_refuses_one_destination_for_both_tables(
        self, same, dataset_path, tmp_path, monkeypatch, capsys
    ):
        def no_folds(*args, **kwargs):
            raise AssertionError("folds ran")

        monkeypatch.setattr(evalstats, "evaluate_variants", no_folds)
        out = tmp_path / "results.tsv"
        flags = {"stdout": [],
                 "file": ["--out", str(out), "--comparisons-out", f"{tmp_path}/./results.tsv"]}
        code = cli_main(
            ["evaluate", "--dataset", str(dataset_path), "--k", "3",
             "--variants", "ngram-nb,ngram-svm", "--compare", *flags[same]]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "--out and --comparisons-out to differ" in captured.err
        assert not out.exists()

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

    @pytest.mark.parametrize("k", ["1", "0", "-3"])
    def test_fewer_than_two_folds_are_refused(self, k, dataset_path, monkeypatch, capsys):
        def no_fold(*args, **kwargs):
            raise AssertionError("a fold ran")

        monkeypatch.setattr(learn, "featurize", no_fold)
        assert cli_main(["evaluate", "--dataset", str(dataset_path), "--k", k]) == 1
        err = capsys.readouterr().err
        assert err.endswith(f"\nerror: evaluation needs k >= 2 folds, got k={k}\n")

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


def _classify_table_rows(size: int, seed: int) -> list[datasetio.DatasetRow]:
    """Corpus rows whose texts also hold line breaks, non-ASCII letters and URLs."""
    from corpus import generate_corpus

    rows = []
    for i, entry in enumerate(generate_corpus(size=size, seed=seed)):
        text = entry.text
        if i % 5 == 0:
            text = text.replace(" ", "\n", 1)
        if i % 7 == 0:
            text = "Straße İndex Kelvin ſee " + text
        if i % 11 == 0:
            text += " see https://example.com/x?y=1\r\n" + entry.issue_key
        if i % 13 == 0:
            text = entry.issue_key + "\n" + text
        rows.append(datasetio.DatasetRow(text, f"src/K{i}.java", 1 + i, entry.issue_key,
                                         entry.label))
    return rows


class TestClassifyGolden:
    """sha256 of the classify table for three models, over more than two score chunks.

    2,049 rows make two chunks, the second with a lone last row joined
    to it; texts with line breaks and non-ASCII letters cross both.
    """

    DIGESTS = {
        "NaiveBayes": "e0dcf8b4f94b908f0fc5852d360c9c7cf83163d1e38658ddedb566fb59f25d8f",
        "ExtraTrees": "77b37855a574f43555e5d0411d0958b0ca42dcf5fa72042dc88582ec4f464e04",
        "LinearSVM": "0fe305e49cc6764897c8ad318a8cbe7c113cfbfecf4a7b27c61fee90c82304e5",
    }

    @pytest.fixture(scope="class")
    def tables(self, tmp_path_factory):
        from corpus import generate_corpus

        root = tmp_path_factory.mktemp("classify-golden")
        training = root / "corpus.tsv"
        datasetio.save_dataset(
            [datasetio.DatasetRow(e.text, f"src/C{i}.java", 1, e.issue_key, e.label)
             for i, e in enumerate(generate_corpus(size=300, seed=3))],
            training,
        )
        table = root / "table.tsv"
        datasetio.save_dataset(_classify_table_rows(2049, 11), table)
        return root, training, table

    @pytest.mark.parametrize("algorithm", list(DIGESTS))
    def test_classify_table_digest(self, tables, algorithm):
        root, training, table = tables
        model, vocab, out = (root / f"{algorithm}{suffix}" for suffix in (".json", ".tsv", ".out"))
        assert cli_main(["train", "--dataset", str(training), "--algorithm", algorithm,
                         "--model", str(model), "--vocab", str(vocab), "--seed", "2"]) == 0
        assert cli_main(["classify", "--model", str(model), "--vocab", str(vocab),
                         "--input", str(table), "--out", str(out)]) == 0
        assert len(read_table(out)[1]) == 2049
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.DIGESTS[algorithm]


# Characters and words that matter to the three file formats.
FUZZ_TEXT = st.text(alphabet="\t\n\r\\ #.-0123456789aeEfinx\u00e9\u2028İ", max_size=6) | st.sampled_from(
    ["comment_text", "issue_key", "score", "predicted_label", "HADOOP-1", "bug 3", "\\n"])


def fuzzed(original: str):
    """The file unchanged, edited at up to three places, cut with a stray byte, or random bytes."""
    edit = st.tuples(st.integers(0, len(original)), st.integers(0, 8), FUZZ_TEXT)

    def apply(edits):
        text = original
        for at, cut, insert in edits:
            text = text[:at] + insert + text[at + cut:]
        return text.encode("utf-8")

    return st.one_of(
        st.just(original.encode("utf-8")),
        st.lists(edit, min_size=1, max_size=3).map(apply),
        st.integers(0, len(original)).map(
            lambda at: original.encode("utf-8")[:at] + b"\xff" + original.encode("utf-8")[at:]),
        st.binary(max_size=64),
    )


class TestClassifyFuzz:
    """Fuzzed table, vocabulary and lemma-table files end in an OnholdError or in a table."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("classify-fuzz")
        dataset = root / "dataset.tsv"
        datasetio.save_dataset(
            [datasetio.DatasetRow(text, "A.java", 1, f"HADOOP-{101 + i}",
                                  Label.ON_HOLD if i < len(ON_HOLD_TEXTS) else
                                  Label.CROSS_REFERENCE)
             for i, text in enumerate(ON_HOLD_TEXTS + CROSS_TEXTS)],
            dataset,
        )
        model, vocab = root / "model.json", root / "vocab.tsv"
        assert cli_main(["train", "--dataset", str(dataset), "--algorithm", "NaiveBayes",
                         "--model", str(model), "--vocab", str(vocab)]) == 0
        # Without the digest, a fuzzed vocabulary of the model's size is featurized.
        payload = json.loads(model.read_text(encoding="utf-8"))
        payload["vocabulary_hash"] = None
        model.write_text(json.dumps(payload), encoding="utf-8")
        table = datasetio.format_table(
            ("comment_text", "issue_key", "score"),
            [["remove after HADOOP-7 is\nfixed", "HADOOP-7", "0.5"],
             ["see bug 12 for background", "12", ""]],
        )
        return root, model, vocab.read_text(encoding="utf-8"), table, "fixed\tfix\nwaits\twait\n"

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_classify_ends_in_an_onhold_error_or_a_table(self, files, data):
        root, model, vocab_text, table_text, lemma_text = files
        paths = {}
        for name, original in (("vocab", vocab_text), ("input", table_text),
                               ("lemma-table", lemma_text)):
            paths[name] = root / f"fuzzed-{name}"
            paths[name].write_bytes(data.draw(fuzzed(original), label=name))
        argv = ["classify", "--model", str(model), "--out", str(root / "out.tsv"),
                *(arg for name, path in paths.items() for arg in (f"--{name}", str(path)))]
        args = build_parser().parse_args(argv)
        try:
            args.handler(args)
            failed = False
        except OnholdError as exc:
            failed = True
            assert str(exc)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = cli_main(argv)
        assert code in (1, 2) if failed else code == 0
        assert "Traceback" not in stderr.getvalue()


# Values of the wrong type or out of range for any field of a model file.
MODEL_JUNK = st.sampled_from([
    None, True, False, "", "x", "nan", [], {}, [[0]], [None], {"trees": []},
    float("nan"), float("inf"), -float("inf"), -1, 0, 1, 0.5, 2**31, 2**53 + 1, 2**63,
    -(2**63), 10**30, 10**400,
])


def _junk_somewhere(data, node):
    """The JSON tree with one value, chosen by a random walk from the root, replaced."""
    if isinstance(node, (dict, list)) and node and data.draw(st.integers(0, 4)):
        key = data.draw(st.sampled_from(list(node) if isinstance(node, dict) else
                                        range(len(node))))
        if data.draw(st.integers(0, 9)) == 0:
            del node[key]
        else:
            node[key] = _junk_somewhere(data, node[key])
        return node
    return data.draw(MODEL_JUNK)


def _number_paths(node, path=()):
    """Paths to the numbers in a JSON tree."""
    if isinstance(node, (dict, list)):
        for key in (node if isinstance(node, dict) else range(len(node))):
            yield from _number_paths(node[key], (*path, key))
    elif type(node) in (int, float):
        yield path


def _looping_child(data, payload):
    """A forest payload with one split node's child pointing at or above the node."""
    tree = data.draw(st.sampled_from(payload["state"]["trees"]))
    splits = [node for node, f in enumerate(tree["feature"]) if f != -1]
    if splits:
        node = data.draw(st.sampled_from(splits))
        tree[data.draw(st.sampled_from(["left", "right"]))][node] = data.draw(
            st.integers(0, node))
    return payload


class TestClassifyModelFuzz:
    """A fuzzed model file ends in a table of scores in [0, 1] or in an OnholdError with exit 1."""

    @pytest.fixture(scope="class")
    def models(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("model-fuzz")
        dataset = root / "dataset.tsv"
        datasetio.save_dataset(
            [datasetio.DatasetRow(text, "A.java", 1, f"HADOOP-{101 + i}",
                                  Label.ON_HOLD if i < len(ON_HOLD_TEXTS) else
                                  Label.CROSS_REFERENCE)
             for i, text in enumerate(ON_HOLD_TEXTS + CROSS_TEXTS)],
            dataset,
        )
        texts = {}
        for algorithm in learn.ALGORITHMS:
            model, vocab = root / f"{algorithm}.json", root / "vocab.tsv"
            assert cli_main(["train", "--dataset", str(dataset), "--algorithm", algorithm,
                             "--model", str(model), "--vocab", str(vocab)]) == 0
            texts[algorithm] = model.read_text(encoding="utf-8")
        return root, texts, vocab, dataset

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_classify_ends_in_an_onhold_error_or_a_table(self, models, data):
        root, texts, vocab, table = models
        algorithm = data.draw(st.sampled_from(learn.ALGORITHMS), label="algorithm")
        original = texts[algorithm].encode("utf-8")
        how = data.draw(st.sampled_from(["flip", "delete", "junk", "number", "loop", "size"]),
                        label="how")
        if how == "flip":
            at = data.draw(st.integers(0, len(original) - 1))
            bits = data.draw(st.integers(1, 255))
            fuzzed_bytes = original[:at] + bytes([original[at] ^ bits]) + original[at + 1:]
        elif how == "delete":
            at = data.draw(st.integers(0, len(original)))
            fuzzed_bytes = original[:at] + original[at + data.draw(st.integers(1, 16)):]
        else:
            payload = json.loads(original)
            if how == "loop" and algorithm in ("ExtraTrees", "RandomForest"):
                payload = _looping_child(data, payload)
            elif how == "number":
                *parents, last = data.draw(st.sampled_from(list(_number_paths(payload))))
                node = payload
                for key in parents:
                    node = node[key]
                node[last] = data.draw(MODEL_JUNK)
            elif how == "size":
                # KNN's state repeats the feature count; both copies agree.
                payload["n_features"] = data.draw(MODEL_JUNK)
                if "n_features" in payload["state"]:
                    payload["state"]["n_features"] = payload["n_features"]
            else:
                payload = _junk_somewhere(data, payload)
            fuzzed_bytes = json.dumps(payload).encode("utf-8")
        model, out = root / "fuzzed-model.json", root / "out.tsv"
        model.write_bytes(fuzzed_bytes)
        argv = ["classify", "--model", str(model), "--vocab", str(vocab),
                "--input", str(table), "--out", str(out)]
        args = build_parser().parse_args(argv)
        try:
            args.handler(args)
            failed = False
            # A NaN score would label its row CrossReference without a word.
            assert all(0.0 <= float(row[-1]) <= 1.0 for row in read_table(out)[1])
        except OnholdError as exc:
            failed = True
            assert str(exc)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = cli_main(argv)
        assert code == (1 if failed else 0)
        assert "Traceback" not in stderr.getvalue()


def flipped_or_cut(data, original: bytes) -> bytes:
    """The bytes with 1-3 of them flipped, or with a run of 1-16 deleted."""
    fuzzed_bytes = bytearray(original)
    if data.draw(st.booleans(), label="flip"):
        for _ in range(data.draw(st.integers(1, 3))):
            fuzzed_bytes[data.draw(st.integers(0, len(original) - 1))] ^= data.draw(
                st.integers(1, 255))
    else:
        at = data.draw(st.integers(0, len(original)))
        del fuzzed_bytes[at:at + data.draw(st.integers(1, 16))]
    return bytes(fuzzed_bytes)


def assert_ends_cleanly(argv: list[str]) -> None:
    """The command exits 0, or 1 after an ``error:`` line or 2 after an ``environment error:`` one."""
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = cli_main(argv)
    err = stderr.getvalue()
    assert "Traceback" not in err
    if code != 0:
        prefix = {1: "error: ", 2: "environment error: "}[code]
        assert err.splitlines()[-1].startswith(prefix)


class TestFuzzedInputs:
    """Flipped or deleted bytes in the inputs of train, evaluate and check end cleanly."""

    @pytest.fixture(scope="class")
    def root(self, tmp_path_factory):
        return tmp_path_factory.mktemp("input-fuzz")

    @pytest.fixture(scope="class")
    def dataset(self, root):
        path = root / "dataset.tsv"
        datasetio.save_dataset(
            [datasetio.DatasetRow(text, f"src/A{i}.java", 10 + i, f"HADOOP-{101 + i}",
                                  Label.ON_HOLD if i < len(ON_HOLD_TEXTS) else
                                  Label.CROSS_REFERENCE)
             for i, text in enumerate(ON_HOLD_TEXTS + CROSS_TEXTS)],
            path,
        )
        return path.read_bytes()

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_train_and_evaluate_end_cleanly(self, root, dataset, data):
        path = root / "fuzzed-dataset.tsv"
        path.write_bytes(flipped_or_cut(data, dataset))
        assert_ends_cleanly(["train", "--dataset", str(path), "--algorithm", "NaiveBayes",
                             "--model", str(root / "m.json"), "--vocab", str(root / "v.tsv")])
        assert_ends_cleanly(["evaluate", "--dataset", str(path), "--k", "2",
                             "--variants", "ngram-nb", "--out", str(root / "results.tsv")])

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_check_ends_cleanly(self, root, data):
        table = datasetio.format_table(
            ("comment_text", "file_path", "line_number", "end_line", "issue_key", "tracker",
             "introduced_commit", "introduced_date", "removed_commit", "removed_date",
             "predicted_label", "score"),
            [["remove this workaround after HADOOP-6223 is fixed", "src/A.java", "10", "10",
              "HADOOP-6223", "jira", "abcdef012345", "2019-07-01T09:30:00Z", "", "",
              "OnHold", "0.75"],
             ["drop once HADOOP-1 lands\nin trunk", "src/B.java", "5", "6", "HADOOP-1", "jira",
              "abcdef012345", "2019-07-01T09:30:00Z", "", "", "OnHold", "0.5"]],
        ).encode("utf-8")
        answer = (FIXTURE_DIR / "jira_HADOOP-6223.json").read_bytes()
        target = data.draw(st.sampled_from(["table", "answer", "both"]), label="target")
        if target != "answer":
            table = flipped_or_cut(data, table)
        if target != "table":
            answer = flipped_or_cut(data, answer)
        fixtures = root / "fixtures"
        fixtures.mkdir(exist_ok=True)
        (fixtures / "jira_HADOOP-6223.json").write_bytes(answer)
        predictions = root / "predictions.tsv"
        predictions.write_bytes(table)
        assert_ends_cleanly(["check", "--input", str(predictions), "--fixtures", str(fixtures),
                             "--tracker", "jira", "--project", "HADOOP",
                             "--out", str(root / "check.json")])


class TestImportBoundary:
    """Mining, detection, checking and reporting learn nothing, so numpy stays unloaded."""

    def test_mine_detect_check_and_report_leave_numpy_unloaded(self, git_sandbox, tmp_path):
        git_sandbox.write("src/Server.java", TestMine.JAVA.replace("HADOOP-1 ", "HADOOP-6223 "))
        git_sandbox.commit("add server")
        mined, refs, checked = (tmp_path / name for name in ("mined.tsv", "refs.tsv", "c.json"))
        jira = ["--tracker", "jira", "--project", "HADOOP"]
        commands = [
            ["mine", "--repo", str(git_sandbox.root), *jira, "--out", str(mined)],
            ["detect", "--input", str(mined), *jira, "--out", str(refs)],
            ["check", "--input", str(mined), "--fixtures", str(FIXTURE_DIR),
             "--out", str(checked)],
            ["report", "--input", str(checked)],
        ]
        code = (
            "import json, sys\n"
            "import onhold.cli\n"
            "codes = [onhold.cli.cli_main(argv) for argv in json.loads(sys.argv[1])]\n"
            "numpy = sorted(name for name in sys.modules if name.split('.')[0] == 'numpy')\n"
            "print(json.dumps([codes, numpy[:3]]))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(onhold.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", code, json.dumps(commands)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "HADOOP-6223" in proc.stdout
        assert json.loads(proc.stdout.splitlines()[-1]) == [[0, 0, 0, 0], []]

    def test_textprep_leaves_numpy_unloaded(self):
        code = (
            "import sys\n"
            "import onhold.textprep\n"
            "print(sorted(name for name in sys.modules if name.split('.')[0] == 'numpy')[:3])\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(onhold.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_help_offers_the_learning_names(self, capsys):
        # Help text wraps at the terminal width, even inside a name list.
        assert cli_main(["train", "--help"]) == 0
        usage = "".join(capsys.readouterr().out.split())
        choices = re.search(r"--algorithm\{([^}]*)\}", usage).group(1)
        assert choices.split(",") == ["auto", *learn.ALGORITHMS]
        assert cli_main(["evaluate", "--help"]) == 0
        usage = "".join(capsys.readouterr().out.split())
        assert "comma-separatedvariants:" + ",".join(evalstats.VARIANTS) in usage
