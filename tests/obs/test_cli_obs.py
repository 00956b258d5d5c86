"""CLI observability surface: --metrics-out and the obs report mode."""

import json

from repro.cli import main


class TestMetricsOut:
    def test_honey_dumps_snapshot(self, tmp_path, capsys):
        path = tmp_path / "metrics.json"
        assert main(["--metrics-out", str(path), "honey", "--seed", "5"]) == 0
        captured = capsys.readouterr()
        assert f"metrics snapshot written to {path}" in captured.err
        assert "metrics snapshot" not in captured.out
        document = json.loads(path.read_text())
        assert document["metrics"]["counters"]
        assert any(span["name"] == "honey.run" for span in document["spans"])

    def test_honey_without_flag_writes_nothing(self, tmp_path, capsys):
        assert main(["honey", "--seed", "5"]) == 0
        captured = capsys.readouterr()
        assert "metrics snapshot" not in captured.out + captured.err


class TestObsCommand:
    def test_renders_table_from_snapshot_file(self, tmp_path, capsys):
        path = tmp_path / "metrics.json"
        assert main(["--metrics-out", str(path), "honey", "--seed", "5"]) == 0
        capsys.readouterr()
        assert main(["obs", "--metrics", str(path), "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "top counters" in out
        assert "honey.run" in out

    def test_missing_snapshot_is_an_error(self, tmp_path, capsys):
        rc = main(["obs", "--metrics", str(tmp_path / "absent.json")])
        assert rc == 2
        assert "cannot load snapshot" in capsys.readouterr().err
