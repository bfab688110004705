"""``tools/check_digests.py`` names every seed whose digest differs from the
recorded one, and never rewrites the record."""

import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "check_digests.py"
_SPEC = importlib.util.spec_from_file_location("check_digests", _PATH)
check_digests = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_digests)


def test_a_changed_digest_is_named_and_fails_the_check(tmp_path, monkeypatch, capsys):
    recorded = check_digests.BENCH / "digests.json"
    text = recorded.read_text()
    digests = json.loads(text)
    monkeypatch.setattr(check_digests, "RECORDED_SEEDS", 1)
    monkeypatch.setattr(check_digests, "BENCH", tmp_path)
    (tmp_path / "digests.json").write_text(text)
    assert check_digests.main() == 0
    assert capsys.readouterr().out.endswith("0 mismatches in 3 runs\n")
    digest = digests["thin-quotes"]["0"]
    digests["thin-quotes"]["0"] = "0" * 16
    del digests["bets-paired"]["0"]
    changed = json.dumps(digests)
    (tmp_path / "digests.json").write_text(changed)
    assert check_digests.main() == 1
    out = capsys.readouterr().out
    assert "bets-paired seed 0: digest " in out and ", recorded None\n" in out
    assert f"thin-quotes seed 0: digest {digest}, recorded {'0' * 16}\n" in out
    assert out.endswith("2 mismatches in 3 runs\n")
    assert (tmp_path / "digests.json").read_text() == changed
    assert recorded.read_text() == text
