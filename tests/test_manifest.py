"""Byte identity of the CLI's outputs: ``tools/cmp_cli.py``'s command list,
run on this checkout's ``src``, must reproduce ``tests/golden/manifest.json``
entry by entry (exit codes, and the sha256 of every stdout, stderr and
output file).  A change that moves an output on purpose re-records it:

    python tools/cmp_cli.py --manifest tests/golden/manifest.json
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("cmp_cli", ROOT / "tools" / "cmp_cli.py")
cmp_cli = importlib.util.module_from_spec(spec)
spec.loader.exec_module(cmp_cli)

GOLDEN = ROOT / "tests" / "golden" / "manifest.json"


def test_cli_outputs_match_the_manifest(tmp_path):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = cmp_cli.manifest(str(ROOT / "src"), str(tmp_path))
    differences = cmp_cli.manifest_differences(want, got)
    assert not differences, "differ from tests/golden/manifest.json:\n" + "\n".join(differences)


def test_differences_name_each_entry():
    want = {"platform": "P", "commands": {"solve": {"exit": 0, "stdout": "a", "stderr": "b"},
                                          "check": {"exit": 0, "stdout": "c", "stderr": "d"}},
            "files": {"u.csv": "e", "gone.csv": "f"}}
    got = {"platform": "P", "commands": {"solve": {"exit": 1, "stdout": "x", "stderr": "b"},
                                         "check": {"exit": 0, "stdout": "c", "stderr": "d"}},
           "files": {"u.csv": "y", "new.csv": "g"}}
    assert cmp_cli.manifest_differences(want, want) == []
    assert cmp_cli.manifest_differences(want, got) == [
        "command 'solve': exit 0 -> 1, stdout differs",
        "file 'gone.csv': no longer made",
        "file 'new.csv': not in the manifest",
        "file 'u.csv': bytes differ",
    ]


def test_another_platform_fails_saying_so():
    want = {"platform": "CPython 3.11.7 linux x86_64", "commands": {}, "files": {}}
    got = dict(want, platform="CPython 3.12.1 darwin arm64")
    (line,) = cmp_cli.manifest_differences(want, got)
    assert line.startswith("the manifest was recorded on CPython 3.11.7 linux x86_64, "
                           "this is CPython 3.12.1 darwin arm64")


def test_two_trees_compare_their_manifests(monkeypatch, capsys):
    record = {"platform": "P", "commands": {"solve": {"exit": 0, "stdout": "a", "stderr": "b"}},
              "files": {"u.csv": "c"}}
    moved = dict(record, commands={"solve": {"exit": 0, "stdout": "x", "stderr": "b"}})
    manifests = {"old": record, "same": record, "moved": moved}
    monkeypatch.setattr(cmp_cli, "manifest", lambda src, d: manifests[src])
    assert cmp_cli.main(["old", "same"]) == 0
    assert capsys.readouterr().out == "1 commands and 1 files compared\nall identical\n"
    assert cmp_cli.main(["old", "moved"]) == 1
    assert capsys.readouterr().out.splitlines()[1:] == ["command 'solve': stdout differs"]
    assert cmp_cli.main(["old"]) == 2
    assert capsys.readouterr().err.startswith("usage: python tools/cmp_cli.py PARENT_SRC CHANGE_SRC")


def test_differences_name_each_hjb_instance():
    want = {"platform": "P", "commands": {}, "files": {}, "solve_general": {
        "a": {"count": 12, "sha256": "s"}, "b": {"error": "did not converge"}, "c": {"count": 3, "sha256": "t"}}}
    got = dict(want, solve_general={
        "a": {"count": 12, "sha256": "x"}, "b": {"count": 101, "sha256": "y"}, "c": {"count": 4, "sha256": "t"}})
    assert cmp_cli.manifest_differences(want, got) == [
        "solve_general 'a': sha256 differs",
        "solve_general 'b': count None -> 101, error differs, sha256 differs",
        "solve_general 'c': count 3 -> 4",
    ]
