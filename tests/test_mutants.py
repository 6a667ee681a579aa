"""The mutant corpus still applies: each mutant's text is in its file exactly once.

The corpus itself runs outside this suite (``python3 mutation/run.py``);
this only keeps it from going stale as the code it mutates changes.
"""

import importlib
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CORPUS = json.loads((ROOT / "mutation" / "mutants.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("mutant", CORPUS, ids=[m["id"] for m in CORPUS])
def test_old_text_occurs_once(mutant):
    text = (ROOT / mutant["file"]).read_text(encoding="utf-8")
    assert text.count(mutant["old"]) == 1
    assert mutant["new"] != mutant["old"]


@pytest.mark.parametrize("mutant", CORPUS, ids=[m["id"] for m in CORPUS])
def test_killing_tests_exist(mutant):
    assert mutant["kill"]
    for node in mutant["kill"]:
        path, *_, name = node.split("::")
        name = re.sub(r"\[.*\]$", "", name)
        assert f"def {name}(" in (ROOT / path).read_text(encoding="utf-8"), node


@pytest.mark.parametrize("mutant", CORPUS, ids=[m["id"] for m in CORPUS])
def test_fast_path_names_live_code(mutant):
    # The leading dotted name, such as ``tet_tree._link_pass`` of "tet_tree._link_pass / farey._mobius_flags",
    # resolves in the package, in the module of the mutated file.
    module, *attrs = re.match(r"[\w.]+", mutant["fast_path"]).group().split(".")
    assert mutant["file"] == f"src/crosscap3/{module}.py"
    obj = importlib.import_module(f"crosscap3.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)


def test_ids_are_unique():
    assert len({m["id"] for m in CORPUS}) == len(CORPUS)
