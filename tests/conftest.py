"""Fixtures shared by the test modules."""

import json
import pathlib

import pytest

CORPUS_INPUTS = json.loads((pathlib.Path(__file__).parent / "golden" / "cli_corpus.json").read_text())["inputs"]


@pytest.fixture
def corpus_dir(tmp_path, monkeypatch):
    """Every golden-corpus input written to ``<name>.json`` in ``tmp_path``, which becomes the working directory."""
    for name, doc in CORPUS_INPUTS.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    return tmp_path
