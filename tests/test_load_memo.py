"""The one-document slot of ``serialize.load_instance``.

A load whose file text equals that of the last file that parsed completely
returns the document parsed then.  These tests pin that an unchanged file is
neither parsed nor refined again, that its reports stay those of a fresh
parse, and that edited, malformed or copied files behave as without the slot.
"""

import json
import shutil

import pytest

from conftest import forget_last_load

from cadlagconvex import cli, serialize
from cadlagconvex.duality import Instance
from cadlagconvex.presets import bundled_instance_path
from cadlagconvex.serialize import load_instance


def run(argv, capsys):
    """(exit code or the repr of what ``cli.main`` raised, report without its
    timestamp or stdout as printed, stderr)."""
    try:
        code = cli.main(list(argv))
    except ValueError as exc:  # interchange-det on a multi-scenario preset
        code = repr(exc)
    out, err = capsys.readouterr()
    try:
        report = json.loads(out)
    except json.JSONDecodeError:
        return code, out, err
    report.pop("timestamp")
    return code, report, err


@pytest.fixture
def counted(monkeypatch):
    """Calls of ``instance_doc_from_json`` and ``Instance._refine``, by name."""
    calls = {"parse": 0, "refine": 0}
    parse, refine = serialize.instance_doc_from_json, Instance._refine

    def counting_parse(doc):
        calls["parse"] += 1
        return parse(doc)

    def counting_refine(inst, factor):
        calls["refine"] += 1
        return refine(inst, factor)
    monkeypatch.setattr(serialize, "instance_doc_from_json", counting_parse)
    monkeypatch.setattr(Instance, "_refine", counting_refine)
    return calls


@pytest.fixture
def basic(tmp_path):
    path = tmp_path / "basic.json"
    shutil.copyfile(bundled_instance_path("basic"), path)
    return str(path)


@pytest.mark.parametrize("theorem", cli.THEOREMS)
@pytest.mark.parametrize("name", ["basic", "obstacle", "currency", "cs"])
def test_a_second_verify_neither_parses_nor_refines(name, theorem, counted, capsys):
    argv = ("verify", str(bundled_instance_path(name)), "--theorem", theorem)
    fresh = run(argv, capsys)
    assert counted["parse"] == 1
    counted.update(parse=0, refine=0)
    assert run(argv, capsys) == fresh
    assert counted == {"parse": 0, "refine": 0}


def test_a_same_length_edit_is_parsed_again(basic, counted, capsys):
    argv = ("verify", basic, "--theorem", "conjugate")
    before = run(argv, capsys)
    with open(basic, encoding="utf-8") as fh:
        text = fh.read()
    at = text.index('"-1"')  # the first dual's slot-1 atom in scenario dn
    edited = text[:at] + '"-3"' + text[at + 4:]
    with open(basic, "r+", encoding="utf-8") as fh:
        fh.write(edited)
    counted["parse"] = 0
    after = run(argv, capsys)
    assert counted["parse"] == 1
    assert after != before
    forget_last_load()
    assert run(argv, capsys) == after


@pytest.mark.parametrize("theorem", cli.THEOREMS)
def test_a_file_refined_in_place_is_parsed_again(theorem, basic, capsys):
    """Verify twice, overwrite the file with ``refine -o`` of its own path,
    verify twice more: each run equals a fresh-slot run of the file as it is."""
    argv = ("verify", basic, "--theorem", theorem)
    for step in ("as written", "refined in place"):
        warm = [run(argv, capsys) for _ in range(2)]
        forget_last_load()
        assert warm == [run(argv, capsys)] * 2, step
        assert cli.main(["refine", basic, "--factor", "2", "-o", basic]) == 0
        capsys.readouterr()


@pytest.mark.parametrize("old, new", [('"-1"', '"/0"'), ("{", "[")])
def test_a_malformed_edit_exits_2_and_is_not_stored(basic, old, new, capsys):
    argv = ("verify", basic, "--theorem", "conjugate")
    assert run(argv, capsys)[0] == 0
    with open(basic, encoding="utf-8") as fh:
        text = fh.read()
    last = serialize._parsed(text)
    with open(basic, "w", encoding="utf-8") as fh:
        fh.write(text.replace(old, new, 1))
    for _ in range(2):
        code, out, err = run(argv, capsys)
        assert (code, out, len(err.splitlines())) == (2, "", 1)
        assert err.startswith("schema error:") and "Traceback" not in err
        assert serialize._parsed(text) is last


def test_the_same_text_at_another_path_is_the_same_document(basic, tmp_path):
    twin = tmp_path / "twin.json"
    shutil.copyfile(basic, twin)
    assert load_instance(str(twin)) is load_instance(basic)


@pytest.mark.parametrize("name", ["basic", "obstacle", "currency", "cs"])
def test_written_files_keep_their_bytes_after_a_warm_verify(name, tmp_path, capsys):
    base, fine = tmp_path / "base.json", tmp_path / "fine.json"

    def outputs():
        forget_last_load()
        assert cli.main(["model", name, "-o", str(base)]) == 0
        assert cli.main(["refine", str(base), "--factor", "2", "-o", str(fine)]) == 0
        return base.read_bytes(), fine.read_bytes()

    cold = outputs()
    forget_last_load()
    for theorem in cli.THEOREMS:
        run(("verify", str(base), "--theorem", theorem), capsys)
    assert cli.main(["refine", str(base), "--factor", "2", "-o", str(fine)]) == 0
    assert cli.main(["model", name, "-o", str(base)]) == 0
    assert (base.read_bytes(), fine.read_bytes()) == cold
    assert outputs() == cold


def test_a_loaded_document_holds_tuples(basic):
    idoc = load_instance(basic)
    assert idoc is load_instance(basic)
    for seq in (idoc.duals, idoc.paths, idoc.refine(2).duals, idoc.refine(2).paths):
        assert type(seq) is tuple
        with pytest.raises(AttributeError):
            seq.append(seq[0])
