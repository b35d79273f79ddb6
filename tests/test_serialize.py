"""Map documents: canonical JSON, exact round trips, validation."""

import json
import os
import stat
import threading
from fractions import Fraction

import pytest

from quadrep.cli import main
from quadrep.exact import GaussianRational, Polynomial
from quadrep.maps import Certificate, InfeasibleError, PolyMap, catalog, hopf_pair
from quadrep.serialize import (
    DocumentError,
    document_to_map,
    dumps_canonical,
    map_to_document,
    read_document,
    write_document,
)


def test_round_trip_hopf():
    f, _ = hopf_pair()
    doc = map_to_document(f)
    back = document_to_map(doc)
    assert back.components == f.components
    assert back.m == f.m and back.r == f.r and back.order == f.order
    assert back.label == f.label


def test_export_import_export_byte_identical(tmp_path):
    pm = catalog("pi_np1:3")
    path1 = tmp_path / "a.json"
    path2 = tmp_path / "b.json"
    write_document(pm, str(path1))
    write_document(read_document(str(path1)), str(path2))
    assert path1.read_bytes() == path2.read_bytes()
    assert path1.read_bytes().endswith(b"\n")


def test_terms_are_canonically_ordered():
    pm = catalog("pi_n:2,2")
    doc = map_to_document(pm)
    for comp in doc["components"]:
        keys = [(sum(t["exponents"]), tuple(t["exponents"])) for t in comp]
        assert keys == sorted(keys, reverse=True)


def test_rational_strings_never_floats():
    f, _ = hopf_pair()
    text = dumps_canonical(map_to_document(f))
    parsed = json.loads(text)
    for comp in parsed["components"]:
        for term in comp:
            assert isinstance(term["re"], str)
            assert isinstance(term["im"], str)
            Fraction(term["re"])  # parseable
            Fraction(term["im"])


def test_gaussian_coefficients_survive():
    p = Polynomial(2, {(1, 0): GaussianRational(Fraction(1, 3), Fraction(-5, 7))})
    pm = PolyMap.explicit([p, Polynomial.zero(2)], "custom", order=None)
    back = document_to_map(map_to_document(pm))
    assert back.components == pm.components


def test_structural_map_refuses_export():
    f2 = catalog("pi_np3:2")
    with pytest.raises(InfeasibleError):
        map_to_document(f2)


def test_certificates_preserved_through_round_trip():
    pm = catalog("pi_np1:3")
    doc = map_to_document(pm)
    assert doc["certificates"][0]["verdict"] == "pass"
    back = document_to_map(doc)
    assert map_to_document(back)["certificates"] == doc["certificates"]


def test_every_certificate_summary_shape_accepted():
    f, _ = hopf_pair()
    doc = map_to_document(f)
    doc["certificates"] = [
        Certificate(None, "full-expansion", False, witness="nonzero term").summary(),
        Certificate(2, "exact-evaluation", True, {"grid_points": 9}).summary(),
    ]
    assert map_to_document(document_to_map(doc))["certificates"] == doc["certificates"]


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(format_version=99),
        lambda d: d.update(format_version=True),
        lambda d: d.update(components=d["components"][:-1]),
        lambda d: d["components"][0][0].update(re="not-a-rational"),
        lambda d: d["components"][0][0].update(exponents=[1]),
        lambda d: d["components"][0][0].update(re="0", im="0"),
        lambda d: d["components"][0].append(dict(d["components"][0][0])),
        lambda d: d.pop("components"),
        lambda d: d.update(label=5),
        lambda d: d.update(label=None),
        lambda d: d.update(certificates=[1.5, True]),
        lambda d: d["certificates"][0].update(extra=1),
        lambda d: d["certificates"][0].pop("method"),
        lambda d: d["certificates"][0].update(claimed_order=True),
        lambda d: d["certificates"][0].update(claimed_order=-1),
        lambda d: d["certificates"][0].update(claimed_order=2.0),
        lambda d: d["certificates"][0].update(method=1),
        lambda d: d["certificates"][0].update(verdict=True),
        lambda d: d["certificates"][0].update(detail=[]),
        lambda d: d["certificates"][0].update(witness=7),
        lambda d: d["components"][0][0].update(re="1e5000"),
        lambda d: d["components"][0][0].update(im="0.5"),
        lambda d: d["components"][0][0].update(re=" 1"),
    ],
)
def test_malformed_documents_rejected(mutate):
    f, _ = hopf_pair()
    doc = json.loads(dumps_canonical(map_to_document(f)))
    mutate(doc)
    with pytest.raises(DocumentError):
        document_to_map(doc)


def test_read_document_missing_file():
    with pytest.raises(DocumentError):
        read_document("/nonexistent/path.json")


# ------------------------------------------------------------------- writer


def canonical_bytes(pmap) -> bytes:
    return dumps_canonical(map_to_document(pmap)).encode("utf-8")


@pytest.mark.parametrize("before", [b"x" * 100_000, b"{}", b""])
def test_overwrite_leaves_exactly_the_document(tmp_path, before):
    pm = catalog("pi_n:2,2")
    path = tmp_path / "doc.json"
    path.write_bytes(before)
    write_document(pm, str(path))
    assert path.read_bytes() == canonical_bytes(pm)


def test_write_through_symlink_keeps_the_link(tmp_path):
    pm = catalog("pi_n:1,2")
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_bytes(b"y" * 5000)
    link.symlink_to(target)
    write_document(pm, str(link))
    assert link.is_symlink()
    assert target.read_bytes() == canonical_bytes(pm)


def test_overwrite_keeps_mode_inode_and_links(tmp_path):
    pm = catalog("pi_n:1,2")
    path, twin = tmp_path / "doc.json", tmp_path / "twin.json"
    path.write_bytes(b"z" * 5000)
    path.chmod(0o600)
    os.link(path, twin)
    inode = path.stat().st_ino
    write_document(pm, str(path))
    assert stat.S_IMODE(path.stat().st_mode) == 0o600
    assert path.stat().st_ino == inode
    assert twin.read_bytes() == canonical_bytes(pm)


def test_write_to_devnull():
    write_document(catalog("pi_n:1,2"), os.devnull)


def test_write_to_fifo(tmp_path):
    pm = catalog("pi_n:1,2")
    fifo = str(tmp_path / "pipe")
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(open(fifo, "rb").read()), daemon=True)
    reader.start()
    write_document(pm, fifo)
    reader.join(timeout=10)
    assert received == [canonical_bytes(pm)]


def test_export_rewrites_its_own_input(tmp_path, capsys):
    path = tmp_path / "x.json"
    write_document(catalog("pi_np1:3"), str(path))
    before = path.read_bytes()
    assert main(["export", str(path), "-o", str(path)]) == 0
    assert path.read_bytes() == before


def test_write_document_unwritable_path(tmp_path):
    with pytest.raises(DocumentError, match="cannot write"):
        write_document(catalog("pi_n:1,2"), str(tmp_path / "missing" / "x.json"))


def test_write_document_past_the_digit_limit(tmp_path):
    big = 10**5000 + 1
    pm = PolyMap.explicit([Polynomial(1, {(1,): 1}), Polynomial(1, {(2,): Fraction(big, 3)})], "big")
    path = tmp_path / "big.json"
    path.write_text("old contents")
    write_document(pm, str(path))
    text = path.read_text()
    assert text.endswith('"label":"big","order":null}\n')
    assert f'"re":"1{"0" * 4999}1/3"' in text
