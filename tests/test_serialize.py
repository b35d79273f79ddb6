"""Map documents: canonical JSON, exact round trips, validation."""

import json
import os
import re
import stat
import threading
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


# -------------------------------------------------------------- oracle reader
#
# The reader as it was before it built the packed form directly: one regex
# check, one Fraction pair and one GaussianRational per term, then the
# Polynomial constructor.  The packed reader must accept and refuse exactly
# the components this one does, with equal results.


def _oracle_rational(value, what: str) -> Fraction:
    if not isinstance(value, str) or not re.fullmatch(r"-?[0-9]+(/[0-9]+)?", value):
        raise DocumentError(f"{what} must be a rational string like -3/4, got {value!r}")
    return Fraction(value)


def oracle_component(m: int, raw) -> Polynomial:
    try:
        terms = {}
        for entry in raw:
            mono = tuple(entry["exponents"])
            if len(mono) != m or any(type(e) is not int or e < 0 for e in mono):
                raise DocumentError(f"bad exponent vector {entry['exponents']!r}")
            coeff = GaussianRational(_oracle_rational(entry["re"], "re"), _oracle_rational(entry["im"], "im"))
            if coeff.is_zero():
                raise DocumentError("stored coefficients must be nonzero")
            if mono in terms:
                raise DocumentError(f"duplicate monomial {mono}")
            terms[mono] = coeff
        return Polynomial(m, terms)
    except DocumentError:
        raise
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise DocumentError(f"malformed map document: {exc}") from exc


def oracle_components(doc: dict) -> list[Polynomial]:
    return [oracle_component(doc["domain_dim"], raw) for raw in doc["components"]]


_BIG = 10**1100  # numerators past 1000 digits

parts = st.builds(
    Fraction,
    st.one_of(st.integers(-9, 9), st.integers(-_BIG, _BIG), st.integers(-9, 9).map(lambda k: _BIG + k)),
    st.one_of(st.integers(1, 12), st.integers(1, 10**40)),
)
gaussians = st.builds(GaussianRational, parts, st.one_of(st.just(Fraction(0)), parts))


@st.composite
def polynomials(draw):
    nvars = draw(st.integers(0, 4))
    # exponents past 255 give a total degree that needs 16-bit key fields
    exponent = st.one_of(st.integers(0, 3), st.integers(250, 300))
    monos = draw(st.lists(st.tuples(*[exponent] * nvars), max_size=8, unique=True))
    return Polynomial(nvars, {mono: draw(gaussians) for mono in monos})


def term_texts(p: Polynomial) -> list:
    """The (exponents, re text, im text) triples a document holds for p."""
    return [(mono, str(c.re), str(c.im)) for mono, c in p.sorted_terms()]


@settings(max_examples=120, deadline=None)
@given(polynomials())
@example(Polynomial(0, {(): GaussianRational(Fraction(-2, 4), 3)}))
@example(Polynomial.constant(2, Fraction(_BIG + 1, 3)))
@example(Polynomial.zero(1))
def test_packed_reader_agrees_with_the_oracle(p):
    texts = term_texts(p)
    got = Polynomial.from_term_texts(p.nvars, texts)
    entries = [{"exponents": list(mono), "re": re_text, "im": im_text} for mono, re_text, im_text in texts]
    assert got == oracle_component(p.nvars, entries) == p
    assert term_texts(got) == texts
    if p.nvars:
        pm = PolyMap.explicit([p], "p")
        assert document_to_map(map_to_document(pm)).components == (p,)


def _first_term_set(field: str, value):
    def mutate(doc):
        doc["components"][0][0][field] = value

    return mutate


def _hopf_document() -> dict:
    return json.loads(dumps_canonical(map_to_document(hopf_pair()[0])))


@pytest.mark.parametrize(
    "field, text",
    [("re", "2/4"), ("re", "6/3"), ("im", "-0"), ("re", "007"), ("im", "0/5"), ("im", "-9/6"), ("im", "-0/7")],
)
def test_non_canonical_spellings_read_by_value_and_export_canonically(field, text):
    doc = _hopf_document()
    _first_term_set(field, text)(doc)
    got = document_to_map(doc)
    assert list(got.components) == oracle_components(doc)
    (written,) = (
        t for t in map_to_document(got)["components"][0] if t["exponents"] == doc["components"][0][0]["exponents"]
    )
    assert written[field] == str(Fraction(text))


_REFUSED_SPELLINGS = ["1/0", "1.5", "+1", " 1", "1 ", "1/-2", "", "1/", "-", "1_0", "\u0661", 1, 1.5, True, None, [1]]


@pytest.mark.parametrize(
    "mutate",
    [
        *(
            pytest.param(_first_term_set(field, value), id=f"{field}={value!r}")
            for field in ("re", "im")
            for value in _REFUSED_SPELLINGS
        ),
        *(pytest.param(_first_term_set(field, "1" * 4301), id=f"{field}=4301-digits") for field in ("re", "im")),
        pytest.param(_first_term_set("exponents", [True, 1, 0, 0]), id="bool-exponent"),
        pytest.param(_first_term_set("exponents", [1.0, 1, 0, 0]), id="float-exponent"),
        pytest.param(_first_term_set("exponents", [2, 0, 0, -1]), id="negative-exponent"),
        pytest.param(_first_term_set("exponents", "2000"), id="string-exponents"),
        pytest.param(_first_term_set("exponents", 2), id="int-exponents"),
        pytest.param(_first_term_set("exponents", [2, 0, 0, 0, 0]), id="wrong-arity"),
        pytest.param(_first_term_set("re", "-0"), id="zero-coefficient"),
        pytest.param(lambda d: d["components"][1].append({**d["components"][1][0], "re": "5"}), id="duplicate"),
        pytest.param(lambda d: d["components"][1][0].pop("im"), id="missing-im"),
        pytest.param(lambda d: d["components"][1].append(7), id="non-object-term"),
    ],
)
def test_refusals_agree_with_the_oracle(mutate):
    doc = _hopf_document()
    mutate(doc)
    with pytest.raises(DocumentError):
        oracle_components(doc)
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
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    write_document(pm, str(fifo))
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
