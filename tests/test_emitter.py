"""The document emitter against the dict builder it replaced.

``reference_document`` below keeps the former way of writing a document:
a dict with one dict per term, each coefficient spelled by
``str(Fraction)``, handed to the generic JSON encoder by
``dumps_canonical``.  The emitter in ``serialize`` writes the text straight
from the packed terms; every document it writes must equal the reference
text byte for byte, for catalog maps (certificate summary), for imported
documents (stored certificate text) and for labels with quotes,
backslashes, control characters and non-ASCII text, and for components
at the edges of the slices of terms the emitter writes in one piece.

``oracle_component_text`` keeps the former per-term emitter: every term
decoded to an exponent tuple and spelled by two ``_fraction_text`` calls.
The emitter spells each distinct coefficient of a component once and
assembles each slice of terms as one gather of its tokens' bytes; its
pieces must equal the oracle's for every key width (exponents past int64
too), shared, imaginary-only and constant coefficients, and numerators
past the interpreter's digit limit, also when one long coefficient shares
a slice with short ones, and what a slice holds must not grow with that
coefficient.
"""

import itertools
import tracemalloc
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadrep.cli import main
from quadrep.exact import GaussianRational, Polynomial, _fraction_text, _width
from quadrep.maps import PolyMap, catalog
from quadrep.serialize import (
    FORMAT_VERSION,
    SLICE_TERMS,
    _component_text,
    document_parts,
    document_to_map,
    dumps_canonical,
)

from key_oracle import monomial

# ---------------------------------------------------------- reference builder


def reference_document(pmap: PolyMap) -> dict:
    if pmap.document_certificates is not None:
        certificates = json.loads(pmap.document_certificates)
    elif pmap.certificate is not None:
        certificates = [pmap.certificate.summary()]
    else:
        certificates = []
    return {
        "format_version": FORMAT_VERSION,
        "domain_dim": pmap.m,
        "codomain_dim": pmap.r,
        "order": pmap.order,
        "label": pmap.label,
        "components": [
            [{"exponents": list(mono), "re": str(c.re), "im": str(c.im)} for mono, c in comp.sorted_terms()]
            for comp in pmap.components
        ],
        "certificates": certificates,
    }


def emitted(pmap: PolyMap) -> str:
    return "".join(document_parts(pmap))


def assert_same_document(pmap: PolyMap):
    text = emitted(pmap)
    assert text == dumps_canonical(reference_document(pmap))
    # the imported document keeps its certificates as stored text
    imported = document_to_map(json.loads(text))
    assert emitted(imported) == dumps_canonical(reference_document(imported)) == text


# ------------------------------------------------------------------- catalog

SWEEP = (
    [f"pi_n:{n},{d}" for n in range(1, 5) for d in range(-3, 4)]
    + [f"pi_np1:{n}" for n in range(3, 7)]
    + [f"pi3_s2:{d}" for d in range(-2, 3)]
    + ["pi_np2:2", "pi_np2:4", "pi3_s2:7"]
)


@pytest.mark.parametrize("target", SWEEP)
def test_catalog_documents_match_reference(target):
    assert_same_document(catalog(target))


# ------------------------------------------------------------ slice edges


def component(n: int) -> Polynomial:
    return Polynomial(2, {(j, n - j): GaussianRational(Fraction(j + 1, 3), j % 2) for j in range(n)})


@pytest.mark.parametrize(
    "sizes",
    [(0,), (1,), (SLICE_TERMS,), (SLICE_TERMS + 1,), (SLICE_TERMS + 1, 0, 1, SLICE_TERMS)],
    ids=["empty", "one", "slice", "slice+1", "all"],
)
def test_slice_edges_match_reference(sizes):
    pmap = PolyMap.explicit([component(n) for n in sizes], "slices")
    assert_same_document(pmap)
    assert max(piece.count('"exponents"') for piece in document_parts(pmap)) == min(max(sizes), SLICE_TERMS)


# ---------------------------------------------------------------- generated

LABEL_SAMPLES = ['quote " and backslash \\', "tab\tnewline\n nul\x00 bell\x07", "\u2028 é ∑ 😀", "\x7f\ufeff"]
labels = st.one_of(
    st.sampled_from(LABEL_SAMPLES),
    st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=12),
)
fractions = st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**6))
coefficients = st.builds(GaussianRational, fractions, st.one_of(st.just(Fraction(0)), fractions))


@st.composite
def maps(draw):
    m = draw(st.integers(1, 4))
    r = draw(st.integers(1, 3))
    monos = st.tuples(*[st.integers(0, 300)] * m)
    components = [
        Polynomial(m, draw(st.dictionaries(monos, coefficients, max_size=6)))
        for _ in range(r)
    ]
    order = draw(st.one_of(st.none(), st.integers(0, 10**20)))
    return PolyMap.explicit(components, draw(labels), order=order)


texts = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=8)
certificate_entries = st.fixed_dictionaries(
    {
        "claimed_order": st.one_of(st.none(), st.integers(0, 10**6)),
        "method": texts,
        "verdict": st.sampled_from(["pass", "fail"]),
    },
    optional={
        "detail": st.dictionaries(texts, st.one_of(st.integers(), texts, st.lists(st.integers(), max_size=3)), max_size=3),
        "witness": texts,
    },
)


@settings(max_examples=150, deadline=None)
@given(maps())
def test_generated_maps_match_reference(pmap):
    assert_same_document(pmap)


@settings(max_examples=100, deadline=None)
@given(maps(), st.lists(certificate_entries, max_size=3))
def test_imported_certificates_match_reference(pmap, certificates):
    doc = json.loads(emitted(pmap))
    doc["certificates"] = certificates
    imported = document_to_map(doc)
    assert emitted(imported) == dumps_canonical(reference_document(imported)) == dumps_canonical(doc)


# ----------------------------------------------------------- per-term oracle


def oracle_term_texts(p: Polynomial):
    width, n, den, num = _width(p._degree), p.nvars, p._den, p._num
    for k in sorted(num, reverse=True):
        re, im = num[k]
        yield monomial(k, width, n), _fraction_text(re, den), _fraction_text(im, den) if im else "0"


def oracle_component_text(comp: Polynomial, opening: str):
    terms = (
        f'{{"exponents":[{",".join(map(str, mono))}],"im":"{im}","re":"{re}"}}'
        for mono, re, im in oracle_term_texts(comp)
    )
    yield opening
    separator = ""
    while piece := ",".join(itertools.islice(terms, SLICE_TERMS)):
        yield separator + piece
        separator = ","
    yield "]"


LONG = 10**4400  # past the default digit limit of str(int): int_text's chunked path
numerators = st.one_of(st.integers(-9, 9), st.integers(-(10**30), 10**30), st.integers(-9, 9).map(lambda k: LONG + k))
parts = st.builds(Fraction, numerators, st.integers(1, 10**6))
shared = st.one_of(
    st.builds(GaussianRational, parts, parts),
    st.builds(GaussianRational, parts),
    st.builds(lambda im: GaussianRational(0, im), parts),  # imaginary only
)


@st.composite
def components(draw):
    nvars = draw(st.integers(0, 4))
    # exponents past 255 give a total degree that needs two-byte key fields
    exponent = st.one_of(st.integers(0, 3), st.integers(250, 300))
    monos = draw(st.lists(st.tuples(*[exponent] * nvars), max_size=40, unique=True))
    pool = draw(st.lists(shared, min_size=1, max_size=3))  # few coefficients: many terms share one
    return Polynomial(nvars, {mono: draw(st.sampled_from(pool)) for mono in monos})


def assert_same_pieces(comp: Polynomial):
    for opening in ("[", ",["):
        assert list(_component_text(comp, opening)) == list(oracle_component_text(comp, opening))


@settings(max_examples=200, deadline=None)
@given(components())
@example(Polynomial.zero(2))
@example(Polynomial.zero(0))
@example(Polynomial.constant(3, GaussianRational(Fraction(-5, 7), 2)))
@example(Polynomial.constant(0, GaussianRational(0, Fraction(LONG + 1, 3))))
@example(Polynomial(2, {(70000, 1): GaussianRational(0, 1), (0, 0): 1}))  # three-byte key fields
@example(Polynomial(2, {(255, 0): 1, (250, 5): GaussianRational(0, 1), (0, 0): 1}))  # the widest one-byte field
def test_emitter_pieces_match_the_per_term_oracle(comp):
    assert_same_pieces(comp)


@pytest.mark.parametrize("degree", [100, 300], ids=["one-byte", "two-byte"])
def test_shared_coefficient_across_slices_matches_the_oracle(degree):
    # 2 * SLICE_TERMS + 1 terms, two distinct coefficients
    comp = Polynomial(
        3,
        {(i, j, degree - i - j): GaussianRational(Fraction(1, 3), i % 2) for i in range(41) for j in range(50)},
    )
    assert len(comp) == 2050
    assert_same_pieces(comp)


def test_a_long_coefficient_among_short_ones_matches_the_oracle_in_bounded_memory():
    # 2,050 terms with distinct coefficients, one of them past the digit
    # limit: a table padding every tail to the longest would hold 2,050 x 4.4 KB
    monos = [(i, j, 100 - i - j) for i in range(41) for j in range(50)]
    terms = {mono: GaussianRational(Fraction(k + 1, 7), k % 3) for k, mono in enumerate(monos)}
    terms[monos[1500]] = GaussianRational(Fraction(LONG + 1, 3), 1)
    comp = Polynomial(3, terms)
    assert len(comp) == 2050 and len(set(comp.terms.values())) == 2050
    assert_same_pieces(comp)
    pieces = list(_component_text(comp, "["))
    assert [piece.count('"exponents"') for piece in pieces] == [0, SLICE_TERMS, SLICE_TERMS, 2, 0]
    assert sum("0" * 4000 in piece for piece in pieces) == 1
    tracemalloc.start()
    try:
        for _ in _component_text(comp, "["):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


@pytest.mark.parametrize("big", [2**63, 2**70], ids=["eight-byte", "nine-byte"])
def test_exponents_past_int64_export_byte_for_byte(big, tmp_path):
    comp = Polynomial(2, {(big, 0): 1, (0, big - 1): GaussianRational(0, Fraction(1, 3)), (big // 2, 1): 2, (1, 1): 1})
    assert_same_pieces(comp)
    pmap = PolyMap.explicit([comp, Polynomial.zero(2)], "wide")
    assert_same_document(pmap)
    src, dst = tmp_path / "a.json", tmp_path / "b.json"
    src.write_bytes(emitted(pmap).encode("utf-8"))
    assert main(["export", str(src), "-o", str(dst)]) == 0
    assert dst.read_bytes() == src.read_bytes() and f"[{big},0]".encode() in src.read_bytes()
