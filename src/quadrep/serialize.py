"""Canonical JSON documents for maps.

A map document stores explicit components term by term with rational
coefficients as canonical strings (never floats), so exactness survives the
wire.  Serialization is canonical: terms in graded-lex descending order,
sorted object keys, fixed separators, UTF-8, newline-terminated.  Exporting
an imported document reproduces it byte for byte.
"""

from __future__ import annotations

import itertools
import json
import os
import stat
from typing import Iterator

import numpy as np

from .exact import Polynomial
from .maps import InfeasibleError, PolyMap

FORMAT_VERSION = 1
_json = json.JSONEncoder(ensure_ascii=False, sort_keys=True, separators=(",", ":")).encode


class DocumentError(Exception):
    """The document is malformed or violates the format contract."""


def document_parts(pmap: PolyMap) -> Iterator[str]:
    """The canonical document text in pieces (head, each component in slices
    of terms, tail), built from the packed terms.  Maps without materialized
    components (the deep torsion-chain suspensions) are refused before the
    first piece."""
    if pmap.components is None:
        raise InfeasibleError(
            f"map {pmap.label!r} has no materialized components; "
            "its explicit term list is beyond the storage budget"
        )
    certificates = pmap.document_certificates
    if certificates is None:
        certificates = _json([pmap.certificate.summary()] if pmap.certificate is not None else [])
    head = f'{{"certificates":{certificates},"codomain_dim":{pmap.r},"components":['
    tail = (
        f'],"domain_dim":{pmap.m},"format_version":{FORMAT_VERSION},'
        f'"label":{_json(pmap.label)},"order":{_json(pmap.order)}}}\n'
    )
    pieces = (
        piece for i, comp in enumerate(pmap.components) for piece in _component_text(comp, ",[" if i else "[")
    )
    return itertools.chain((head,), pieces, (tail,))


SLICE_TERMS = 1024  # terms per emitted piece: one piece's text, not a component's, is held at once


def _spans(tokens: list[bytes], origin: int) -> np.ndarray:
    """[tokens, 2]: where each token starts and how long it is, with the
    tokens written one after another from ``origin``."""
    lengths = list(map(len, tokens))
    spans = zip(itertools.accumulate(lengths, initial=origin), lengths)
    return np.fromiter(itertools.chain.from_iterable(spans), np.intp, 2 * len(tokens)).reshape(-1, 2)


_OPENING = b',{"exponents":['  # a term's opening; a component's first term drops the comma
# the openings' spans: rows [0, count) for a component's first slice, [1, count] for later ones
_OPENINGS = np.tile(np.array([0, len(_OPENING)], np.intp), (SLICE_TERMS + 1, 1, 1))
_OPENINGS[0] = 1, len(_OPENING) - 1
# "e," for the one-byte exponents e, after the opening, and their spans
_BYTE_EXPONENTS = [b"%d," % e for e in range(256)]
_BYTE_TEXT = _OPENING + b"".join(_BYTE_EXPONENTS)
_BYTE_SPANS = _spans(_BYTE_EXPONENTS, len(_OPENING))


def _component_text(comp: Polynomial, opening: str) -> Iterator[str]:
    """The component's JSON array after ``opening``, in pieces of at most
    ``SLICE_TERMS`` terms."""
    yield opening
    if comp:  # an empty component has no terms to tabulate
        yield from _term_slices(comp)
    yield "]"


def _term_slices(comp: Polynomial) -> Iterator[str]:
    """The terms' text, ``SLICE_TERMS`` terms per piece.  The component's
    tokens are written once into one byte buffer: the term opening, "e,"
    for each exponent e it uses and one tail ``],"im":"…","re":"…"}`` per
    distinct coefficient.  A term is the span of its opening, of each of its
    exponents (the last without its comma) and of its tail, and a piece is
    one gather of the bytes its terms' spans cover, so what is held per
    piece grows with the piece's text."""
    exponents, coefficient, spelled = comp.term_table()
    nvars = comp.nvars
    if exponents.dtype == np.uint8:
        head, spans, codes = _BYTE_TEXT, _BYTE_SPANS, exponents
    else:  # wider key fields: the exponents the component uses
        values, codes = np.unique(exponents, return_inverse=True)
        tokens = [b"%d," % e for e in values.tolist()]
        head, spans = _OPENING + b"".join(tokens), _spans(tokens, len(_OPENING))
        codes = codes.reshape(exponents.shape)
    tails = [b'],"im":"%s","re":"%s"}' % (im.encode(), re.encode()) for re, im in spelled]
    tail_spans, text = _spans(tails, len(head))[:, None], np.frombuffer(head + b"".join(tails), np.uint8)
    for first in range(0, len(coefficient), SLICE_TERMS):
        rows, lead = coefficient[first : first + SLICE_TERMS], int(first > 0)
        # [terms, nvars + 2, (start, length)]: the opening, the exponents and the tail of each term
        fields = spans[codes[first : first + SLICE_TERMS]]
        span = np.concatenate([_OPENINGS[lead : lead + len(rows)], fields, tail_spans[rows]], axis=1)
        if nvars:  # the last exponent has no comma
            span[:, nvars, 1] -= 1
        begin, size = span.reshape(-1, 2).T
        end = size.cumsum()
        index = np.repeat(begin + size - end, size)
        index += np.arange(len(index))
        yield text[index].tobytes().decode("ascii")


def map_to_document(pmap: PolyMap) -> dict:
    """The document of a map as a JSON object, parsed from its canonical text."""
    return json.loads("".join(document_parts(pmap)))


def _integer(value, what: str, minimum: int) -> int:
    """A JSON integer >= minimum; floats, bools and strings are refused."""
    if type(value) is not int or value < minimum:
        raise DocumentError(f"{what} must be an integer >= {minimum}, got {value!r}")
    return value


_CERTIFICATE_KEYS = {"claimed_order", "method", "verdict", "detail", "witness"}


def _certificate(entry) -> dict:
    """A certificate entry as ``Certificate.summary()`` writes it."""
    if not (
        isinstance(entry, dict)
        and {"claimed_order", "method", "verdict"} <= entry.keys() <= _CERTIFICATE_KEYS
        and (entry["claimed_order"] is None or type(entry["claimed_order"]) is int)
        and (entry["claimed_order"] or 0) >= 0
        and isinstance(entry["method"], str)
        and entry["verdict"] in ("pass", "fail")
        and isinstance(entry.get("detail", {}), dict)
        and isinstance(entry.get("witness", ""), str)
    ):
        raise DocumentError(f"malformed certificate entry {entry!r}")
    return entry


def document_to_map(doc: dict) -> PolyMap:
    try:
        version = doc["format_version"]
        if type(version) is not int or version != FORMAT_VERSION:
            raise DocumentError(f"unsupported format_version {version!r}")
        m = _integer(doc["domain_dim"], "domain_dim", 1)
        r = _integer(doc["codomain_dim"], "codomain_dim", 1)
        order = doc.get("order")
        if order is not None:
            order = _integer(order, "order", 0)
        label = doc.get("label", "")
        if not isinstance(label, str):
            raise DocumentError(f"label must be a string, got {label!r}")
        raw_components = doc["components"]
        if len(raw_components) != r:
            raise DocumentError("component count does not match codomain_dim")
        components = [
            Polynomial.from_term_texts(m, ((entry["exponents"], entry["re"], entry["im"]) for entry in raw))
            for raw in raw_components
        ]
        certs = doc.get("certificates", [])
        if not isinstance(certs, list):
            raise DocumentError("certificates must be a list")
        certificates = _json([_certificate(c) for c in certs])
        return PolyMap(m, r, components, label=label, order=order, document_certificates=certificates)
    except DocumentError:
        raise
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise DocumentError(f"malformed map document: {exc}") from exc


def dumps_canonical(obj) -> str:
    """Canonical JSON text: sorted keys, compact separators, one newline."""
    return _json(obj) + "\n"


def write_document(pmap: PolyMap, path: str):
    """The only file writer: writes in place, then cuts a regular file to
    length (no truncate to zero, which makes ext4 flush on close; no fsync).
    A map that cannot be exported leaves the path untouched."""
    parts = document_parts(pmap)
    try:
        with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
            fh.writelines(part.encode("utf-8") for part in parts)
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()
    except OSError as exc:
        raise DocumentError(f"cannot write {path}: {exc.strerror or exc}") from exc


def read_document(path: str) -> PolyMap:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers bad JSON, bad UTF-8 and over-long integers
        raise DocumentError(f"cannot read map document {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise DocumentError("map document must be a JSON object")
    return document_to_map(doc)
