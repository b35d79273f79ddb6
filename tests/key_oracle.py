"""Per-key decoding of packed monomial keys, kept as an oracle for tests.

``exact._fields`` decodes a whole list of keys at once through big-endian
machine words.  ``monomial`` below decodes one key at a time, a field at a
time, from the key's bytes; the two must agree for every field width.
"""


def monomial(key: int, width: int, nvars: int) -> tuple[int, ...]:
    """The exponents (e_0, ..., e_{n-1}) of a key packed at ``width`` bits a
    field, total degree highest; the total degree field is dropped."""
    size = width // 8
    raw = key.to_bytes(size * (nvars + 1), "big")[size:]
    return tuple(int.from_bytes(raw[i : i + size], "big") for i in range(0, len(raw), size))
