"""The construction formulas of the structure nodes against the components.

Exact evaluation has one route, the compiled evaluator on explicit
components.  ``node_values`` below keeps the construction formulas of
``SuspensionNode`` and ``CompositionNode`` in exact arithmetic, applied to
the children, as a reference: every materialized map must take the values
the formula gives at the refutation points.  A map known only by its node
is certified by factored expansion and cannot be evaluated exactly.
"""

import pytest

from quadrep.exact import GaussianRational
from quadrep.maps import (
    CompositionNode,
    InfeasibleError,
    PolyMap,
    SuspensionNode,
    _refutation_points,
    catalog,
    certify_order,
)
from quadrep.serialize import read_document, write_document

# ------------------------------------------------------- reference formulas


def _square_sum(values) -> GaussianRational:
    return sum((v * v for v in values), start=GaussianRational(0))


def node_values(node, point) -> list[GaussianRational]:
    """The node's map at ``point`` by its construction formula."""
    if isinstance(node, SuspensionNode):
        m0 = node.f.m
        z, u = list(point[:m0]), list(point[m0:])
        t = _square_sum(z)
        s = t + _square_sum(u)
        fv, gv = reference_values(node.f, z), reference_values(node.g, z)
        b1 = node.triple.f_coeff.eval_exact([s, t])
        b2 = node.triple.g_coeff.eval_exact([s, t])
        rr = node.triple.u_coeff.eval_exact([s, t])
        return [b1 * a + b2 * b for a, b in zip(fv, gv)] + [rr * v for v in u]
    assert isinstance(node, CompositionNode)
    return reference_values(node.outer, reference_values(node.inner, point))


def reference_values(pmap: PolyMap, point) -> list[GaussianRational]:
    """Through the components when the map has them, else through its node."""
    if pmap.components is not None:
        return pmap.eval_exact(point)
    return node_values(pmap.node, point)


def construction(pmap: PolyMap) -> list[PolyMap]:
    """Every map of the construction DAG below and including ``pmap``, once."""
    seen, stack, out = set(), [pmap], []
    while stack:
        pm = stack.pop()
        if id(pm) in seen:
            continue
        seen.add(id(pm))
        out.append(pm)
        if isinstance(pm.node, SuspensionNode):
            stack += [pm.node.f, pm.node.g]
        elif isinstance(pm.node, CompositionNode):
            stack += [pm.node.outer, pm.node.inner]
    return out


# ------------------------------------------------------------------ catalog

TARGETS = (
    [f"pi_n:{n},{d}" for n in range(1, 5) for d in range(-3, 4)]
    + [f"pi_np1:{n}" for n in range(3, 7)]
    + [f"pi3_s2:{d}" for d in range(-2, 3)]
    + ["pi_np2:2", "pi_np2:3"]
)


@pytest.mark.parametrize("target", TARGETS)
def test_components_match_the_construction_formula(target):
    for pm in construction(catalog(target)):
        if pm.node is None:
            continue
        assert pm.components is not None
        for point in _refutation_points(pm.m):
            assert pm.eval_exact(point) == node_values(pm.node, point), (pm.label, point)


# ---------------------------------------------------------------- node-only


def test_node_only_map_is_refuted_by_its_construction():
    f2 = catalog("pi_np3:2")
    assert f2.components is None
    # 100 is beyond any degree f2 could have, but only components carry a
    # degree bound: the construction rule refutes both claims
    for k in (21, 100):
        assert certify_order(f2, k).summary() == {
            "claimed_order": k,
            "method": "factored-expansion",
            "verdict": "fail",
            "detail": {"outer_order": 2, "inner_order": 11},
            "witness": f"composition of orders 2 and 11 has order 22, not {k}",
        }
    with pytest.raises(InfeasibleError, match="materialized components"):
        f2.eval_exact(_refutation_points(f2.m)[0])


def test_in_process_map_takes_the_same_scan_as_its_document(tmp_path):
    # pi_np2:3 has 64k terms, too many to square within the budget; its node
    # does not spare it the scan, so the map built here and its document get
    # one certificate for a wrong claim
    sus = catalog("pi_np2:3")
    path = str(tmp_path / "sus.json")
    write_document(sus, path)
    cert = certify_order(sus, 10)
    assert cert.method == "exact-evaluation" and cert.detail == {"stage": "refutation scan"}
    assert certify_order(read_document(path), 10) == cert
    # the right claim passes the scan on residues alone, and its node proves it
    built = catalog("pi_np2:3")
    cert = certify_order(built, 11)
    assert cert.verdict and cert.method == "factored-expansion"
    assert built._evaluator is None


def test_small_node_map_is_still_scanned():
    f = catalog("pi3_s2:3")
    assert f.node is not None
    cert = certify_order(f, 9)
    assert cert.method == "exact-evaluation" and cert.detail == {"stage": "refutation scan"}
